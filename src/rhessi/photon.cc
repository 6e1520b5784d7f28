#include "rhessi/photon.h"

#include <cmath>

#include "core/bytes.h"

namespace hedc::rhessi {

namespace {
constexpr uint32_t kPhotonMagic = 0x48504831;  // "HPH1"
}  // namespace

std::vector<uint8_t> EncodePhotons(const PhotonList& photons) {
  ByteBuffer out;
  out.PutU32(kPhotonMagic);
  out.PutVarint(photons.size());
  int64_t prev_micros = 0;
  for (const PhotonEvent& p : photons) {
    int64_t t = static_cast<int64_t>(std::llround(p.time_sec * 1e6));
    out.PutSignedVarint(t - prev_micros);
    prev_micros = t;
    // Energy quantized to 0.1 keV (well under the 1 keV instrument
    // resolution, §2.1).
    out.PutVarint(static_cast<uint64_t>(
        std::llround(static_cast<double>(p.energy_kev) * 10.0)));
    out.PutU8(static_cast<uint8_t>((p.detector & 0x0f) |
                                   (p.segment << 4)));
  }
  return std::move(out).TakeData();
}

namespace {

// Longest record: two 10-byte varints plus the detector byte.
constexpr size_t kMaxRecordBytes = 21;
// Shortest record: two 1-byte varints plus the detector byte.
constexpr size_t kMinRecordBytes = 3;

// Decodes one record into `*p`, advancing `cursor`; returns nullptr or
// the corruption message ByteReader would report. kChecked = false
// trusts the caller to have kMaxRecordBytes available. The time delta
// is accumulated in unsigned arithmetic so hostile deltas wrap instead
// of overflowing.
template <bool kChecked>
inline const char* ReadRecord(const uint8_t*& cursor, const uint8_t* end,
                              uint64_t* prev_micros, PhotonEvent* p) {
  uint64_t zigzag = 0, energy_deci = 0;
  if (const char* e = ReadVarint<kChecked>(cursor, end, &zigzag)) return e;
  if (const char* e = ReadVarint<kChecked>(cursor, end, &energy_deci)) {
    return e;
  }
  if (kChecked && cursor == end) return "truncated fixed-width field";
  uint8_t packed = *cursor++;
  *prev_micros += (zigzag >> 1) ^ (~(zigzag & 1) + 1);
  p->time_sec =
      static_cast<double>(static_cast<int64_t>(*prev_micros)) * 1e-6;
  p->energy_kev = static_cast<float>(energy_deci) / 10.0f;
  p->detector = packed & 0x0f;
  p->segment = packed >> 4;
  return nullptr;
}

}  // namespace

Result<PhotonList> DecodePhotons(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  uint32_t magic = 0;
  HEDC_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kPhotonMagic) {
    return Status::Corruption("not a photon list (bad magic)");
  }
  uint64_t n = 0;
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&n));
  // The count is untrusted: refuse one the payload cannot hold before
  // sizing the output by it.
  if (n > reader.remaining() / kMinRecordBytes) {
    return Status::Corruption("photon count exceeds payload");
  }
  PhotonList out(n);
  const uint8_t* cursor = bytes.data() + reader.position();
  const uint8_t* const end = bytes.data() + bytes.size();
  uint64_t prev_micros = 0;
  PhotonEvent* p = out.data();
  PhotonEvent* const out_end = p + n;
  // One bounds check per record while a maximal record fits, then a
  // per-byte checked tail.
  const char* error = nullptr;
  for (; p != out_end && error == nullptr &&
         static_cast<size_t>(end - cursor) >= kMaxRecordBytes;
       ++p) {
    error = ReadRecord<false>(cursor, end, &prev_micros, p);
  }
  for (; p != out_end && error == nullptr; ++p) {
    error = ReadRecord<true>(cursor, end, &prev_micros, p);
  }
  if (error != nullptr) return Status::Corruption(error);
  return out;
}

int64_t CountInWindow(const PhotonList& photons, double t0, double t1,
                      double e0, double e1) {
  int64_t count = 0;
  for (const PhotonEvent& p : photons) {
    if (p.time_sec >= t0 && p.time_sec < t1 && p.energy_kev >= e0 &&
        p.energy_kev < e1) {
      ++count;
    }
  }
  return count;
}

}  // namespace hedc::rhessi
