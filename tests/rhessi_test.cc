// Photon codec, telemetry generator, raw units, event detection,
// calibration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "archive/compression.h"
#include "archive/fits.h"
#include "core/bytes.h"
#include "core/rng.h"
#include "rhessi/calibration.h"
#include "rhessi/event_detect.h"
#include "rhessi/photon.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"

namespace hedc::rhessi {
namespace {

TEST(PhotonCodecTest, RoundTrip) {
  PhotonList photons;
  for (int i = 0; i < 1000; ++i) {
    PhotonEvent p;
    p.time_sec = static_cast<double>(i) * 0.001 + 0.0005;
    p.energy_kev = 3.0f + static_cast<float>(i % 500);
    p.detector = static_cast<uint8_t>(i % kNumCollimators);
    p.segment = static_cast<uint8_t>(i % 2);
    photons.push_back(p);
  }
  auto decoded = DecodePhotons(EncodePhotons(photons));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), photons.size());
  for (size_t i = 0; i < photons.size(); ++i) {
    EXPECT_NEAR(decoded.value()[i].time_sec, photons[i].time_sec, 1e-6);
    EXPECT_NEAR(decoded.value()[i].energy_kev, photons[i].energy_kev, 0.06);
    EXPECT_EQ(decoded.value()[i].detector, photons[i].detector);
    EXPECT_EQ(decoded.value()[i].segment, photons[i].segment);
  }
}

TEST(PhotonCodecTest, EmptyList) {
  auto decoded = DecodePhotons(EncodePhotons({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(PhotonCodecTest, BadMagicRejected) {
  EXPECT_FALSE(DecodePhotons({9, 9, 9, 9, 9}).ok());
}

// The field-at-a-time ByteReader decoder DecodePhotons replaced: the
// oracle for its bit-identical output and its corruption outcomes.
Result<PhotonList> ReferenceDecodePhotons(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  uint32_t magic = 0;
  HEDC_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != 0x48504831) {
    return Status::Corruption("not a photon list (bad magic)");
  }
  uint64_t n = 0;
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&n));
  PhotonList out;
  int64_t prev_micros = 0;
  for (uint64_t i = 0; i < n; ++i) {
    int64_t dt = 0;
    uint64_t energy_deci = 0;
    uint8_t packed = 0;
    HEDC_RETURN_IF_ERROR(reader.GetSignedVarint(&dt));
    HEDC_RETURN_IF_ERROR(reader.GetVarint(&energy_deci));
    HEDC_RETURN_IF_ERROR(reader.GetU8(&packed));
    prev_micros += dt;
    PhotonEvent p;
    p.time_sec = static_cast<double>(prev_micros) * 1e-6;
    p.energy_kev = static_cast<float>(energy_deci) / 10.0f;
    p.detector = packed & 0x0f;
    p.segment = packed >> 4;
    out.push_back(p);
  }
  return out;
}

void ExpectSamePhotons(const PhotonList& actual, const PhotonList& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    // Exact, not approximate: the same arithmetic on the same bits.
    ASSERT_EQ(actual[i].time_sec, expected[i].time_sec) << "photon " << i;
    ASSERT_EQ(actual[i].energy_kev, expected[i].energy_kev) << "photon " << i;
    ASSERT_EQ(actual[i].detector, expected[i].detector) << "photon " << i;
    ASSERT_EQ(actual[i].segment, expected[i].segment) << "photon " << i;
  }
}

// Both decoders agree on success, on the corruption class, and on every
// decoded field.
void ExpectDecodersAgree(const std::vector<uint8_t>& bytes) {
  Result<PhotonList> fast = DecodePhotons(bytes);
  Result<PhotonList> reference = ReferenceDecodePhotons(bytes);
  ASSERT_EQ(fast.ok(), reference.ok());
  if (!fast.ok()) {
    EXPECT_EQ(fast.status().code(), StatusCode::kCorruption);
    return;
  }
  ExpectSamePhotons(fast.value(), reference.value());
}

TEST(PhotonCodecTest, UnpackMatchesReferenceDecodeOnTelemetryUnits) {
  for (uint64_t seed : {5u, 17u}) {
    TelemetryOptions options;
    options.duration_sec = 600;
    options.flares_per_hour = 9;
    options.seed = seed;
    Telemetry telemetry = GenerateTelemetry(options);
    for (const RawDataUnit& unit :
         SegmentIntoUnits(telemetry.photons, 40000, 1)) {
      std::vector<uint8_t> packed = unit.Pack();
      auto unpacked = RawDataUnit::Unpack(packed);
      ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
      auto raw = archive::Decompress(packed);
      ASSERT_TRUE(raw.ok());
      auto fits = archive::FitsFile::Parse(raw.value());
      ASSERT_TRUE(fits.ok());
      const archive::FitsHdu* hdu = fits.value().FindHdu("PHOTONS");
      ASSERT_NE(hdu, nullptr);
      auto reference = ReferenceDecodePhotons(hdu->data);
      ASSERT_TRUE(reference.ok());
      ExpectSamePhotons(unpacked.value().photons, reference.value());
    }
  }
}

TEST(PhotonCodecTest, TruncationsFlipsAndOverlongVarintsMatchReference) {
  PhotonList photons;
  Rng rng(8);
  double t = 0;
  for (int i = 0; i < 60; ++i) {
    t += rng.Uniform(0, i % 7 == 0 ? 4000 : 0.01);  // 1..4 byte deltas
    PhotonEvent p;
    p.time_sec = t;
    p.energy_kev = static_cast<float>(rng.Uniform(3, 20000));
    p.detector = static_cast<uint8_t>(rng.UniformInt(0, 8));
    p.segment = static_cast<uint8_t>(rng.UniformInt(0, 1));
    photons.push_back(p);
  }
  std::vector<uint8_t> stream = EncodePhotons(photons);
  // Every truncation crosses both the fast path and the checked tail.
  for (size_t size = 0; size <= stream.size(); ++size) {
    SCOPED_TRACE(size);
    ExpectDecodersAgree(
        std::vector<uint8_t>(stream.begin(), stream.begin() + size));
  }
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> flipped = stream;
    size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(flipped.size()) - 1));
    flipped[at] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    SCOPED_TRACE(trial);
    ExpectDecodersAgree(flipped);
  }
  // An overlong varint (a run of 0xff) at every position, in the fast
  // path and in the checked tail.
  for (size_t at = 5; at + 11 <= stream.size(); ++at) {
    std::vector<uint8_t> overlong = stream;
    std::fill_n(overlong.begin() + at, 11, 0xff);
    SCOPED_TRACE(at);
    ASSERT_FALSE(DecodePhotons(overlong).ok());
    ExpectDecodersAgree(overlong);
  }
}

TEST(PhotonCodecTest, HostileCountRejectedBeforeAllocating) {
  // A count no payload could hold must fail cleanly, not size a
  // multi-exabyte vector.
  for (uint64_t n : {uint64_t{1} << 62, uint64_t{1} << 40, uint64_t{4}}) {
    ByteBuffer buf;
    buf.PutU32(0x48504831);
    buf.PutVarint(n);
    for (int i = 0; i < 9; ++i) buf.PutU8(0x01);  // room for 3 records
    auto decoded = DecodePhotons(buf.data());
    ASSERT_FALSE(decoded.ok()) << n;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(PhotonTest, CountInWindow) {
  PhotonList photons;
  for (int i = 0; i < 100; ++i) {
    PhotonEvent p;
    p.time_sec = i;
    p.energy_kev = static_cast<float>(10 + i);
    photons.push_back(p);
  }
  EXPECT_EQ(CountInWindow(photons, 10, 20, 0, 1e9), 10);
  EXPECT_EQ(CountInWindow(photons, 0, 100, 50, 60), 10);
  EXPECT_EQ(CountInWindow(photons, 200, 300, 0, 1e9), 0);
}

TEST(TelemetryTest, DeterministicFromSeed) {
  TelemetryOptions options;
  options.duration_sec = 200;
  options.seed = 77;
  Telemetry a = GenerateTelemetry(options);
  Telemetry b = GenerateTelemetry(options);
  ASSERT_EQ(a.photons.size(), b.photons.size());
  EXPECT_EQ(a.truth.size(), b.truth.size());
  for (size_t i = 0; i < std::min<size_t>(a.photons.size(), 100); ++i) {
    EXPECT_DOUBLE_EQ(a.photons[i].time_sec, b.photons[i].time_sec);
  }
}

TEST(TelemetryTest, PhotonsAreTimeSortedAndInRange) {
  TelemetryOptions options;
  options.duration_sec = 600;
  options.seed = 3;
  Telemetry t = GenerateTelemetry(options);
  ASSERT_FALSE(t.photons.empty());
  double prev = -1;
  for (const PhotonEvent& p : t.photons) {
    EXPECT_GE(p.time_sec, prev);
    prev = p.time_sec;
    EXPECT_GE(p.energy_kev, kMinEnergyKev);
    EXPECT_LE(p.energy_kev, kMaxEnergyKev * 1.001);
    EXPECT_LT(p.detector, kNumCollimators);
  }
}

TEST(TelemetryTest, BackgroundRateApproximatelyCorrect) {
  TelemetryOptions options;
  options.duration_sec = 1000;
  options.background_rate = 50;
  options.flares_per_hour = 0;
  options.grbs_per_hour = 0;
  options.saa_per_hour = 0;
  options.seed = 11;
  Telemetry t = GenerateTelemetry(options);
  double rate = static_cast<double>(t.photons.size()) / options.duration_sec;
  EXPECT_NEAR(rate, 50.0, 2.5);
}

TEST(TelemetryTest, SaaWindowsAreEmpty) {
  TelemetryOptions options;
  options.duration_sec = 2000;
  options.saa_per_hour = 4;
  options.seed = 5;
  Telemetry t = GenerateTelemetry(options);
  bool found_saa = false;
  for (const InjectedEvent& e : t.truth) {
    if (e.kind != EventKind::kSaaTransit) continue;
    found_saa = true;
    EXPECT_EQ(CountInWindow(t.photons, e.t_start, e.t_end, 0, 1e9), 0)
        << "photons inside SAA window";
  }
  EXPECT_TRUE(found_saa);
}

TEST(TelemetryTest, FlaresRaiseLocalRate) {
  TelemetryOptions options;
  options.duration_sec = 1200;
  options.flares_per_hour = 6;
  options.grbs_per_hour = 0;
  options.saa_per_hour = 0;
  options.seed = 9;
  Telemetry t = GenerateTelemetry(options);
  for (const InjectedEvent& e : t.truth) {
    if (e.kind != EventKind::kFlare) continue;
    double mid = e.t_start + (e.t_end - e.t_start) * 0.2;
    double local_rate =
        static_cast<double>(CountInWindow(t.photons, mid - 5, mid + 5, 0,
                                          1e9)) / 10.0;
    EXPECT_GT(local_rate, options.background_rate * 1.5)
        << "flare at " << e.t_start;
  }
}

TEST(RawUnitTest, FitsRoundTrip) {
  TelemetryOptions options;
  options.duration_sec = 60;
  options.seed = 2;
  Telemetry t = GenerateTelemetry(options);
  RawDataUnit unit;
  unit.unit_id = 7;
  unit.t_start = 0;
  unit.t_stop = 60;
  unit.calibration_version = 2;
  unit.photons = t.photons;

  auto restored = RawDataUnit::FromFits(unit.ToFits());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().unit_id, 7);
  EXPECT_EQ(restored.value().calibration_version, 2);
  EXPECT_EQ(restored.value().photons.size(), unit.photons.size());
}

TEST(RawUnitTest, PackUnpackCompresses) {
  TelemetryOptions options;
  options.duration_sec = 120;
  options.seed = 4;
  Telemetry t = GenerateTelemetry(options);
  RawDataUnit unit;
  unit.unit_id = 1;
  unit.photons = t.photons;
  std::vector<uint8_t> packed = unit.Pack();
  auto restored = RawDataUnit::Unpack(packed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().photons.size(), unit.photons.size());
}

TEST(RawUnitTest, PhotonCountMismatchIsCorruption) {
  RawDataUnit unit;
  unit.unit_id = 1;
  unit.photons.push_back(PhotonEvent{1.0, 10.0f, 0, 0});
  archive::FitsFile fits = unit.ToFits();
  fits.primary().SetCard("NPHOTONS", "999", "");
  EXPECT_EQ(RawDataUnit::FromFits(fits).status().code(),
            StatusCode::kCorruption);
}

TEST(RawUnitTest, SegmentationCutsOnTimeAxis) {
  PhotonList photons;
  for (int i = 0; i < 1050; ++i) {
    photons.push_back(PhotonEvent{static_cast<double>(i), 10.0f, 0, 0});
  }
  auto units = SegmentIntoUnits(photons, 500, 10);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0].unit_id, 10);
  EXPECT_EQ(units[2].unit_id, 12);
  EXPECT_EQ(units[0].photons.size(), 500u);
  EXPECT_EQ(units[2].photons.size(), 50u);
  EXPECT_LE(units[0].t_stop, units[1].t_start);
}

TEST(EventDetectTest, FindsInjectedFlares) {
  TelemetryOptions options;
  options.duration_sec = 3600;
  options.flares_per_hour = 5;
  options.grbs_per_hour = 0;
  options.saa_per_hour = 0;
  options.seed = 21;
  Telemetry t = GenerateTelemetry(options);
  auto detected = DetectEvents(t.photons);
  EXPECT_GE(DetectionRecall(t.truth, detected), 0.8);
}

TEST(EventDetectTest, SeparatesGrbsFromFlares) {
  TelemetryOptions options;
  options.duration_sec = 3600;
  options.flares_per_hour = 2;
  options.grbs_per_hour = 4;
  options.saa_per_hour = 0;
  options.seed = 33;
  Telemetry t = GenerateTelemetry(options);
  auto detected = DetectEvents(t.photons);
  int grbs = 0;
  for (const DetectedEvent& d : detected) {
    if (d.kind == EventKind::kGammaRayBurst) ++grbs;
  }
  EXPECT_GT(grbs, 0);
  EXPECT_GE(DetectionRecall(t.truth, detected), 0.6);
}

TEST(EventDetectTest, QuietPeriodsDetected) {
  // Pure background with a dead stretch.
  PhotonList photons;
  Rng rng(1);
  for (double t = 0; t < 2000; t += rng.Exponential(1.0 / 50.0)) {
    if (t > 800 && t < 1400) continue;  // quiet stretch
    photons.push_back(PhotonEvent{t, 20.0f, 0, 0});
  }
  auto detected = DetectEvents(photons);
  bool found_quiet = false;
  for (const DetectedEvent& d : detected) {
    if (d.kind == EventKind::kQuiet && d.t_start >= 700 && d.t_end <= 1500) {
      found_quiet = true;
    }
  }
  EXPECT_TRUE(found_quiet);
}

// Detection depends on the photons, not on where the mission clock
// stood: the same photons an hour later yield the same events an hour
// later. (Binning from t = 0 used to turn the leading empty hour into a
// zero median background and a quiet event outside the photons' span.)
TEST(EventDetectTest, ShiftedPhotonsShiftEventsOnly) {
  TelemetryOptions options;
  options.duration_sec = 1800;
  options.flares_per_hour = 8;
  options.saa_per_hour = 0;
  options.seed = 21;
  Telemetry t = GenerateTelemetry(options);
  std::vector<DetectedEvent> base = DetectEvents(t.photons);
  ASSERT_FALSE(base.empty());
  PhotonList shifted = t.photons;
  for (PhotonEvent& p : shifted) p.time_sec += 3600.0;
  std::vector<DetectedEvent> moved = DetectEvents(shifted);
  ASSERT_EQ(moved.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(moved[i].kind, base[i].kind) << "event " << i;
    EXPECT_NEAR(moved[i].t_start, base[i].t_start + 3600.0, 1e-6);
    EXPECT_NEAR(moved[i].t_end, base[i].t_end + 3600.0, 1e-6);
    EXPECT_EQ(moved[i].photon_count, base[i].photon_count);
    EXPECT_EQ(moved[i].peak_rate, base[i].peak_rate);
    EXPECT_DOUBLE_EQ(moved[i].peak_energy_kev, base[i].peak_energy_kev);
  }
}

TEST(EventDetectTest, EmptyInput) {
  EXPECT_TRUE(DetectEvents({}).empty());
}

TEST(CalibrationTest, IdentityByDefault) {
  CalibrationTable table;
  EXPECT_EQ(table.LatestVersion(), 1);
  PhotonList photons = {PhotonEvent{1.0, 100.0f, 3, 0}};
  auto r = table.Recalibrate(photons, 1, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ(r.value()[0].energy_kev, 100.0f);
}

TEST(CalibrationTest, RecalibrationAppliesGainAndOffset) {
  CalibrationTable table;
  CalibrationVersion v2;
  v2.version = 2;
  v2.description = "gain drift correction";
  for (int d = 0; d < kNumCollimators; ++d) {
    v2.gain[d] = 1.05;
    v2.offset_kev[d] = 0.5;
  }
  ASSERT_TRUE(table.Register(v2).ok());
  EXPECT_EQ(table.LatestVersion(), 2);

  PhotonList photons = {PhotonEvent{1.0, 100.0f, 0, 0}};
  auto r = table.Recalibrate(photons, 1, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value()[0].energy_kev, 100.0 * 1.05 + 0.5, 1e-3);

  // Recalibrating back is the inverse.
  auto back = table.Recalibrate(r.value(), 2, 1);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(back.value()[0].energy_kev, 100.0, 1e-3);
}

TEST(CalibrationTest, RejectsBadVersions) {
  CalibrationTable table;
  CalibrationVersion dup;
  dup.version = 1;
  EXPECT_EQ(table.Register(dup).code(), StatusCode::kAlreadyExists);
  CalibrationVersion zero_gain;
  zero_gain.version = 3;
  zero_gain.gain[4] = 0;
  EXPECT_EQ(table.Register(zero_gain).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(table.Get(99).status().IsNotFound());
  EXPECT_FALSE(table.Recalibrate({}, 1, 99).ok());
}

}  // namespace
}  // namespace hedc::rhessi
