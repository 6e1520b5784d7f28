#include "wavelet/codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/bytes.h"
#include "wavelet/haar.h"

namespace hedc::wavelet {

namespace {
constexpr uint32_t kCodec2dMagic = 0x48575632;      // "HWV2"
constexpr uint32_t kProgressiveMagic = 0x48575634;  // "HWV4"

// Streams travel over HTTP now, so header lengths are attacker
// controlled: cap the coefficient-array allocation before trusting a
// decoded varint (4M doubles = 32 MB, far above any real view).
constexpr uint64_t kMaxPaddedLen = 1ull << 22;
// The same cap for a 2-D stream's padded pixel count (64M doubles).
constexpr uint64_t kMaxPaddedPixels = 64ull << 20;

bool IsPow2(uint64_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Coefficients a `fraction` decode reads out of `num`: everything for
// fraction >= 1 (or NaN), none for fraction <= 0, else at least one.
size_t CoefficientBudget(double fraction, size_t num) {
  if (!(fraction < 1.0)) return num;
  if (!(fraction > 0)) return 0;
  size_t take =
      static_cast<size_t>(std::ceil(fraction * static_cast<double>(num)));
  return std::max<size_t>(take, 1);
}

// Resolution level of a coefficient index in the fully-decomposed Haar
// layout: index 0 is the scaling (DC) coefficient (level 0); detail
// level l >= 1 occupies indices [2^(l-1), 2^l).
// That is the index's bit width: floor(log2(index)) + 1, and 0 for 0.
size_t LevelOfIndex(size_t index) { return std::bit_width(index); }

size_t LevelCount(size_t padded_len) {
  size_t levels = 1;
  while ((1ull << (levels - 1)) < padded_len) ++levels;
  return levels;  // log2(padded_len) + 1
}

// A coefficient magnitude bound in one header byte: code b stands for
// (quant_step / 2) * 2^((b + 1) / 4), a quarter-octave scale whose top
// code is quant_step * 2^63, the largest magnitude the int64 quantizer
// can store. The encoder picks the smallest code whose value (computed
// by this same function) is >= the magnitude, so the decoder's bound
// is never below it.
double MagnitudeCodeValue(uint8_t code, double quant_step) {
  static const double kQuarterOctave[4] = {1.0, 1.189207115002721,
                                           1.4142135623730951,
                                           1.681792830507429};
  int steps = code + 1;
  return std::ldexp(quant_step / 2 * kQuarterOctave[steps % 4], steps / 4);
}

uint8_t MagnitudeCode(double magnitude, double quant_step) {
  double octaves = std::log2(magnitude / (quant_step / 2));
  int code = std::isfinite(octaves)
                 ? static_cast<int>(std::clamp(std::ceil(4 * octaves) - 1,
                                               0.0, 255.0))
                 : (octaves > 0 ? 255 : 0);
  while (code < 255 && MagnitudeCodeValue(code, quant_step) < magnitude) {
    ++code;
  }
  while (code > 0 && MagnitudeCodeValue(code - 1, quant_step) >= magnitude) {
    --code;
  }
  return static_cast<uint8_t>(code);
}

struct Entry {
  uint32_t index;
  double value;
};

}  // namespace

std::vector<uint8_t> EncodeSignalProgressive(const std::vector<double>& signal,
                                             const CodecOptions& options) {
  std::vector<double> coeffs = signal;
  size_t original_len = coeffs.size();
  PadToPow2(&coeffs);
  HaarForward(&coeffs);
  size_t padded_len = coeffs.size();
  size_t num_levels = LevelCount(padded_len);

  // Threshold/quantization survivors, plus the magnitude bounds the
  // header carries: each level's largest |coefficient| and the largest
  // one dropped anywhere.
  std::vector<Entry> entries;
  entries.reserve(coeffs.size());
  std::vector<double> level_max(num_levels, 0.0);
  double dropped_max = 0;
  for (size_t i = 0; i < coeffs.size(); ++i) {
    double magnitude = std::fabs(coeffs[i]);
    double& level = level_max[LevelOfIndex(i)];
    level = std::max(level, magnitude);
    if (magnitude >= options.threshold &&
        magnitude >= options.quant_step / 2) {
      entries.push_back({static_cast<uint32_t>(i), coeffs[i]});
    } else {
      dropped_max = std::max(dropped_max, magnitude);
    }
  }
  // Level-major order; best-first (decreasing magnitude) within a level
  // so even a prefix that splits a level is the best prefix of that
  // length. Index is the tiebreak for a deterministic stream.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              size_t la = LevelOfIndex(a.index), lb = LevelOfIndex(b.index);
              if (la != lb) return la < lb;
              double ma = std::fabs(a.value), mb = std::fabs(b.value);
              if (ma != mb) return ma > mb;
              return a.index < b.index;
            });

  // Payload first: per-level record counts and end offsets feed the
  // header's table.
  ByteBuffer payload;
  std::vector<uint64_t> level_counts(num_levels, 0);
  std::vector<uint64_t> level_ends(num_levels, 0);
  size_t cursor = 0;
  for (size_t level = 0; level < num_levels; ++level) {
    while (cursor < entries.size() &&
           LevelOfIndex(entries[cursor].index) == level) {
      const Entry& e = entries[cursor];
      payload.PutVarint(e.index);
      payload.PutSignedVarint(
          static_cast<int64_t>(std::llround(e.value / options.quant_step)));
      ++level_counts[level];
      ++cursor;
    }
    level_ends[level] = payload.size();
  }

  ByteBuffer out;
  out.PutU32(kProgressiveMagic);
  out.PutVarint(original_len);
  out.PutVarint(padded_len);
  out.PutF64(options.quant_step);
  out.PutU8(MagnitudeCode(dropped_max, options.quant_step));
  out.PutVarint(entries.size());
  out.PutVarint(num_levels);
  for (size_t level = 0; level < num_levels; ++level) {
    out.PutVarint(level_counts[level]);
    out.PutVarint(level_ends[level]);
    out.PutU8(MagnitudeCode(level_max[level], options.quant_step));
  }
  out.PutBytes(payload.data().data(), payload.size());
  return std::move(out).TakeData();
}

namespace {

// HWV4 header plus the derived payload geometry.
struct ProgressiveHeader {
  size_t original_len = 0;
  size_t padded_len = 0;
  double quant_step = 0;
  double dropped_max = 0;  // bound on every coefficient dropped at encode
  size_t num_coeffs = 0;
  size_t num_levels = 0;
  std::vector<uint64_t> level_counts;
  std::vector<uint64_t> level_ends;  // payload-relative byte offsets
  std::vector<double> level_max;     // bound on every |coefficient|
  size_t header_bytes = 0;           // stream offset where payload starts
};

Status ReadProgressiveHeader(ByteReader* reader, ProgressiveHeader* h) {
  uint32_t magic = 0;
  HEDC_RETURN_IF_ERROR(reader->GetU32(&magic));
  if (magic != kProgressiveMagic) {
    return Status::Corruption("not a progressive wavelet stream (bad magic)");
  }
  uint64_t original_len = 0, padded_len = 0, num_coeffs = 0, num_levels = 0;
  uint8_t code = 0;
  HEDC_RETURN_IF_ERROR(reader->GetVarint(&original_len));
  HEDC_RETURN_IF_ERROR(reader->GetVarint(&padded_len));
  HEDC_RETURN_IF_ERROR(reader->GetF64(&h->quant_step));
  HEDC_RETURN_IF_ERROR(reader->GetU8(&code));
  HEDC_RETURN_IF_ERROR(reader->GetVarint(&num_coeffs));
  HEDC_RETURN_IF_ERROR(reader->GetVarint(&num_levels));
  if (padded_len == 0 || padded_len > kMaxPaddedLen || !IsPow2(padded_len) ||
      padded_len < original_len || !std::isfinite(h->quant_step) ||
      h->quant_step <= 0) {
    return Status::Corruption("progressive stream header invalid");
  }
  if (num_levels != LevelCount(padded_len) || num_coeffs > padded_len) {
    return Status::Corruption("progressive stream geometry invalid");
  }
  h->original_len = original_len;
  h->padded_len = padded_len;
  h->dropped_max = MagnitudeCodeValue(code, h->quant_step);
  h->num_coeffs = num_coeffs;
  h->num_levels = num_levels;
  h->level_counts.resize(num_levels);
  h->level_ends.resize(num_levels);
  h->level_max.resize(num_levels);
  uint64_t total_count = 0;
  uint64_t prev_end = 0;
  for (size_t l = 0; l < num_levels; ++l) {
    HEDC_RETURN_IF_ERROR(reader->GetVarint(&h->level_counts[l]));
    HEDC_RETURN_IF_ERROR(reader->GetVarint(&h->level_ends[l]));
    HEDC_RETURN_IF_ERROR(reader->GetU8(&code));
    h->level_max[l] = MagnitudeCodeValue(code, h->quant_step);
    // Level l has at most 2^(l-1) coefficients (1 for level 0).
    uint64_t capacity = l == 0 ? 1 : (1ull << (l - 1));
    if (h->level_counts[l] > capacity || h->level_ends[l] < prev_end) {
      return Status::Corruption("progressive level table invalid");
    }
    total_count += h->level_counts[l];
    prev_end = h->level_ends[l];
  }
  if (total_count != num_coeffs || prev_end / 2 < num_coeffs) {
    return Status::Corruption("progressive level table inconsistent");
  }
  h->header_bytes = reader->position();
  return Status::Ok();
}

// Fills the bound half of `info`: which levels arrived whole, and each
// coefficient's error bound (see PrefixInfo::coefficient_error).
void FillErrorBounds(const ProgressiveHeader& header,
                     const std::vector<bool>& decoded,
                     const std::vector<uint64_t>& level_decoded,
                     const std::vector<double>& level_last,
                     PrefixInfo* info) {
  double half_step = header.quant_step / 2;
  std::vector<double> missing(header.num_levels);
  info->levels_complete = 0;
  bool complete_so_far = true;
  for (size_t l = 0; l < header.num_levels; ++l) {
    bool complete = level_decoded[l] >= header.level_counts[l];
    double bound = header.level_max[l];
    if (complete) {
      bound = std::min(bound, header.dropped_max);
    } else if (level_decoded[l] > 0) {
      bound = std::min(bound, level_last[l] + half_step);
    }
    missing[l] = bound;
    complete_so_far = complete_so_far && complete;
    if (complete_so_far) info->levels_complete = l + 1;
  }
  info->level_max = header.level_max;
  info->coefficient_error.resize(header.padded_len);
  for (size_t i = 0; i < header.padded_len; ++i) {
    info->coefficient_error[i] =
        decoded[i] ? half_step : missing[LevelOfIndex(i)];
  }
}

Result<std::vector<double>> DecodeProgressive(const uint8_t* data,
                                              size_t size, size_t max_coeffs,
                                              PrefixInfo* info) {
  ByteReader reader(data, size);
  ProgressiveHeader header;
  HEDC_RETURN_IF_ERROR(ReadProgressiveHeader(&reader, &header));

  size_t payload_total = header.level_ends.empty()
                             ? 0
                             : static_cast<size_t>(header.level_ends.back());
  // Stop at whichever comes first: the prefix boundary or the declared
  // end of the payload (trailing junk past it is never parsed). When the
  // whole stream is present a parse failure is corruption; in a shorter
  // prefix a record split by the boundary is the expected tail of a
  // truncated delivery and decoding simply stops there.
  bool full_stream = size >= header.header_bytes + payload_total;
  size_t limit = std::min(size, header.header_bytes + payload_total);

  std::vector<double> coeffs(header.padded_len, 0.0);
  // Bound bookkeeping, only when asked for: which indices arrived, and
  // per level how many records and the last (smallest) magnitude.
  std::vector<bool> decoded_at;
  std::vector<uint64_t> level_decoded;
  std::vector<double> level_last;
  if (info != nullptr) {
    decoded_at.assign(header.padded_len, false);
    level_decoded.assign(header.num_levels, 0);
    level_last.assign(header.num_levels, 0.0);
  }
  size_t decoded = 0;
  while (decoded < max_coeffs && decoded < header.num_coeffs &&
         reader.position() < limit) {
    uint64_t index = 0;
    int64_t quantized = 0;
    if (!reader.GetVarint(&index).ok() ||
        !reader.GetSignedVarint(&quantized).ok() ||
        reader.position() > limit) {
      if (full_stream) {
        return Status::Corruption("progressive coefficient record invalid");
      }
      break;
    }
    if (index >= header.padded_len) {
      return Status::Corruption("wavelet coefficient index out of range");
    }
    double value = static_cast<double>(quantized) * header.quant_step;
    coeffs[index] = value;
    if (info != nullptr) {
      size_t level = LevelOfIndex(index);
      decoded_at[index] = true;
      ++level_decoded[level];
      level_last[level] = std::fabs(value);
    }
    ++decoded;
  }
  if (full_stream && max_coeffs >= header.num_coeffs &&
      decoded < header.num_coeffs) {
    return Status::Corruption("progressive payload short of coefficients");
  }

  if (info != nullptr) {
    info->original_len = header.original_len;
    info->padded_len = header.padded_len;
    info->coeffs_total = header.num_coeffs;
    info->coeffs_decoded = decoded;
    info->levels_total = header.num_levels;
    info->prefix_bytes = std::min(size, header.header_bytes + payload_total);
    info->full_bytes = header.header_bytes + payload_total;
    info->quant_step = header.quant_step;
    FillErrorBounds(header, decoded_at, level_decoded, level_last, info);
  }

  HaarInverse(&coeffs);
  coeffs.resize(header.original_len);
  return coeffs;
}

}  // namespace

Result<std::vector<double>> DecodeSignal(const std::vector<uint8_t>& stream,
                                         double fraction) {
  ByteReader peek(stream);
  ProgressiveHeader header;
  HEDC_RETURN_IF_ERROR(ReadProgressiveHeader(&peek, &header));
  return DecodeProgressive(stream.data(), stream.size(),
                           CoefficientBudget(fraction, header.num_coeffs),
                           nullptr);
}

Result<std::vector<double>> DecodeSignalPrefix(const uint8_t* data,
                                               size_t size,
                                               PrefixInfo* info) {
  return DecodeProgressive(data, size, static_cast<size_t>(-1), info);
}

namespace {

// Number of bins [a, b) and [c, d) share.
double Overlap(size_t a, size_t b, size_t c, size_t d) {
  size_t lo = std::max(a, c), hi = std::min(b, d);
  return hi > lo ? static_cast<double>(hi - lo) : 0.0;
}

}  // namespace

double PrefixInfo::RangeSumErrorBound(size_t from, size_t to) const {
  to = std::min(to, padded_len);
  if (from >= to) return 0;
  double n = static_cast<double>(to - from);
  double len = static_cast<double>(padded_len);
  // The scaling coefficient's basis is 1/sqrt(N) on every bin; `path`
  // accumulates, level by level, a bound on any bin's
  // sum_k |c_k| |psi_k(i)| (every bin lies in one support per level).
  double bound = coefficient_error[0] * n / std::sqrt(len);
  double path = (level_max[0] + quant_step) / std::sqrt(len);
  for (size_t level = 1; level < levels_total; ++level) {
    size_t width = padded_len >> (level - 1);
    size_t half = width / 2;
    size_t first = size_t{1} << (level - 1);
    double norm = 1 / std::sqrt(static_cast<double>(width));
    path += (level_max[level] + quant_step) * norm;
    // Supports wholly inside [from, to) sum to zero against the range;
    // only the ones holding `from` or `to - 1` can straddle it.
    size_t lo = from / width, hi = (to - 1) / width;
    for (size_t j : {lo, hi}) {
      size_t start = j * width, mid = start + half;
      double plus = Overlap(from, to, start, mid);
      double minus = Overlap(from, to, mid, start + width);
      bound += coefficient_error[first + j] * std::fabs(plus - minus) * norm;
      if (hi == lo) break;
    }
  }
  // Floating point: the encoder's forward transform and the decoder's
  // inverse each leave every bin off by at most ~3L ulps of `path`
  // (L butterfly steps), the forward error spreads over the L + 1
  // supports holding a bin, and summing n bins adds n ulps per bin. The
  // bound's own arithmetic is covered by the relative term.
  double eps = std::numeric_limits<double>::epsilon();
  double levels = static_cast<double>(levels_total) + 1;
  return bound * (1 + 4 * levels * eps) +
         eps * n * path * (3 * levels * levels + n);
}

Result<size_t> ResolutionLevels(const std::vector<uint8_t>& stream) {
  ByteReader reader(stream);
  ProgressiveHeader header;
  HEDC_RETURN_IF_ERROR(ReadProgressiveHeader(&reader, &header));
  return header.num_levels;
}

Result<size_t> PrefixBytesForLevel(const std::vector<uint8_t>& stream,
                                   size_t level) {
  ByteReader reader(stream);
  ProgressiveHeader header;
  HEDC_RETURN_IF_ERROR(ReadProgressiveHeader(&reader, &header));
  if (level >= header.num_levels) level = header.num_levels - 1;
  size_t bytes =
      header.header_bytes + static_cast<size_t>(header.level_ends[level]);
  return std::min(bytes, stream.size());
}

Result<std::vector<uint8_t>> SlicePrefixForLevel(
    const std::vector<uint8_t>& stream, size_t level) {
  HEDC_ASSIGN_OR_RETURN(size_t bytes, PrefixBytesForLevel(stream, level));
  return std::vector<uint8_t>(stream.begin(),
                              stream.begin() + static_cast<int64_t>(bytes));
}

Result<size_t> CoefficientCount(const std::vector<uint8_t>& stream) {
  ByteReader reader(stream);
  ProgressiveHeader header;
  HEDC_RETURN_IF_ERROR(ReadProgressiveHeader(&reader, &header));
  return header.num_coeffs;
}

std::vector<uint8_t> EncodeImage2d(const std::vector<double>& pixels,
                                   size_t width, size_t height,
                                   const CodecOptions& options) {
  size_t pw = NextPow2(std::max<size_t>(width, 1));
  size_t ph = NextPow2(std::max<size_t>(height, 1));
  std::vector<double> padded(pw * ph, 0.0);
  for (size_t y = 0; y < height; ++y) {
    for (size_t x = 0; x < width; ++x) {
      padded[y * pw + x] = pixels[y * width + x];
    }
    // Step-extend rows.
    for (size_t x = width; x < pw; ++x) {
      padded[y * pw + x] = width > 0 ? pixels[y * width + width - 1] : 0;
    }
  }
  for (size_t y = height; y < ph; ++y) {
    for (size_t x = 0; x < pw; ++x) {
      padded[y * pw + x] = height > 0 ? padded[(height - 1) * pw + x] : 0;
    }
  }
  Haar2dForward(&padded, ph, pw);

  struct Entry2d {
    uint32_t index;
    double value;
  };
  std::vector<Entry2d> entries;
  entries.reserve(padded.size());
  for (size_t i = 0; i < padded.size(); ++i) {
    if (std::fabs(padded[i]) >= options.threshold &&
        std::fabs(padded[i]) >= options.quant_step / 2) {
      entries.push_back({static_cast<uint32_t>(i), padded[i]});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry2d& a, const Entry2d& b) {
              return std::fabs(a.value) > std::fabs(b.value);
            });

  ByteBuffer out;
  out.PutU32(kCodec2dMagic);
  out.PutVarint(width);
  out.PutVarint(height);
  out.PutVarint(pw);
  out.PutVarint(ph);
  out.PutF64(options.quant_step);
  out.PutVarint(entries.size());
  for (const Entry2d& e : entries) {
    out.PutVarint(e.index);
    out.PutSignedVarint(
        static_cast<int64_t>(std::llround(e.value / options.quant_step)));
  }
  return std::move(out).TakeData();
}

Result<std::vector<double>> DecodeImage2d(const std::vector<uint8_t>& stream,
                                          double fraction, size_t* width,
                                          size_t* height) {
  ByteReader reader(stream);
  uint32_t magic = 0;
  HEDC_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kCodec2dMagic) {
    return Status::Corruption("not a 2-D wavelet stream (bad magic)");
  }
  uint64_t w = 0, h = 0, pw = 0, ph = 0, num = 0;
  double quant_step = 0;
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&w));
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&h));
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&pw));
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&ph));
  HEDC_RETURN_IF_ERROR(reader.GetF64(&quant_step));
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&num));
  // Bound each padded side before multiplying them: a hostile pair such
  // as 2^62 x 4 would otherwise wrap the product past the pixel cap.
  if (!IsPow2(pw) || !IsPow2(ph) || pw > kMaxPaddedPixels ||
      ph > kMaxPaddedPixels || pw * ph > kMaxPaddedPixels || pw < w ||
      ph < h || quant_step <= 0 || !std::isfinite(quant_step)) {
    return Status::Corruption("2-D wavelet stream header invalid");
  }
  if (num > pw * ph || num * 2 > reader.remaining()) {
    return Status::Corruption("2-D coefficient count exceeds stream");
  }
  size_t take = CoefficientBudget(fraction, num);
  std::vector<double> coeffs(pw * ph, 0.0);
  for (size_t i = 0; i < take; ++i) {
    uint64_t index = 0;
    int64_t quantized = 0;
    HEDC_RETURN_IF_ERROR(reader.GetVarint(&index));
    HEDC_RETURN_IF_ERROR(reader.GetSignedVarint(&quantized));
    if (index >= pw * ph) {
      return Status::Corruption("2-D coefficient index out of range");
    }
    coeffs[index] = static_cast<double>(quantized) * quant_step;
  }
  Haar2dInverse(&coeffs, ph, pw);
  std::vector<double> pixels(w * h, 0.0);
  for (size_t y = 0; y < h; ++y) {
    for (size_t x = 0; x < w; ++x) {
      pixels[y * w + x] = coeffs[y * pw + x];
    }
  }
  *width = w;
  *height = h;
  return pixels;
}

double RelativeL2Error(const std::vector<double>& reference,
                       const std::vector<double>& approximation) {
  double err = 0, norm = 0;
  size_t n = std::min(reference.size(), approximation.size());
  for (size_t i = 0; i < n; ++i) {
    double d = reference[i] - approximation[i];
    err += d * d;
    norm += reference[i] * reference[i];
  }
  for (size_t i = n; i < reference.size(); ++i) {
    err += reference[i] * reference[i];
    norm += reference[i] * reference[i];
  }
  if (norm == 0) return err == 0 ? 0.0 : 1.0;
  return std::sqrt(err / norm);
}

}  // namespace hedc::wavelet
