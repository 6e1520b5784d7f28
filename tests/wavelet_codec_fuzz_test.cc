// Decode fuzzing for the wavelet codec: hostile bytes reach DecodeSignal
// straight off the wire (progressive /view prefixes, client caches), so
// every decode path must fail with kCorruption — never crash, hang, or
// allocate unbounded memory — under truncation, bit flips, and crafted
// hostile length fields.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "core/bytes.h"
#include "wavelet/codec.h"

namespace hedc::wavelet {
namespace {

// Any decode result is acceptable as long as it is an explicit error or
// a sanely-sized reconstruction; the codec caps padded_len at 2^22 so a
// hostile header can never provoke a multi-GB allocation.
constexpr size_t kMaxReasonableOutput = 1u << 22;

void ExpectSaneDecode(const std::vector<uint8_t>& bytes) {
  auto one_d = DecodeSignal(bytes, 1.0);
  if (one_d.ok()) {
    EXPECT_LE(one_d.value().size(), kMaxReasonableOutput);
  }
  PrefixInfo info;
  auto prefix = DecodeSignalPrefix(bytes.data(), bytes.size(), &info);
  if (prefix.ok()) {
    EXPECT_LE(prefix.value().size(), kMaxReasonableOutput);
    EXPECT_LE(info.coeffs_decoded, info.coeffs_total);
  }
  size_t w = 0, h = 0;
  auto two_d = DecodeImage2d(bytes, 1.0, &w, &h);
  if (two_d.ok()) {
    EXPECT_LE(two_d.value().size(), kMaxReasonableOutput);
  }
  auto count = CoefficientCount(bytes);
  if (count.ok()) {
    EXPECT_LE(count.value(), kMaxReasonableOutput);
  }
}

std::vector<double> RandomSignal(Rng* rng, size_t n) {
  std::vector<double> signal(n);
  for (auto& v : signal) v = rng->Uniform(-100, 100);
  return signal;
}

TEST(CodecFuzzTest, TruncationAtEveryByte) {
  Rng rng(101);
  std::vector<double> signal = RandomSignal(&rng, 300);
  for (const std::vector<uint8_t>& stream :
       {EncodeSignalProgressive(signal), EncodeImage2d(signal, 30, 10)}) {
    for (size_t size = 0; size < stream.size(); ++size) {
      std::vector<uint8_t> truncated(stream.begin(),
                                     stream.begin() + size);
      ExpectSaneDecode(truncated);
    }
  }
}

// HWV3 is the only 1-D format: a well-formed stream in the retired
// magnitude-ordered HWV1 layout is refused by every 1-D entry point, not
// decoded.
TEST(CodecFuzzTest, LegacyHwv1MagicIsCorruption) {
  ByteBuffer buf;
  buf.PutU32(0x48575631);  // "HWV1"
  buf.PutVarint(4);        // original_len
  buf.PutVarint(4);        // padded_len
  buf.PutF64(1e-6);        // quant_step
  buf.PutVarint(1);        // one coefficient record:
  buf.PutVarint(0);        //   index 0 (DC)
  buf.PutSignedVarint(1000000);
  std::vector<uint8_t> legacy = buf.data();

  auto decoded = DecodeSignal(legacy, 1.0);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  auto count = CoefficientCount(legacy);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kCorruption);
  auto prefix = DecodeSignalPrefix(legacy);
  ASSERT_FALSE(prefix.ok());
  EXPECT_EQ(prefix.status().code(), StatusCode::kCorruption);
}

// HWV4 replaced HWV3 (energy totals gave way to per-level maxima). Every
// ingest and recalibration rebuilds the stored views, so a stream in the
// retired layout is refused, never decoded with a wrong bound.
TEST(CodecFuzzTest, RetiredHwv3StreamIsCorruption) {
  ByteBuffer buf;
  buf.PutU32(0x48575633);  // "HWV3"
  buf.PutVarint(1);        // original_len
  buf.PutVarint(1);        // padded_len
  buf.PutF64(1e-6);        // quant_step
  buf.PutF64(1.0);         // retained energy
  buf.PutF64(0.0);         // dropped energy
  buf.PutVarint(1);        // one coefficient,
  buf.PutVarint(1);        // one level:
  buf.PutVarint(1);        //   count
  buf.PutVarint(4);        //   end offset
  buf.PutVarint(0);        // record: index 0 (DC),
  buf.PutSignedVarint(1000000);
  std::vector<uint8_t> retired = buf.data();

  auto decoded = DecodeSignal(retired, 1.0);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  auto count = CoefficientCount(retired);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kCorruption);
  auto prefix = DecodeSignalPrefix(retired);
  ASSERT_FALSE(prefix.ok());
  EXPECT_EQ(prefix.status().code(), StatusCode::kCorruption);
}

// The header ends with the last level's maximum byte, so the shortest
// decodable prefix is the whole header, and a cut anywhere before it —
// inside the maxima included — is kCorruption, not a decode with a
// made-up bound.
TEST(CodecFuzzTest, TruncatedLevelMaximaAreCorruption) {
  Rng rng(108);
  std::vector<uint8_t> stream =
      EncodeSignalProgressive(RandomSignal(&rng, 64));
  size_t header = 0;
  while (header < stream.size() &&
         !DecodeSignalPrefix(stream.data(), header).ok()) {
    ++header;
  }
  // Magic, quant_step and seven (count, end, maximum) entries at least.
  ASSERT_GE(header, 4u + 8u + 7u * 3u);
  ASSERT_LT(header, stream.size());
  for (size_t size = 0; size < header; ++size) {
    auto decoded = DecodeSignalPrefix(stream.data(), size);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "header cut at " << size;
  }
}

// A maximum is a code byte, not a float: no byte value stands for a
// non-finite or negative bound. Every code decodes, and its bound is
// finite and positive.
TEST(CodecFuzzTest, EveryLevelMaximumCodeGivesAFiniteBound) {
  for (int code = 0; code < 256; ++code) {
    ByteBuffer buf;
    buf.PutU32(0x48575634);  // "HWV4"
    buf.PutVarint(2);        // original_len
    buf.PutVarint(2);        // padded_len
    buf.PutF64(1e-6);        // quant_step
    buf.PutU8(static_cast<uint8_t>(code));  // dropped maximum
    buf.PutVarint(0);        // no coefficients
    buf.PutVarint(2);        // two levels, each: count, end, maximum
    for (int level = 0; level < 2; ++level) {
      buf.PutVarint(0);
      buf.PutVarint(0);
      buf.PutU8(static_cast<uint8_t>(code));
    }
    PrefixInfo info;
    auto decoded = DecodeSignalPrefix(buf.data(), &info);
    ASSERT_TRUE(decoded.ok()) << "code " << code;
    double bound = info.RangeSumErrorBound(0, 2);
    EXPECT_TRUE(std::isfinite(bound)) << "code " << code;
    EXPECT_GT(bound, 0) << "code " << code;
  }
}

TEST(CodecFuzzTest, BitFlipsNeverCrash) {
  Rng rng(103);
  std::vector<double> signal = RandomSignal(&rng, 400);
  std::vector<std::vector<uint8_t>> streams = {
      EncodeSignalProgressive(signal), EncodeImage2d(signal, 20, 20)};
  for (const auto& stream : streams) {
    for (int round = 0; round < 400; ++round) {
      std::vector<uint8_t> mutated = stream;
      int flips = static_cast<int>(rng.UniformInt(1, 8));
      for (int f = 0; f < flips; ++f) {
        size_t byte = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
        mutated[byte] ^= static_cast<uint8_t>(
            1u << rng.UniformInt(0, 7));
      }
      ExpectSaneDecode(mutated);
    }
  }
}

TEST(CodecFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(104);
  for (int round = 0; round < 500; ++round) {
    std::vector<uint8_t> garbage(
        static_cast<size_t>(rng.UniformInt(0, 600)));
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    ExpectSaneDecode(garbage);
  }
}

// Streams whose headers *parse* but declare hostile lengths: giant
// padded_len, coefficient counts exceeding the payload, non-power-of-2
// sizes. The decoder must reject on the header alone — before any
// payload-sized allocation.
TEST(CodecFuzzTest, HostileLengthFieldsRejected) {
  Rng rng(105);
  std::vector<uint8_t> valid = EncodeSignalProgressive(
      RandomSignal(&rng, 128));

  auto craft = [&](uint64_t original, uint64_t padded,
                   uint64_t num_coeffs) {
    ByteBuffer buf;
    buf.PutBytes(valid.data(), 4);  // real magic
    buf.PutVarint(original);
    buf.PutVarint(padded);
    buf.PutF64(1e-6);  // quant_step
    buf.PutU8(0);      // dropped-coefficient maximum
    buf.PutVarint(num_coeffs);
    buf.PutVarint(1);  // num_levels
    buf.PutVarint(num_coeffs);
    buf.PutVarint(2 * num_coeffs);
    buf.PutU8(0);      // level maximum
    return buf.data();
  };

  // padded_len far past the 2^22 cap: must fail without allocating.
  ExpectSaneDecode(craft(1ull << 40, 1ull << 40, 4));
  EXPECT_FALSE(
      DecodeSignalPrefix(craft(1ull << 40, 1ull << 40, 4)).ok());
  // Non-power-of-two padded_len.
  EXPECT_FALSE(DecodeSignalPrefix(craft(100, 100, 4)).ok());
  // More coefficients than bins.
  EXPECT_FALSE(DecodeSignalPrefix(craft(64, 64, 1 << 20)).ok());
  // original_len larger than padded_len.
  EXPECT_FALSE(DecodeSignalPrefix(craft(256, 64, 4)).ok());

  // The same hostile headers through the fraction-decoding entry point.
  for (auto& hostile :
       {craft(1ull << 40, 1ull << 40, 4), craft(100, 100, 4),
        craft(64, 64, 1 << 20)}) {
    auto decoded = DecodeSignal(hostile, 1.0);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }

  // HWV2 (2-D) headers with hostile padded sides: pw * ph = 2^62 * 4
  // wraps to 0 in 64 bits, and a side that is not a power of two cannot
  // be the padded extent of any image.
  auto craft_2d = [](uint64_t w, uint64_t h, uint64_t pw, uint64_t ph) {
    ByteBuffer buf;
    buf.PutU32(0x48575632);  // "HWV2"
    buf.PutVarint(w);
    buf.PutVarint(h);
    buf.PutVarint(pw);
    buf.PutVarint(ph);
    buf.PutF64(1.0);  // quant_step
    buf.PutVarint(0);  // no coefficients
    return buf.data();
  };
  for (auto& hostile : {craft_2d(1, 1, 1ull << 62, 4), craft_2d(3, 1, 3, 1),
                        craft_2d(5, 2, 4, 2)}) {
    size_t w = 0, h = 0;
    auto decoded = DecodeImage2d(hostile, 1.0, &w, &h);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

// Level tables that lie: counts that do not sum, offsets that run
// backwards, per-level counts exceeding the level's capacity.
TEST(CodecFuzzTest, InconsistentLevelTablesRejected) {
  Rng rng(106);
  std::vector<uint8_t> valid =
      EncodeSignalProgressive(RandomSignal(&rng, 64));

  auto craft = [&](const std::vector<std::pair<uint64_t, uint64_t>>&
                       levels,
                   uint64_t num_coeffs) {
    ByteBuffer buf;
    buf.PutBytes(valid.data(), 4);
    buf.PutVarint(64);   // original_len
    buf.PutVarint(64);   // padded_len
    buf.PutF64(1e-6);
    buf.PutU8(0);
    buf.PutVarint(num_coeffs);
    buf.PutVarint(levels.size());
    for (auto [count, end] : levels) {
      buf.PutVarint(count);
      buf.PutVarint(end);
      buf.PutU8(0);
    }
    return buf.data();
  };

  // 64 bins => exactly 7 levels; any other count is corrupt.
  EXPECT_FALSE(DecodeSignalPrefix(craft({{1, 2}}, 1)).ok());
  // Level 1 holds one detail coefficient; claiming 50 is corrupt.
  std::vector<std::pair<uint64_t, uint64_t>> overfull(7, {0, 0});
  overfull[0] = {1, 2};
  overfull[1] = {50, 102};
  EXPECT_FALSE(DecodeSignalPrefix(craft(overfull, 51)).ok());
  // Offsets running backwards.
  std::vector<std::pair<uint64_t, uint64_t>> backwards(7, {0, 10});
  backwards[0] = {1, 20};
  backwards[1] = {1, 5};
  EXPECT_FALSE(DecodeSignalPrefix(craft(backwards, 2)).ok());
}

// Sustained random-mutation soak across every decode entry point —
// the long-haul lane for the sanitizer builds.
TEST(CodecFuzzStress, MutationSoak) {
  Rng rng(107);
  for (int round = 0; round < 3000; ++round) {
    size_t n = static_cast<size_t>(rng.UniformInt(1, 700));
    std::vector<double> signal = RandomSignal(&rng, n);
    size_t width = static_cast<size_t>(rng.UniformInt(1, 32));
    std::vector<uint8_t> stream =
        (round % 2 == 0) ? EncodeSignalProgressive(signal)
                         : EncodeImage2d(signal, width, n / width);
    // Mutate: truncate, flip, or splice.
    switch (rng.UniformInt(0, 2)) {
      case 0:
        stream.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(stream.size()))));
        break;
      case 1:
        for (int f = 0; f < 16 && !stream.empty(); ++f) {
          stream[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(stream.size()) - 1))] ^=
              static_cast<uint8_t>(rng.UniformInt(1, 255));
        }
        break;
      default:
        if (stream.size() > 8) {
          size_t at = static_cast<size_t>(rng.UniformInt(
              4, static_cast<int64_t>(stream.size()) - 1));
          stream.insert(stream.begin() + static_cast<long>(at),
                        static_cast<uint8_t>(rng.UniformInt(0, 255)));
        }
        break;
    }
    ExpectSaneDecode(stream);
  }
}

}  // namespace
}  // namespace hedc::wavelet
