// Unit tests for src/core: status, strings, bytes, crc, rng, config,
// clocks, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/bytes.h"
#include "core/clock.h"
#include "core/config.h"
#include "core/content_hash.h"
#include "core/crc32.h"
#include "core/ids.h"
#include "core/logging.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/strings.h"
#include "core/thread_pool.h"

namespace hedc {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("tuple 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: tuple 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(r.value_or(9), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Timeout("idl server"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout());
  EXPECT_EQ(r.value_or(9), 9);
}

Status FailingHelper() { return Status::Corruption("boom"); }

Status UsesReturnIfError() {
  HEDC_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kCorruption);
}

Result<int> Doubler(Result<int> in) {
  HEDC_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturn) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_FALSE(Doubler(Status::Internal("x")).ok());
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto pieces = Split("a,,b,", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
  EXPECT_EQ(pieces[3], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("hedc"), "HEDC");
  EXPECT_TRUE(EqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(EqualsIgnoreCase("WHERE", "wher"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hle_12", "hle_"));
  EXPECT_FALSE(StartsWith("h", "hle_"));
  EXPECT_TRUE(EndsWith("file.fits", ".fits"));
  EXPECT_FALSE(EndsWith("fits", ".fits"));
}

TEST(StringsTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64(" 42 ", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("4x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5e2", &v));
  EXPECT_DOUBLE_EQ(v, 350.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteBuffer buf;
  buf.PutU8(0xab);
  buf.PutU32(0xdeadbeef);
  buf.PutI64(-123456789);
  buf.PutF64(3.25);
  ByteReader r(buf.data());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetF64(&f64).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(i64, -123456789);
  EXPECT_DOUBLE_EQ(f64, 3.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintRoundTrip) {
  ByteBuffer buf;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1ull << 40,
                             ~0ull};
  for (uint64_t v : values) buf.PutVarint(v);
  ByteReader r(buf.data());
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(r.GetVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(BytesTest, SignedVarintRoundTrip) {
  ByteBuffer buf;
  const int64_t values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : values) buf.PutSignedVarint(v);
  ByteReader r(buf.data());
  for (int64_t v : values) {
    int64_t got;
    ASSERT_TRUE(r.GetSignedVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(BytesTest, StringRoundTrip) {
  ByteBuffer buf;
  buf.PutString("hello");
  buf.PutString("");
  ByteReader r(buf.data());
  std::string a, b;
  ASSERT_TRUE(r.GetString(&a).ok());
  ASSERT_TRUE(r.GetString(&b).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
}

TEST(BytesTest, TruncationIsCorruption) {
  ByteBuffer buf;
  buf.PutU32(7);
  ByteReader r(buf.data());
  uint64_t v;
  EXPECT_EQ(r.GetU64(&v).code(), StatusCode::kCorruption);
}

TEST(BytesTest, TruncatedStringIsCorruption) {
  ByteBuffer buf;
  buf.PutVarint(100);  // claims 100 bytes, provides none
  ByteReader r(buf.data());
  std::string s;
  EXPECT_EQ(r.GetString(&s).code(), StatusCode::kCorruption);
}

TEST(Crc32Test, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (standard check value).
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xcbf43926u);
}

// Bytewise bit-at-a-time CRC-32: the oracle for the sliced kernel.
uint32_t ReferenceCrc32(const uint8_t* data, size_t n, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length 0..4096 from every start offset 0..7 covers each
  // alignment of the 8-byte main loop and every tail length.
  Rng rng(32);
  std::vector<uint8_t> buf(4096 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      uint32_t seed = static_cast<uint32_t>(len * 2654435761u);
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                ReferenceCrc32(buf.data() + offset, len, 0))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32(buf.data() + offset, len, seed),
                ReferenceCrc32(buf.data() + offset, len, seed))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, SeedChainsAcrossEverySplit) {
  Rng rng(33);
  std::vector<uint8_t> buf(1031);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32(buf);
  for (size_t split = 0; split <= buf.size(); ++split) {
    uint32_t head = Crc32(buf.data(), split);
    ASSERT_EQ(Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32Test, DetectsChange) {
  std::vector<uint8_t> data(100, 7);
  uint32_t base = Crc32(data);
  data[50] ^= 1;
  EXPECT_NE(Crc32(data), base);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(5, 10);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, PoissonMean) {
  Rng rng(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(3.0));
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(ConfigTest, ParseAndAccess) {
  auto r = Config::Parse(
      "# comment\n"
      "archive.root = /data/hedc\n"
      "pool.size = 8\n"
      "wavelet.enabled = true\n"
      "threshold = 2.5\n");
  ASSERT_TRUE(r.ok());
  const Config& c = r.value();
  EXPECT_EQ(c.GetString("archive.root"), "/data/hedc");
  EXPECT_EQ(c.GetInt("pool.size"), 8);
  EXPECT_TRUE(c.GetBool("wavelet.enabled"));
  EXPECT_DOUBLE_EQ(c.GetDouble("threshold"), 2.5);
  EXPECT_EQ(c.GetString("missing", "dflt"), "dflt");
}

TEST(ConfigTest, RejectsMalformedLine) {
  EXPECT_FALSE(Config::Parse("novalue\n").ok());
  EXPECT_FALSE(Config::Parse("= x\n").ok());
}

TEST(ConfigTest, RoundTrip) {
  Config c;
  c.Set("a", "1");
  c.Set("b", "two");
  auto parsed = Config::Parse(c.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetString("b"), "two");
}

TEST(ClockTest, VirtualClockAdvances) {
  VirtualClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.SleepFor(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.Set(1000);
  EXPECT_EQ(clock.Now(), 1000);
}

TEST(ClockTest, RealClockMonotonic) {
  RealClock* clock = RealClock::Instance();
  Micros a = clock->Now();
  Micros b = clock->Now();
  EXPECT_LE(a, b);
}

TEST(IdGeneratorTest, MonotonicAndAdvancable) {
  IdGenerator gen(10);
  EXPECT_EQ(gen.Next(), 10);
  EXPECT_EQ(gen.Next(), 11);
  gen.AdvancePast(100);
  EXPECT_EQ(gen.Next(), 101);
  gen.AdvancePast(5);  // no-op, already past
  EXPECT_EQ(gen.Next(), 102);
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
}

TEST(BoundedQueueTest, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Close();
  auto v = q.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_FALSE(q.Push(9));
}

TEST(LoggingTest, SinkCapturesMessages) {
  std::vector<std::string> captured;
  auto prev = Logger::Instance()->SetSink(
      [&captured](LogLevel, const std::string& m) { captured.push_back(m); });
  HEDC_LOG(kInfo) << "loaded " << 3 << " units";
  Logger::Instance()->SetSink(prev);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "loaded 3 units");
}

TEST(LoggingTest, MinLevelFilters) {
  std::vector<std::string> captured;
  auto prev = Logger::Instance()->SetSink(
      [&captured](LogLevel, const std::string& m) { captured.push_back(m); });
  Logger::Instance()->SetMinLevel(LogLevel::kError);
  HEDC_LOG(kInfo) << "dropped";
  HEDC_LOG(kError) << "kept";
  Logger::Instance()->SetMinLevel(LogLevel::kInfo);
  Logger::Instance()->SetSink(prev);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "kept");
}

// Regression: SetSink used to copy the sink outside the lock, so a swap
// could destroy a sink while another thread was invoking it. The sink now
// runs under the logger mutex; swapping sinks while other threads log must
// never drop, duplicate, or tear a message.
TEST(LoggingTest, StressSinkSwapUnderConcurrentLogging) {
  constexpr int kThreads = 4;
  constexpr int kMessagesPerThread = 2000;
  constexpr int kSwaps = 200;
  std::atomic<int64_t> delivered{0};
  auto counting_sink = [&delivered](LogLevel, const std::string& m) {
    // A torn/destroyed sink would crash or mangle the payload here.
    ASSERT_EQ(m, "tick");
    delivered.fetch_add(1, std::memory_order_relaxed);
  };
  auto prev = Logger::Instance()->SetSink(counting_sink);

  std::atomic<bool> stop{false};
  std::vector<std::thread> loggers;
  for (int t = 0; t < kThreads; ++t) {
    loggers.emplace_back([] {
      for (int i = 0; i < kMessagesPerThread; ++i) HEDC_LOG(kInfo) << "tick";
    });
  }
  std::thread swapper([&] {
    int swaps = 0;
    while (!stop.load(std::memory_order_relaxed) && swaps < kSwaps) {
      // Every installed sink counts into the same atomic, so the total
      // stays exact no matter which one a given Log call lands on.
      Logger::Instance()->SetSink(counting_sink);
      ++swaps;
    }
  });
  for (auto& t : loggers) t.join();
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
  Logger::Instance()->SetSink(prev);

  EXPECT_EQ(delivered.load(), kThreads * kMessagesPerThread);
}

TEST(ContentHashTest, EmptyInputIsOffsetBasis) {
  EXPECT_EQ(Fnv1a64(""), kFnv1a64OffsetBasis);
  EXPECT_EQ(Fnv1a64(static_cast<const void*>(nullptr), 0),
            kFnv1a64OffsetBasis);
}

TEST(ContentHashTest, KnownVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(Fnv1a64("hello"), 0xa430d84680aabd0bull);
}

TEST(ContentHashTest, SeedChainingEqualsConcatenation) {
  // Hashing "xyz" is the same as hashing "x" then chaining "yz" through
  // the seed parameter — the property incremental key-builders rely on.
  uint64_t chained = Fnv1a64("yz", Fnv1a64("x"));
  EXPECT_EQ(chained, Fnv1a64("xyz"));
  EXPECT_EQ(Fnv1a64(std::string_view("yz"), Fnv1a64("x")), chained);
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
}

TEST(ContentHashTest, StringViewAndPointerOverloadsAgree) {
  const char kData[] = "calibration=2;routine=imaging";
  EXPECT_EQ(Fnv1a64(std::string_view(kData)),
            Fnv1a64(static_cast<const void*>(kData), sizeof(kData) - 1));
}

}  // namespace
}  // namespace hedc
