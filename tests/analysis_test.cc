// Analysis routines and products.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/approx.h"
#include "analysis/routine.h"
#include "core/rng.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"
#include "wavelet/codec.h"

namespace hedc::analysis {
namespace {

rhessi::PhotonList MakePhotons(size_t n, double duration = 100.0) {
  rhessi::PhotonList photons;
  for (size_t i = 0; i < n; ++i) {
    rhessi::PhotonEvent p;
    p.time_sec = duration * static_cast<double>(i) / static_cast<double>(n);
    p.energy_kev = 3.0f + static_cast<float>(i % 200);
    p.detector = static_cast<uint8_t>(i % rhessi::kNumCollimators);
    photons.push_back(p);
  }
  return photons;
}

TEST(ParamsTest, TypedAccessorsAndCanonical) {
  AnalysisParams params;
  params.SetDouble("t_start", 1.5);
  params.SetInt("bins", 32);
  params.Set("note", "x");
  EXPECT_DOUBLE_EQ(params.GetDouble("t_start", 0), 1.5);
  EXPECT_EQ(params.GetInt("bins", 0), 32);
  EXPECT_EQ(params.Get("note"), "x");
  EXPECT_EQ(params.GetInt("missing", -7), -7);
  EXPECT_EQ(params.Canonical(), "bins=32;note=x;t_start=1.5");
}

TEST(RegistryTest, StandardRoutinesPresent) {
  auto registry = CreateStandardRegistry();
  auto names = registry->Names();
  EXPECT_EQ(names.size(), 4u);
  EXPECT_NE(registry->Get("imaging"), nullptr);
  EXPECT_NE(registry->Get("lightcurve"), nullptr);
  EXPECT_NE(registry->Get("spectrogram"), nullptr);
  EXPECT_NE(registry->Get("histogram"), nullptr);
  EXPECT_EQ(registry->Get("nonexistent"), nullptr);
}

class CountingRoutine : public AnalysisRoutine {
 public:
  std::string name() const override { return "user_counting"; }
  Result<AnalysisProduct> Run(const rhessi::PhotonList& photons,
                              const AnalysisParams&) const override {
    AnalysisProduct p;
    p.routine = name();
    p.metadata["count"] = std::to_string(photons.size());
    return p;
  }
  double EstimateWorkUnits(size_t n, const AnalysisParams&) const override {
    return static_cast<double>(n);
  }
};

TEST(RegistryTest, UserSubmittedRoutineRegisters) {
  auto registry = CreateStandardRegistry();
  registry->Register(std::make_unique<CountingRoutine>());
  ASSERT_NE(registry->Get("user_counting"), nullptr);
  auto product = registry->Get("user_counting")->Run(MakePhotons(5), {});
  ASSERT_TRUE(product.ok());
  EXPECT_EQ(product.value().metadata.at("count"), "5");
}

TEST(LightcurveTest, BinsCountsCorrectly) {
  auto registry = CreateStandardRegistry();
  rhessi::PhotonList photons = MakePhotons(1000, 100.0);  // 10/s uniform
  AnalysisParams params;
  params.SetDouble("bin_sec", 10.0);
  auto r = registry->Get("lightcurve")->Run(photons, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value().series.has_value());
  const Series& s = *r.value().series;
  ASSERT_EQ(s.y.size(), 10u);
  for (double count : s.y) EXPECT_NEAR(count, 100.0, 1.0);
  EXPECT_FALSE(r.value().rendered.empty());
}

TEST(LightcurveTest, WindowSelection) {
  auto registry = CreateStandardRegistry();
  rhessi::PhotonList photons = MakePhotons(1000, 100.0);
  AnalysisParams params;
  params.SetDouble("t_start", 50.0);
  params.SetDouble("t_end", 60.0);
  auto r = registry->Get("lightcurve")->Run(photons, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().metadata.at("photons"), "100");
}

TEST(LightcurveTest, RejectsBadBin) {
  auto registry = CreateStandardRegistry();
  AnalysisParams params;
  params.SetDouble("bin_sec", -1.0);
  EXPECT_FALSE(registry->Get("lightcurve")->Run(MakePhotons(10), params).ok());
}

TEST(HistogramTest, TotalCountPreserved) {
  auto registry = CreateStandardRegistry();
  rhessi::PhotonList photons = MakePhotons(5000);
  AnalysisParams params;
  params.SetInt("bins", 32);
  auto r = registry->Get("histogram")->Run(photons, params);
  ASSERT_TRUE(r.ok());
  double total = 0;
  for (double y : r.value().series->y) total += y;
  EXPECT_DOUBLE_EQ(total, 5000.0);
}

TEST(HistogramTest, RejectsBadBins) {
  auto registry = CreateStandardRegistry();
  AnalysisParams params;
  params.SetInt("bins", 0);
  EXPECT_FALSE(registry->Get("histogram")->Run(MakePhotons(10), params).ok());
}

TEST(SpectrogramTest, ProducesImageWithAllCounts) {
  auto registry = CreateStandardRegistry();
  rhessi::PhotonList photons = MakePhotons(2000);
  AnalysisParams params;
  params.SetInt("t_bins", 32);
  params.SetInt("e_bins", 16);
  auto r = registry->Get("spectrogram")->Run(photons, params);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().image.has_value());
  const Image& img = *r.value().image;
  EXPECT_EQ(img.width, 32u);
  EXPECT_EQ(img.height, 16u);
  EXPECT_DOUBLE_EQ(img.TotalFlux(), 2000.0);
}

TEST(ImagingTest, PointSourceReconstruction) {
  // Photons whose arrival phases modulate consistently with a single
  // source; back-projection should produce a peaked image.
  auto registry = CreateStandardRegistry();
  rhessi::TelemetryOptions options;
  options.duration_sec = 40;
  options.background_rate = 200;
  options.flares_per_hour = 0;
  options.grbs_per_hour = 0;
  options.saa_per_hour = 0;
  options.seed = 13;
  rhessi::Telemetry t = rhessi::GenerateTelemetry(options);
  AnalysisParams params;
  params.SetInt("pixels", 16);
  auto r = registry->Get("imaging")->Run(t.photons, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value().image.has_value());
  EXPECT_EQ(r.value().image->width, 16u);
  EXPECT_GT(r.value().image->MaxPixel(), 0.0);
  EXPECT_FALSE(r.value().rendered.empty());
}

TEST(ImagingTest, CostScalesWithPixels) {
  auto registry = CreateStandardRegistry();
  const AnalysisRoutine* imaging = registry->Get("imaging");
  AnalysisParams small, large;
  small.SetInt("pixels", 16);
  large.SetInt("pixels", 64);
  EXPECT_GT(imaging->EstimateWorkUnits(1000, large),
            10 * imaging->EstimateWorkUnits(1000, small));
}

TEST(ImagingTest, RejectsBadPixelCount) {
  auto registry = CreateStandardRegistry();
  AnalysisParams params;
  params.SetInt("pixels", 100000);
  EXPECT_FALSE(registry->Get("imaging")->Run(MakePhotons(10), params).ok());
}

TEST(RenderTest, ImageRoundTrip) {
  Image img;
  img.width = 8;
  img.height = 4;
  img.pixels.resize(32);
  for (size_t i = 0; i < img.pixels.size(); ++i) {
    img.pixels[i] = static_cast<double>(i);
  }
  auto parsed = ParseRenderedImage(RenderImage(img));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().width, 8u);
  EXPECT_EQ(parsed.value().height, 4u);
  // 8-bit quantization over range [0,31]: error <= range/255.
  for (size_t i = 0; i < img.pixels.size(); ++i) {
    EXPECT_NEAR(parsed.value().pixels[i], img.pixels[i], 31.0 / 255.0 + 1e-9);
  }
}

TEST(RenderTest, ConstantImage) {
  Image img;
  img.width = 4;
  img.height = 4;
  img.pixels.assign(16, 3.0);
  auto parsed = ParseRenderedImage(RenderImage(img));
  ASSERT_TRUE(parsed.ok());
  for (double p : parsed.value().pixels) EXPECT_DOUBLE_EQ(p, 3.0);
}

TEST(RenderTest, SeriesRenders) {
  Series s;
  for (int i = 0; i < 100; ++i) {
    s.x.push_back(i);
    s.y.push_back(std::sin(i * 0.1));
  }
  std::vector<uint8_t> bytes = RenderSeries(s);
  EXPECT_FALSE(bytes.empty());
  auto parsed = ParseRenderedImage(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().width, 256u);
}

TEST(RenderTest, BadBytesRejected) {
  EXPECT_FALSE(ParseRenderedImage({1, 2, 3}).ok());
}

// --- error-bounded approximate aggregates ------------------------------

TEST(ApproxTest, ApproxSumFromPrefixWithinBound) {
  Rng rng(41);
  std::vector<double> signal(512);
  for (auto& v : signal) v = rng.Uniform(0, 50);
  signal[100] = 4000;  // a flare spike the coarse levels must bound
  std::vector<uint8_t> stream = wavelet::EncodeSignalProgressive(signal);

  for (size_t level : {0u, 3u, 6u, 9u}) {
    auto prefix = wavelet::SlicePrefixForLevel(stream, level);
    ASSERT_TRUE(prefix.ok());
    for (auto [lo, hi] : std::initializer_list<std::pair<double, double>>{
             {0.0, 1.0}, {0.25, 0.75}, {0.1953125, 0.1972656}}) {
      auto answer = ApproxSumFromPrefix(prefix.value().data(),
                                        prefix.value().size(), lo, hi);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      size_t lo_bin = static_cast<size_t>(lo * 512.0);
      size_t hi_bin = static_cast<size_t>(std::ceil(hi * 512.0));
      double exact = 0;
      for (size_t i = lo_bin; i < hi_bin; ++i) exact += signal[i];
      EXPECT_LE(std::abs(answer.value().estimate - exact),
                answer.value().error_bound + 1e-6)
          << "level " << level << " range [" << lo << "," << hi << "]";
      EXPECT_EQ(answer.value().bins, hi_bin - lo_bin);
      EXPECT_GT(answer.value().bytes_read, 0u);
    }
  }

  // The full stream answers exactly (up to quantization).
  auto exact_answer =
      ApproxSumFromPrefix(stream.data(), stream.size(), 0.0, 1.0);
  ASSERT_TRUE(exact_answer.ok());
  double total = 0;
  for (double v : signal) total += v;
  EXPECT_NEAR(exact_answer.value().estimate, total, 1e-2);

  // Out-of-range fractions clamp; inverted ranges are errors.
  EXPECT_TRUE(
      ApproxSumFromPrefix(stream.data(), stream.size(), -5.0, 9.0).ok());
  EXPECT_FALSE(
      ApproxSumFromPrefix(stream.data(), stream.size(), 0.8, 0.2).ok());
  // Non-finite fractions are errors too: NaN passes both the ordering
  // check and std::clamp, and would reach a float-to-size_t cast.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (auto [lo, hi] : std::initializer_list<std::pair<double, double>>{
           {nan, 0.5}, {0.0, nan}, {nan, nan}, {-inf, 0.5}, {0.0, inf}}) {
    auto answer = ApproxSumFromPrefix(stream.data(), stream.size(), lo, hi);
    ASSERT_FALSE(answer.ok()) << "[" << lo << "," << hi << ")";
    EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
  }
  // Garbage bytes are a clean error.
  std::vector<uint8_t> garbage = {1, 2, 3};
  EXPECT_FALSE(ApproxSumFromPrefix(garbage.data(), garbage.size(), 0, 1).ok());
}

// /approx prints six decimals. The printed interval must hold the
// computed one, which at full resolution is only ~1e-6 wide: the bound
// absorbs the estimate's rounding and is rounded up, never to nearest.
TEST(ApproxTest, PrintedIntervalHoldsTheComputedOne) {
  Rng rng(43);
  for (int i = 0; i < 20000; ++i) {
    ApproxAnswer answer;
    answer.estimate = rng.Uniform(-1000, 1000) /
                      static_cast<double>(int64_t{1} << rng.UniformInt(0, 30));
    answer.error_bound = rng.Uniform(0, 1e-5) *
                         static_cast<double>(int64_t{1} << rng.UniformInt(0, 20));
    PrintedAnswer printed = PrintSixDecimals(answer);
    long double estimate = std::strtod(printed.estimate.c_str(), nullptr);
    long double bound = std::strtod(printed.error_bound.c_str(), nullptr);
    long double lo = static_cast<long double>(answer.estimate) -
                     answer.error_bound;
    long double hi = static_cast<long double>(answer.estimate) +
                     answer.error_bound;
    EXPECT_LE(estimate - bound, lo + 1e-15L)
        << printed.estimate << " ± " << printed.error_bound;
    EXPECT_GE(estimate + bound, hi - 1e-15L)
        << printed.estimate << " ± " << printed.error_bound;
  }
  // Rounded to nearest, this would print 0.000000 ± 0.000001, which
  // misses the computed interval's top end 1.5999e-6.
  ApproxAnswer tiny;
  tiny.estimate = 4.999e-7;
  tiny.error_bound = 1.1e-6;
  EXPECT_EQ(PrintSixDecimals(tiny).estimate, "0.000000");
  EXPECT_EQ(PrintSixDecimals(tiny).error_bound, "0.000002");
  // An exact answer keeps bound 0.
  ApproxAnswer exact;
  exact.estimate = 12.3456789;
  EXPECT_EQ(PrintSixDecimals(exact).estimate, "12.345679");
  EXPECT_EQ(PrintSixDecimals(exact).error_bound, "0.000000");
}

// The count and energy views ProcessLayer stores for a unit: 1024 bins
// over [t_start, t_stop + 1e-6).
struct UnitViews {
  std::vector<double> counts = std::vector<double>(1024, 0.0);
  std::vector<double> energies = std::vector<double>(1024, 0.0);
};

UnitViews BinUnit(const rhessi::RawDataUnit& unit) {
  UnitViews views;
  double lo = unit.t_start;
  double width = (unit.t_stop + 1e-6 - lo) / 1024.0;
  for (const rhessi::PhotonEvent& p : unit.photons) {
    size_t b = std::min<size_t>(
        static_cast<size_t>((p.time_sec - lo) / width), 1023);
    views.counts[b] += 1.0;
    views.energies[b] += p.energy_kev;
  }
  return views;
}

std::vector<rhessi::RawDataUnit> TelemetryUnits(uint64_t seed,
                                                double duration_sec,
                                                size_t photons_per_unit) {
  rhessi::TelemetryOptions options;
  options.duration_sec = duration_sec;
  options.flares_per_hour = 9;
  options.saa_per_hour = 0;
  options.seed = seed;
  return rhessi::SegmentIntoUnits(rhessi::GenerateTelemetry(options).photons,
                                  photons_per_unit);
}

// Bins [lo, hi) as /approx asks for them: fractions at mid-bin, so the
// floor/ceil in ApproxSumFromPrefix lands exactly on the bin range.
Result<ApproxAnswer> ApproxBins(const std::vector<uint8_t>& prefix,
                                size_t lo, size_t hi) {
  return ApproxSumFromPrefix(prefix.data(), prefix.size(),
                             (static_cast<double>(lo) + 0.5) / 1024.0,
                             (static_cast<double>(hi) - 0.5) / 1024.0);
}

// The bound is a theorem, so check it as a property: |estimate - exact|
// <= error_bound against the exact binned sum, over seeds, both views,
// two encodings (the stored one, and a coarse quantizer with a threshold
// so dropped coefficients and split levels matter), every level-aligned
// prefix and byte prefixes that split a level, and ranges of every shape
// that matters to the straddling-support argument.
TEST(ApproxTest, RangeBoundHoldsAcrossSeedsLevelsAndRanges) {
  wavelet::CodecOptions coarse;
  coarse.quant_step = 1e-2;
  coarse.threshold = 0.5;
  size_t checks = 0;
  for (uint64_t seed : {1u, 2u, 3u, 5u}) {
    Rng rng(seed * 7919);
    for (const rhessi::RawDataUnit& unit : TelemetryUnits(seed, 900, 60000)) {
      UnitViews views = BinUnit(unit);
      for (const std::vector<double>* signal :
           {&views.counts, &views.energies}) {
        for (const wavelet::CodecOptions& options :
             {wavelet::CodecOptions{}, coarse}) {
          std::vector<uint8_t> stream =
              wavelet::EncodeSignalProgressive(*signal, options);
          // Level-aligned prefixes, and one prefix splitting each level.
          std::vector<size_t> sizes;
          size_t previous = 0;
          for (size_t level = 0; level <= 10; ++level) {
            size_t bytes =
                wavelet::PrefixBytesForLevel(stream, level).value();
            if (level > 0) sizes.push_back((previous + bytes) / 2);
            sizes.push_back(bytes);
            previous = bytes;
          }
          for (size_t size : sizes) {
            std::vector<uint8_t> prefix(stream.begin(),
                                        stream.begin() + size);
            std::vector<std::pair<size_t, size_t>> ranges = {
                {0, 1024}, {0, 1}, {1023, 1024}, {511, 513}};
            for (int r = 0; r < 6; ++r) {
              size_t at = static_cast<size_t>(rng.UniformInt(0, 1023));
              ranges.push_back({at, at + 1});
              size_t len = static_cast<size_t>(rng.UniformInt(2, 700));
              size_t lo = static_cast<size_t>(rng.UniformInt(0, 1024 - len));
              ranges.push_back({lo, lo + len});
              // Endpoints on the support boundaries of some level.
              size_t width = size_t{1} << rng.UniformInt(1, 9);
              size_t a = width * static_cast<size_t>(
                                     rng.UniformInt(0, 1024 / width - 1));
              size_t b = width * static_cast<size_t>(
                                     rng.UniformInt(a / width + 1,
                                                    1024 / width));
              ranges.push_back({a, b});
            }
            for (auto [lo, hi] : ranges) {
              Result<ApproxAnswer> answer = ApproxBins(prefix, lo, hi);
              ASSERT_TRUE(answer.ok()) << answer.status().ToString();
              ASSERT_EQ(answer.value().bins, hi - lo);
              long double exact = 0;
              for (size_t b = lo; b < hi; ++b) exact += (*signal)[b];
              EXPECT_LE(std::fabs(static_cast<double>(
                            exact - answer.value().estimate)),
                        answer.value().error_bound)
                  << "seed " << seed << " unit " << unit.unit_id
                  << (signal == &views.counts ? " counts" : " energies")
                  << " q " << options.quant_step << " prefix " << size
                  << "/" << stream.size() << " bins [" << lo << "," << hi
                  << ")";
              ++checks;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checks, 10000u);
}

// Tight enough to be useful: at the default /approx resolution (level 3)
// the bound on ranges drawn like the dashboard workload's is well under
// a third of the answer. The whole-residual Cauchy-Schwarz bound it
// replaced sat near 0.59 here.
TEST(ApproxTest, RangeBoundIsTightAtLevelThree) {
  Rng rng(5);
  std::vector<double> ratios;
  for (const rhessi::RawDataUnit& unit : TelemetryUnits(5, 3600, 200000)) {
    UnitViews views = BinUnit(unit);
    for (const std::vector<double>* signal :
         {&views.counts, &views.energies}) {
      std::vector<uint8_t> prefix = wavelet::SlicePrefixForLevel(
          wavelet::EncodeSignalProgressive(*signal), 3).value();
      for (int r = 0; r < 60; ++r) {
        size_t len = static_cast<size_t>(rng.UniformInt(8, 512));
        size_t lo = static_cast<size_t>(rng.UniformInt(0, 1024 - len));
        Result<ApproxAnswer> answer = ApproxBins(prefix, lo, lo + len);
        ASSERT_TRUE(answer.ok());
        double exact = 0;
        for (size_t b = lo; b < lo + len; ++b) exact += (*signal)[b];
        if (exact != 0) {
          ratios.push_back(answer.value().error_bound / std::fabs(exact));
        }
      }
    }
  }
  ASSERT_GT(ratios.size(), 500u);
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  EXPECT_LE(ratios[ratios.size() / 2], 0.3);
}

}  // namespace
}  // namespace hedc::analysis
