// Approximate COUNT / SUM answers for dashboard-style range queries
// (§3.4/§6.3: "most questions are answered approximately from small
// derived summaries rather than raw data").
//
// ApproxSumFromPrefix answers from a progressive wavelet stream prefix.
// The ± bars weigh each coefficient that can still be wrong by how much
// its basis function overlaps the range — at most two per level
// straddle an endpoint — using the per-level coefficient maxima in the
// stream header (PrefixInfo::RangeSumErrorBound in codec.h), so
// |true - estimate| <= error_bound always holds against the original
// binned signal.
#ifndef HEDC_ANALYSIS_APPROX_H_
#define HEDC_ANALYSIS_APPROX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace hedc::analysis {

struct ApproxAnswer {
  double estimate = 0;
  double error_bound = 0;  // deterministic; 0 for an exact answer
  size_t bins = 0;         // bins (or photons, when exact) contributing
  size_t bytes_read = 0;   // encoded bytes consumed
};

// Sum of the binned signal over the half-open domain fraction
// [range_lo_frac, range_hi_frac) of [0, 1), reconstructed from the first
// `size` bytes of a progressive (HWV4) wavelet stream. This is the one
// place that turns a view prefix into a range sum with a bound. Fractions
// are clamped to [0, 1]; a non-finite or inverted pair is
// InvalidArgument.
Result<ApproxAnswer> ApproxSumFromPrefix(const uint8_t* data, size_t size,
                                         double range_lo_frac,
                                         double range_hi_frac);

// An answer as /approx prints it, six decimals each: the estimate
// rounded to nearest, and the bound widened by that rounding and rounded
// *up*, so the printed interval holds the computed one. An exact answer
// keeps bound 0.
struct PrintedAnswer {
  std::string estimate;
  std::string error_bound;
};
PrintedAnswer PrintSixDecimals(const ApproxAnswer& answer);

}  // namespace hedc::analysis

#endif  // HEDC_ANALYSIS_APPROX_H_
