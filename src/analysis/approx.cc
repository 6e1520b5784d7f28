#include "analysis/approx.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "core/strings.h"
#include "wavelet/codec.h"

namespace hedc::analysis {

Result<ApproxAnswer> ApproxSumFromPrefix(const uint8_t* data, size_t size,
                                         double range_lo_frac,
                                         double range_hi_frac) {
  if (!std::isfinite(range_lo_frac) || !std::isfinite(range_hi_frac)) {
    return Status::InvalidArgument("approximate range must be finite");
  }
  if (range_hi_frac < range_lo_frac) {
    return Status::InvalidArgument("inverted approximate range");
  }
  range_lo_frac = std::clamp(range_lo_frac, 0.0, 1.0);
  range_hi_frac = std::clamp(range_hi_frac, 0.0, 1.0);

  wavelet::PrefixInfo info;
  HEDC_ASSIGN_OR_RETURN(std::vector<double> bins,
                        wavelet::DecodeSignalPrefix(data, size, &info));

  ApproxAnswer answer;
  answer.bytes_read = info.prefix_bytes;
  if (bins.empty()) return answer;
  double n = static_cast<double>(bins.size());
  size_t from = static_cast<size_t>(std::floor(range_lo_frac * n));
  size_t to = static_cast<size_t>(std::ceil(range_hi_frac * n));
  from = std::min(from, bins.size());
  to = std::min(to, bins.size());
  for (size_t b = from; b < to; ++b) answer.estimate += bins[b];
  answer.bins = to > from ? to - from : 0;
  answer.error_bound = info.RangeSumErrorBound(from, to);
  return answer;
}

PrintedAnswer PrintSixDecimals(const ApproxAnswer& answer) {
  PrintedAnswer printed;
  printed.estimate = StrFormat("%.6f", answer.estimate);
  if (answer.error_bound == 0) {
    printed.error_bound = "0.000000";
    return printed;
  }
  double need = answer.error_bound +
                std::fabs(std::strtod(printed.estimate.c_str(), nullptr) -
                          answer.estimate);
  double micros = std::ceil(need * 1e6);
  if (micros / 1e6 < need) micros += 1;  // need * 1e6 rounded down
  printed.error_bound = StrFormat("%.6f", micros / 1e6);
  return printed;
}

}  // namespace hedc::analysis
