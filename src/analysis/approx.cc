#include "analysis/approx.h"

#include <algorithm>
#include <cmath>

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
  answer.error_bound = info.SumErrorBound(answer.bins);
  return answer;
}

ReservoirSampler::ReservoirSampler(size_t capacity, uint64_t seed)
    : capacity_(std::max<size_t>(capacity, 1)), rng_(seed) {
  sample_.reserve(capacity_);
}

void ReservoirSampler::Add(double position, double value) {
  ++seen_;
  if (sample_.size() < capacity_) {
    sample_.emplace_back(position, value);
    return;
  }
  // Vitter's algorithm R: keep each of the `seen_` items with equal
  // probability capacity / seen.
  size_t slot = static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(seen_) - 1));
  if (slot < capacity_) sample_[slot] = {position, value};
}

template <typename Fn>
ApproxAnswer ReservoirSampler::Estimate(Fn contribution) const {
  ApproxAnswer answer;
  if (sample_.empty()) return answer;
  double k = static_cast<double>(sample_.size());
  double total = static_cast<double>(seen_);
  double sum = 0, sum_sq = 0;
  for (const auto& item : sample_) {
    double c = contribution(item);
    sum += c;
    sum_sq += c * c;
  }
  double mean = sum / k;
  answer.estimate = mean * total;
  answer.bins = sample_.size();
  if (sample_.size() > 1 && seen_ > sample_.size()) {
    double variance = std::max(0.0, (sum_sq - k * mean * mean) / (k - 1));
    double fpc = (total - k) / (total - 1);  // finite-population correction
    double se_mean = std::sqrt(variance / k * fpc);
    answer.error_bound = 2.0 * total * se_mean;
  }
  return answer;
}

ApproxAnswer ReservoirSampler::EstimateCountInRange(double lo,
                                                    double hi) const {
  return Estimate([lo, hi](const std::pair<double, double>& item) {
    return item.first >= lo && item.first < hi ? 1.0 : 0.0;
  });
}

ApproxAnswer ReservoirSampler::EstimateSumInRange(double lo, double hi) const {
  return Estimate([lo, hi](const std::pair<double, double>& item) {
    return item.first >= lo && item.first < hi ? item.second : 0.0;
  });
}

}  // namespace hedc::analysis
