#include "rhessi/event_detect.h"

#include <algorithm>
#include <cmath>

namespace hedc::rhessi {

std::vector<DetectedEvent> DetectEvents(const PhotonList& photons,
                                        const DetectOptions& options) {
  std::vector<DetectedEvent> out;
  if (photons.empty()) return out;

  // Bins cover the photons' own span: a unit late in the mission must
  // not bin the empty time before its first photon, which would drag the
  // median background to zero.
  double origin =
      std::floor(photons.front().time_sec / options.bin_sec) * options.bin_sec;
  double t_end = photons.back().time_sec - origin;
  size_t num_bins =
      static_cast<size_t>(std::ceil(t_end / options.bin_sec)) + 1;
  std::vector<int64_t> counts(num_bins, 0);
  std::vector<double> energy_sum(num_bins, 0.0);
  std::vector<int64_t> hard_counts(num_bins, 0);
  for (const PhotonEvent& p : photons) {
    size_t b = static_cast<size_t>(
        std::max(0.0, (p.time_sec - origin) / options.bin_sec));
    if (b >= num_bins) b = num_bins - 1;
    ++counts[b];
    energy_sum[b] += p.energy_kev;
    if (p.energy_kev > 100.0) ++hard_counts[b];
  }

  // Background estimate: median bin rate.
  std::vector<int64_t> sorted = counts;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  double background =
      static_cast<double>(sorted[sorted.size() / 2]) / options.bin_sec;
  if (background <= 0) background = 1.0 / options.bin_sec;
  double threshold = background * options.threshold_factor;
  double quiet_level = background * options.quiet_factor;

  size_t close_gap_bins = static_cast<size_t>(
      std::max(1.0, options.close_gap_sec / options.bin_sec));

  // Burst detection: open at threshold crossing, close after a sustained
  // sub-threshold gap.
  size_t i = 0;
  while (i < num_bins) {
    double rate = static_cast<double>(counts[i]) / options.bin_sec;
    if (rate <= threshold) {
      ++i;
      continue;
    }
    size_t start = i;
    size_t last_active = i;
    size_t j = i + 1;
    while (j < num_bins) {
      double r = static_cast<double>(counts[j]) / options.bin_sec;
      if (r > threshold) {
        last_active = j;
      } else if (j - last_active > close_gap_bins) {
        break;
      }
      ++j;
    }
    DetectedEvent event;
    event.t_start = origin + static_cast<double>(start) * options.bin_sec;
    event.t_end =
        origin + static_cast<double>(last_active + 1) * options.bin_sec;
    int64_t total = 0, hard = 0;
    double e_sum = 0;
    double peak = 0;
    for (size_t b = start; b <= last_active; ++b) {
      total += counts[b];
      hard += hard_counts[b];
      e_sum += energy_sum[b];
      peak = std::max(peak,
                      static_cast<double>(counts[b]) / options.bin_sec);
    }
    event.photon_count = total;
    event.peak_rate = peak;
    event.peak_energy_kev = total > 0 ? e_sum / static_cast<double>(total) : 0;
    double duration = event.t_end - event.t_start;
    double hard_fraction =
        total > 0 ? static_cast<double>(hard) / static_cast<double>(total)
                  : 0;
    event.kind = (duration <= options.grb_max_duration_sec &&
                  hard_fraction >= options.grb_hard_fraction)
                     ? EventKind::kGammaRayBurst
                     : EventKind::kFlare;
    out.push_back(event);
    i = j;
  }

  // Quiet periods: sustained stretches below quiet_level.
  size_t quiet_min_bins = static_cast<size_t>(
      options.quiet_min_duration_sec / options.bin_sec);
  size_t run_start = 0;
  bool in_run = false;
  for (size_t b = 0; b <= num_bins; ++b) {
    bool quiet = b < num_bins &&
                 static_cast<double>(counts[b]) / options.bin_sec <=
                     quiet_level;
    if (quiet && !in_run) {
      in_run = true;
      run_start = b;
    } else if (!quiet && in_run) {
      in_run = false;
      if (b - run_start >= quiet_min_bins) {
        DetectedEvent event;
        event.kind = EventKind::kQuiet;
        event.t_start =
            origin + static_cast<double>(run_start) * options.bin_sec;
        event.t_end = origin + static_cast<double>(b) * options.bin_sec;
        out.push_back(event);
      }
    }
  }

  std::sort(out.begin(), out.end(),
            [](const DetectedEvent& a, const DetectedEvent& b) {
              return a.t_start < b.t_start;
            });
  return out;
}

double DetectionRecall(const std::vector<InjectedEvent>& truth,
                       const std::vector<DetectedEvent>& detected) {
  int64_t relevant = 0, hit = 0;
  for (const InjectedEvent& t : truth) {
    if (t.kind != EventKind::kFlare && t.kind != EventKind::kGammaRayBurst) {
      continue;
    }
    ++relevant;
    for (const DetectedEvent& d : detected) {
      if (d.kind != t.kind) continue;
      double overlap_lo = std::max(t.t_start, d.t_start);
      double overlap_hi = std::min(t.t_end, d.t_end);
      if (overlap_hi > overlap_lo) {
        ++hit;
        break;
      }
    }
  }
  return relevant == 0 ? 1.0
                       : static_cast<double>(hit) /
                             static_cast<double>(relevant);
}

}  // namespace hedc::rhessi
