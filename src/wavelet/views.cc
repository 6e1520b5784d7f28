#include "wavelet/views.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/strings.h"

namespace hedc::wavelet {

Result<PartitionedView> PartitionedView::Build(
    const std::vector<std::pair<double, double>>& samples,
    const Options& options) {
  if (options.domain_hi <= options.domain_lo) {
    return Status::InvalidArgument("empty view domain");
  }
  if (options.num_partitions == 0 || options.bins_per_partition == 0) {
    return Status::InvalidArgument("view needs partitions and bins");
  }
  PartitionedView view;
  view.options_ = options;
  size_t total_bins = options.num_partitions * options.bins_per_partition;
  view.bin_width_ =
      (options.domain_hi - options.domain_lo) / static_cast<double>(total_bins);

  // Bin all samples over the full domain.
  std::vector<double> bins(total_bins, 0.0);
  for (const auto& [pos, value] : samples) {
    if (pos < options.domain_lo || pos >= options.domain_hi) continue;
    size_t b = static_cast<size_t>((pos - options.domain_lo) /
                                   view.bin_width_);
    if (b >= total_bins) b = total_bins - 1;
    bins[b] += value;
  }

  // Encode each partition independently as a prefix-decodable stream.
  view.partitions_.reserve(options.num_partitions);
  for (size_t p = 0; p < options.num_partitions; ++p) {
    std::vector<double> part(
        bins.begin() + p * options.bins_per_partition,
        bins.begin() + (p + 1) * options.bins_per_partition);
    view.partitions_.push_back(EncodeSignalProgressive(part, options.codec));
  }
  return view;
}

bool PartitionedView::PartitionSpan(double lo, double hi, size_t* first,
                                    size_t* last) const {
  if (hi < options_.domain_lo || lo > options_.domain_hi) return false;
  lo = std::max(lo, options_.domain_lo);
  hi = std::min(hi, options_.domain_hi);
  double part_width =
      bin_width_ * static_cast<double>(options_.bins_per_partition);
  *first = static_cast<size_t>(
      std::floor((lo - options_.domain_lo) / part_width));
  *last = static_cast<size_t>(
      std::floor((hi - options_.domain_lo) / part_width));
  if (*first >= partitions_.size()) *first = partitions_.size() - 1;
  if (*last >= partitions_.size()) *last = partitions_.size() - 1;
  return true;
}

Result<std::vector<double>> PartitionedView::Query(double lo, double hi,
                                                   double fraction,
                                                   double* start_pos) const {
  if (hi < lo) return Status::InvalidArgument("inverted query range");
  // Clamp the coefficient budget to (0, 1]: non-positive (or NaN)
  // degrades to the single coarsest coefficient, anything above 1 is a
  // full decode.
  if (!(fraction > 0)) fraction = 1e-300;
  if (fraction > 1.0) fraction = 1.0;
  size_t first = 0, last = 0;
  if (!PartitionSpan(lo, hi, &first, &last)) {
    if (start_pos != nullptr) {
      *start_pos = std::clamp(lo, options_.domain_lo, options_.domain_hi);
    }
    return std::vector<double>{};
  }

  std::vector<double> out;
  for (size_t p = first; p <= last; ++p) {
    HEDC_ASSIGN_OR_RETURN(std::vector<double> part,
                          DecodeSignal(partitions_[p], fraction));
    out.insert(out.end(), part.begin(), part.end());
  }
  if (start_pos != nullptr) {
    double part_width =
        bin_width_ * static_cast<double>(options_.bins_per_partition);
    *start_pos = options_.domain_lo + static_cast<double>(first) * part_width;
  }
  return out;
}

size_t PartitionedView::BytesForRange(double lo, double hi) const {
  if (hi < lo) return 0;
  size_t first = 0, last = 0;
  if (!PartitionSpan(lo, hi, &first, &last)) return 0;
  size_t bytes = 0;
  for (size_t p = first; p <= last; ++p) bytes += partitions_[p].size();
  return bytes;
}

size_t PartitionedView::TotalBytes() const {
  size_t bytes = 0;
  for (const auto& p : partitions_) bytes += p.size();
  return bytes;
}

double DensityPlot::MaxCount() const {
  double best = 0;
  for (double c : counts) best = std::max(best, c);
  return best;
}

DensityPlot BuildDensityPlot(
    const std::vector<std::pair<double, double>>& points, size_t x_bins,
    size_t y_bins, double x_lo, double x_hi, double y_lo, double y_hi) {
  DensityPlot plot;
  plot.x_bins = x_bins;
  plot.y_bins = y_bins;
  plot.x_lo = x_lo;
  plot.x_hi = x_hi;
  plot.y_lo = y_lo;
  plot.y_hi = y_hi;
  plot.counts.assign(x_bins * y_bins, 0.0);
  if (x_bins == 0 || y_bins == 0 || x_hi <= x_lo || y_hi <= y_lo) return plot;
  double xw = (x_hi - x_lo) / static_cast<double>(x_bins);
  double yw = (y_hi - y_lo) / static_cast<double>(y_bins);
  for (const auto& [x, y] : points) {
    if (x < x_lo || x >= x_hi || y < y_lo || y >= y_hi) continue;
    size_t bx = std::min(static_cast<size_t>((x - x_lo) / xw), x_bins - 1);
    size_t by = std::min(static_cast<size_t>((y - y_lo) / yw), y_bins - 1);
    plot.counts[by * x_bins + bx] += 1.0;
  }
  return plot;
}

std::vector<Extent> BuildExtentPlot(
    const std::vector<std::pair<double, double>>& points, size_t grid,
    double x_lo, double x_hi, double y_lo, double y_hi) {
  std::vector<Extent> out;
  if (grid == 0 || x_hi <= x_lo || y_hi <= y_lo) return out;
  DensityPlot density =
      BuildDensityPlot(points, grid, grid, x_lo, x_hi, y_lo, y_hi);

  // Union-find over occupied cells; 4-connectivity.
  std::vector<int64_t> parent(grid * grid, -1);
  std::function<int64_t(int64_t)> find = [&](int64_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  for (size_t y = 0; y < grid; ++y) {
    for (size_t x = 0; x < grid; ++x) {
      size_t i = y * grid + x;
      if (density.counts[i] <= 0) continue;
      parent[i] = static_cast<int64_t>(i);
    }
  }
  auto merge = [&](size_t a, size_t b) {
    if (parent[a] < 0 || parent[b] < 0) return;
    int64_t ra = find(static_cast<int64_t>(a));
    int64_t rb = find(static_cast<int64_t>(b));
    if (ra != rb) parent[rb] = ra;
  };
  for (size_t y = 0; y < grid; ++y) {
    for (size_t x = 0; x < grid; ++x) {
      size_t i = y * grid + x;
      if (parent[i] < 0) continue;
      if (x + 1 < grid) merge(i, i + 1);
      if (y + 1 < grid) merge(i, i + grid);
    }
  }

  // Accumulate cluster bounding boxes.
  struct Box {
    size_t x_min, x_max, y_min, y_max;
    int64_t count;
    bool used = false;
  };
  std::vector<Box> boxes(grid * grid);
  double xw = (x_hi - x_lo) / static_cast<double>(grid);
  double yw = (y_hi - y_lo) / static_cast<double>(grid);
  for (size_t y = 0; y < grid; ++y) {
    for (size_t x = 0; x < grid; ++x) {
      size_t i = y * grid + x;
      if (parent[i] < 0) continue;
      size_t root = static_cast<size_t>(find(static_cast<int64_t>(i)));
      Box& box = boxes[root];
      int64_t cell_count = static_cast<int64_t>(density.counts[i]);
      if (!box.used) {
        box = Box{x, x, y, y, cell_count, true};
      } else {
        box.x_min = std::min(box.x_min, x);
        box.x_max = std::max(box.x_max, x);
        box.y_min = std::min(box.y_min, y);
        box.y_max = std::max(box.y_max, y);
        box.count += cell_count;
      }
    }
  }
  for (const Box& box : boxes) {
    if (!box.used) continue;
    out.push_back(Extent{
        x_lo + static_cast<double>(box.x_min) * xw,
        x_lo + static_cast<double>(box.x_max + 1) * xw,
        y_lo + static_cast<double>(box.y_min) * yw,
        y_lo + static_cast<double>(box.y_max + 1) * yw,
        box.count,
    });
  }
  return out;
}

}  // namespace hedc::wavelet
