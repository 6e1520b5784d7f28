// Range-partitioned wavelet-encoded materialized views and the density /
// extent plots built from them (§3.4, §6.3).
//
// A PartitionedView covers a 1-D domain (e.g. observation time) split into
// fixed-width partitions; each partition's signal is wavelet-encoded
// independently, so a range query decodes only overlapping partitions and
// can trade fidelity for speed via a coefficient budget. Error-bounded
// range sums over a view prefix are analysis::ApproxSumFromPrefix's job
// (what /approx serves); the view itself only reconstructs bins.
#ifndef HEDC_WAVELET_VIEWS_H_
#define HEDC_WAVELET_VIEWS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "wavelet/codec.h"

namespace hedc::wavelet {

class PartitionedView {
 public:
  struct Options {
    double domain_lo = 0;
    double domain_hi = 1;
    size_t num_partitions = 16;
    size_t bins_per_partition = 256;
    CodecOptions codec;
  };

  // Builds the view from (position, value) samples: samples are binned
  // (summed) over the domain, then each partition is encoded as a
  // prefix-decodable progressive (HWV4) stream.
  static Result<PartitionedView> Build(
      const std::vector<std::pair<double, double>>& samples,
      const Options& options);

  // Reconstructs bin values covering [lo, hi] using `fraction` of each
  // overlapping partition's coefficients. Returns the bin values and
  // writes the domain position of the first returned bin to *start_pos.
  // Semantics at the edges: hi < lo is InvalidArgument; a range that
  // does not intersect the domain yields an empty result; fraction is
  // clamped to (0, 1] (<= 0 decodes the single coarsest coefficient,
  // > 1 decodes everything); single-partition views behave like any
  // other size.
  Result<std::vector<double>> Query(double lo, double hi, double fraction,
                                    double* start_pos) const;

  // Serialized size of the partitions overlapping [lo, hi] — the bytes a
  // client must download for such a query.
  size_t BytesForRange(double lo, double hi) const;
  size_t TotalBytes() const;

  const Options& options() const { return options_; }
  size_t num_partitions() const { return partitions_.size(); }
  double bin_width() const { return bin_width_; }

 private:
  // Partitions overlapping the clamped [lo, hi]; false when the range
  // misses the domain entirely.
  bool PartitionSpan(double lo, double hi, size_t* first,
                     size_t* last) const;

  Options options_;
  double bin_width_ = 0;
  std::vector<std::vector<uint8_t>> partitions_;  // encoded streams
};

// Density plot: tuples per (x, y) bin over user-specified ranges —
// "density (number of tuples per bin) ... plots" (§6.3).
struct DensityPlot {
  size_t x_bins = 0;
  size_t y_bins = 0;
  double x_lo = 0, x_hi = 0, y_lo = 0, y_hi = 0;
  std::vector<double> counts;  // row-major [y][x]

  double At(size_t x, size_t y) const { return counts[y * x_bins + x]; }
  double MaxCount() const;
};

// Extent plot entry: location and extent of each tuple/cluster (§6.3).
struct Extent {
  double x_lo, x_hi;
  double y_lo, y_hi;
  int64_t tuple_count;
};

// Builds a density plot from (x, y) points.
DensityPlot BuildDensityPlot(const std::vector<std::pair<double, double>>& points,
                             size_t x_bins, size_t y_bins, double x_lo,
                             double x_hi, double y_lo, double y_hi);

// Greedy grid-clustering of points into extents: adjacent occupied cells
// merge into one extent.
std::vector<Extent> BuildExtentPlot(
    const std::vector<std::pair<double, double>>& points, size_t grid,
    double x_lo, double x_hi, double y_lo, double y_hi);

}  // namespace hedc::wavelet

#endif  // HEDC_WAVELET_VIEWS_H_
