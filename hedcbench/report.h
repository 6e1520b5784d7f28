// Statistics, program-metric deltas and the result line.
#ifndef HEDCBENCH_REPORT_H_
#define HEDCBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/metrics.h"

namespace hedcbench {

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// Counters and histograms of MetricsRegistry::Default(), read at one
// instant; subtracting two gives the activity in between.
class ProgramMetrics {
 public:
  static ProgramMetrics Take(const std::vector<std::string>& counters,
                             const std::vector<std::string>& histograms);
  int64_t Counter(const std::string& name) const;
  const hedc::Histogram::Snapshot& Histogram(const std::string& name) const;
  // this - before
  ProgramMetrics Since(const ProgramMetrics& before) const;

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, hedc::Histogram::Snapshot> histograms_;
};

// Jiffies of all CPUs from /proc/stat: stolen by the hypervisor, and in
// total. Their deltas over a phase give the host's steal share.
struct CpuTicks {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuTicks ReadCpuTicks();
// Resident set size of this process, in MB.
double ResidentMb();
// Name of the filesystem holding `path` (ext4, tmpfs, ...).
std::string FilesystemOf(const std::string& path);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The last line of standard output.
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace hedcbench

#endif  // HEDCBENCH_REPORT_H_
