#include "report.h"

#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/strings.h"

namespace hedcbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

ProgramMetrics ProgramMetrics::Take(
    const std::vector<std::string>& counters,
    const std::vector<std::string>& histograms) {
  hedc::MetricsRegistry* registry = hedc::MetricsRegistry::Default();
  ProgramMetrics out;
  for (const std::string& name : counters) {
    out.counters_[name] = registry->GetCounter(name)->Value();
  }
  for (const std::string& name : histograms) {
    out.histograms_[name] = registry->GetHistogram(name)->TakeSnapshot();
  }
  return out;
}

int64_t ProgramMetrics::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const hedc::Histogram::Snapshot& ProgramMetrics::Histogram(
    const std::string& name) const {
  static const hedc::Histogram::Snapshot kEmpty;
  auto it = histograms_.find(name);
  return it == histograms_.end() ? kEmpty : it->second;
}

ProgramMetrics ProgramMetrics::Since(const ProgramMetrics& before) const {
  ProgramMetrics out;
  for (const auto& [name, value] : counters_) {
    out.counters_[name] = value - before.Counter(name);
  }
  for (const auto& [name, snap] : histograms_) {
    const hedc::Histogram::Snapshot& old = before.Histogram(name);
    hedc::Histogram::Snapshot delta = snap;
    if (old.counts.size() == snap.counts.size()) {
      for (size_t i = 0; i < delta.counts.size(); ++i) {
        delta.counts[i] -= old.counts[i];
      }
      delta.count -= old.count;
      delta.sum -= old.sum;
    }
    out.histograms_[name] = delta;
  }
  return out;
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal
  CpuTicks out;
  for (int field = 0; field < 8 && stat; ++field) {
    int64_t value = 0;
    stat >> value;
    out.total += value;
    if (field == 7) out.steal = value;
  }
  return out;
}

double ResidentMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default:
      return hedc::StrFormat("0x%lx", static_cast<unsigned long>(fs.f_type));
  }
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = hedc::StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", (long long)attempted, (long long)failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += hedc::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                           metrics[i].unit.c_str());
  }
  out += "}}";
  return out;
}

}  // namespace hedcbench
