// Inputs of a benchmark run — the fixed RHESSI dataset, the request
// sequences of the three workloads, the archive writer's schedule — and
// the content checks every response goes through.
#ifndef HEDCBENCH_WORKLOADS_H_
#define HEDCBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "http_client.h"
#include "rhessi/calibration.h"
#include "stack.h"

namespace hedcbench {

// ---------------------------------------------------------------- dataset

// The stored views bin each unit into this many bins (ProcessLayer).
constexpr size_t kViewBins = 1024;

struct BinnedSignal {
  std::vector<double> counts;
  std::vector<double> energies;
};

// What the benchmark knows about one raw unit, independent of the
// program: its time domain and its exact binned signals per
// calibration version (computed from the photons it generated).
struct UnitTruth {
  double t_start = 0;
  double t_stop = 0;
  std::map<int, BinnedSignal> versions;
};

struct Dataset {
  // Packed raw units loaded at set-up, in unit-id order.
  std::vector<std::vector<uint8_t>> packed;
  // Telemetry continuing after the dataset ends, for the writer.
  std::vector<std::vector<uint8_t>> reserve;
  std::vector<int64_t> reserve_ids;
  std::map<int64_t, UnitTruth> truth;
  size_t photons = 0;        // in the loaded dataset
  uint64_t packed_bytes = 0;  // of the loaded dataset
};

// One fixed dataset for every run (the seed drives the request sequences
// and the writer's schedule), so runs with different seeds serve the same
// archive.
struct DatasetShape {
  uint64_t telemetry_seed = 5;
  double hours = 6.0;
  double reserve_hours = 2.0;
  double flares_per_hour = 9.0;
  size_t photons_per_unit = 200000;
};

Dataset MakeDataset(const DatasetShape& shape);

// Calibration versions 2..kCalibrationVersions, seeded gains/offsets.
constexpr int kCalibrationVersions = 256;
hedc::rhessi::CalibrationTable MakeCalibrations(uint64_t seed);

// ------------------------------------------------------------- requests

enum class Kind {
  kCatalog,
  kHle,
  kAna,
  kImage,
  kExplore,
  kView,
  kApprox,
  kAnalyze,
};
const char* KindPath(Kind kind);

struct Request {
  Kind kind = Kind::kHle;
  std::string target;
  int64_t id = 0;       // hle / ana id the page must name
  int64_t unit = 0;     // view / approx
  int level = 0;        // view resolution
  bool sum = false;     // approx agg=sum
  size_t bin_lo = 0;    // approx range, in view bins [lo, hi)
  size_t bin_hi = 0;
  std::string routine_key;  // analyze: RoutineKey() of the request
};

// A page request whose body must name `id` (hle, ana) when nonzero.
Request PageRequest(Kind kind, std::string target, int64_t id = 0);

// What the set-up left behind that requests can refer to.
struct ServedState {
  struct Hle {
    int64_t id = 0;
    double t_start = 0;
    double t_end = 0;
  };
  std::vector<Hle> hles;
  std::vector<int64_t> units;  // loaded at set-up
  // Time domain [t_start, t_stop] of every unit, loaded or reserve.
  std::map<int64_t, std::pair<double, double>> unit_domain;
  // Analyses committed before the measured phases.
  struct Ana {
    int64_t ana_id = 0;
    std::string query;  // "/analyze?..." that created it
  };
  std::vector<Ana> analyses;
  // Writer ingests: unit id -> scheduled offset (us) from phase start.
  std::map<int64_t, int64_t> ingest_at_us;
};

struct Workload {
  const char* name;
  double offered_rps;        // open-loop Poisson rate
  double open_share;         // share of --seconds spent in the open loop
  double closed_rps_sizing;  // sizes the closed-loop request count
  bool writer;               // writer thread during the phases
};
const Workload* FindWorkload(const std::string& name);
extern const Workload kWorkloads[3];

// Seeded request generator for one workload.
class RequestGenerator {
 public:
  RequestGenerator(const Workload& workload, uint64_t seed,
                   const ServedState* state);
  // The next request of a sequence whose first send is at `offset_us`
  // from the phase start (units not yet ingested then are never named).
  Request Next(int64_t offset_us);

 private:
  Request Browse();
  Request Progressive(int64_t offset_us);
  Request Analyze();
  Request Approx(int64_t unit, bool sum);
  int64_t PickZipfHle();

  const Workload& workload_;
  const ServedState* state_;
  hedc::Rng rng_;
  std::vector<double> zipf_cdf_;
  std::vector<size_t> zipf_order_;
  // progressive: the dashboard sequence being emitted
  std::vector<Request> pending_;
  // analyze: counter that makes fresh parameters unique
  int64_t fresh_ = 0;
};

// Prep-time analyses (committed before the phases): deterministic.
std::vector<std::string> PrepAnalysisQueries(uint64_t seed,
                                             const ServedState& state,
                                             size_t count);
// The analysis probe: `count` analyses with the same parameters in every
// run, none of which the prep analyses or the analyze workload's fresh
// requests ever name, so each runs the whole PL path and commits.
std::vector<std::string> AnalysisProbeQueries(const ServedState& state,
                                              size_t count);
std::string AnalyzeRoutineKey(const std::string& query,
                              const ServedState& state);

// -------------------------------------------------------- moving archive

// Calibration-version history of each unit as the writer moves it; the
// /approx check accepts any version live during the request.
class VersionLog {
 public:
  void Begin(int64_t unit, int version, int64_t at_us);
  void End(int64_t unit, int version, int64_t at_us);
  std::vector<int> Acceptable(int64_t unit, int64_t sent_us,
                              int64_t done_us) const;

 private:
  struct Window {
    int version = 0;
    int64_t start_us = 0;
    int64_t end_us = -1;  // -1 = still running
  };
  mutable std::mutex mu_;
  std::map<int64_t, std::vector<Window>> windows_;
};

struct WriteOp {
  bool ingest = false;
  size_t reserve_index = 0;  // ingest
  int64_t unit = 0;          // recalibration target / ingested unit id
  int version = 0;           // recalibration: new version
  int64_t at_us = 0;         // scheduled offset from the writer's start
};

// Writer schedule: every `period_us` one op; every third is an ingest of
// the next reserve unit while any remain, the rest recalibrate a seeded
// random loaded unit to its next version. Adds the exact binned signals
// of every version it will produce to `dataset->truth`.
std::vector<WriteOp> PlanWrites(uint64_t seed, size_t count,
                                int64_t period_us,
                                const std::vector<int64_t>& units,
                                const hedc::rhessi::CalibrationTable& cal,
                                Dataset* dataset);

class Writer {
 public:
  Writer(Stack* stack, const Dataset* dataset,
         const hedc::rhessi::CalibrationTable* cal, VersionLog* versions)
      : stack_(stack), dataset_(dataset), cal_(cal), versions_(versions) {}
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  // Runs `ops` on a thread, each at its scheduled offset from now.
  void Start(std::vector<WriteOp> ops);
  // Stops after the op in flight; remaining ops are skipped.
  void Stop();
  // Runs `ops` back to back on the calling thread.
  void RunNow(const std::vector<WriteOp>& ops);

  std::vector<double> ingest_ms() const;
  std::vector<double> recal_ms() const;
  int64_t failures() const { return failures_.load(); }
  std::string first_error() const;

 private:
  void Execute(const WriteOp& op);

  Stack* stack_;
  const Dataset* dataset_;
  const hedc::rhessi::CalibrationTable* cal_;
  VersionLog* versions_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> failures_{0};
  mutable std::mutex mu_;
  std::vector<double> ingest_ms_;
  std::vector<double> recal_ms_;
  std::string first_error_;
};

// ---------------------------------------------------------------- checks

// Judges one response. Thread-safe; collects the per-answer numbers the
// report needs (approx bound ratios, bytes shipped).
class Checker {
 public:
  Checker(const Dataset* dataset, const VersionLog* versions)
      : dataset_(dataset), versions_(versions) {}

  // Empty string = correct; otherwise why not.
  std::string Check(const Request& request, const HttpResult& result,
                    int64_t sent_us, int64_t done_us);

  struct Collected {
    std::vector<double> approx_ratio;        // error_bound / |exact|
    std::vector<double> approx_ratio_count;
    std::vector<double> approx_ratio_sum;
    std::vector<double> approx_bytes_read;
    std::vector<double> view_bytes;
    std::vector<int64_t> analyze_ana_ids;
  };
  Collected Take();

 private:
  std::string CheckApprox(const Request& request, const std::string& body,
                          int64_t sent_us, int64_t done_us);

  const Dataset* dataset_;
  const VersionLog* versions_;
  std::mutex mu_;
  Collected collected_;
};

}  // namespace hedcbench

#endif  // HEDCBENCH_WORKLOADS_H_
