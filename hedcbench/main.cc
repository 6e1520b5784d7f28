// hedc_e2e: one run of one workload of the HEDC end-to-end benchmark.
//
//   hedc_e2e --workload browse|progressive|analyze --seed N --seconds S
//            --trace 0|1 [--state-dir DIR] [--git-sha SHA]
//
// Boots the full single-node stack (db + WAL, DiskArchive + NameMapper,
// DataManager + ProcessLayer, PL frontend with two IDL servers and the
// product cache, WebServer behind HttpTcpServer on the reactor), loads a
// fixed RHESSI dataset through ProcessLayer::LoadRawUnit, and drives
// real HTTP/1.1 over loopback: an open-loop phase at a fixed Poisson
// rate, then a closed-loop capacity phase, then fixed probes (writes,
// /approx ranges, analyses sent one at a time). Prints the run record and
// every metric by name with its unit; the last line is one JSON object.
// Exit status: 0 = every response correct and the real-time guard held,
// 1 = a content check or the guard failed, 2 = bad arguments or a
// failed set-up.
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/content_hash.h"
#include "core/strings.h"
#include "loadgen.h"
#include "report.h"
#include "stack.h"
#include "workloads.h"

using namespace hedcbench;
using hedc::StrFormat;

namespace {

constexpr int kSetups = 5;                   // setup_s is their median
constexpr int64_t kWriterPeriodUs = 300000;  // progressive writer schedule
constexpr size_t kProbeWrites = 24;   // writer probe, browse and analyze
constexpr size_t kProbeApprox = 3000;  // /approx probe, every workload
// The probes are fixed instruments: the same writes and the same /approx
// ranges in every run; only the calibrations the writes apply follow the
// seed.
constexpr uint64_t kWriteProbeSeed = 0x3717e;
constexpr uint64_t kApproxProbeSeed = 0x5eed;
constexpr size_t kProbeAnalyses = 12;  // analysis probe, every workload
constexpr size_t kPrepAnalyses = 24;
constexpr size_t kClosedSegments = 8;  // closed loop, back to back
constexpr size_t kLatencyWindows = 24;  // open-loop percentiles

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string state_dir = ".bench_build/state";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
      have_seconds = args->seconds >= 1 && args->seconds <= 600;
    } else if (key == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--state-dir") {
      args->state_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace &&
         argc % 2 == 1;
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "hedc_e2e: %s\n", why.c_str());
  return 2;
}

void MakeDirs(const std::string& path) {
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = path.find('/', pos + 1);
    ::mkdir(path.substr(0, pos).c_str(), 0755);
  }
}

int64_t AnaIdIn(const std::string& body) {
  size_t pos = body.find("ANA ");
  return pos == std::string::npos ? 0 : std::atoll(body.c_str() + pos + 4);
}

const std::vector<std::string> kCounters = {
    "io.bytes_read",          "db.rows_scanned",
    "wal.fsyncs",             "name_mapper.cache_hits",
    "name_mapper.cache_misses", "namemap.misses",
    "namemap.db_queries",     "product_cache.hits",
    "product_cache.misses",   "product_cache.invalidations",
    "product_cache.coalesced", "product_cache.evictions",
};
const std::vector<std::string> kHistograms = {
    "net.loop_lag_us",  "dm.sessions.get_us", "db.query_us",
    "db.update_us",     "db.pool_wait_us",    "wal.group_size",
    "wal.fsync_us",     "namemap.resolve_us", "pl.estimate_us",
    "pl.execute_us",    "pl.commit_us",
};

// The per-layer metrics of the result line (BENCHMARK.json per_layer):
// those that are nonzero on every listed workload. Every other layer
// number is printed above it (see README).
const std::vector<std::string> kPerLayerInResult = {
    "loadgen.late_ms.p99",
    "net.queue_wait_us.p50",
    "net.queue_wait_us.p99",
    "net.wire_us.p50",
    "net.loop_lag_us.mean",
    "web.dispatch_us.p50",
    "web.self_us.p50",
    "dm.queries_per_req",
    "dm.updates_per_req",
    "dm.bytes_read_per_req",
    "db.query_us.mean",
    "db.update_us.mean",
    "db.usage_rows",
    "wal.fsyncs_per_update",
    "wal.group_size.mean",
    "wal.fsync_us.mean",
    "name_mapper.hit_ratio",
    "archive.read_us.p50",
    "archive.read_bytes_per_req",
    "archive.write_us.p50",
    "archive.raw_read_us.p50",
    "pl.estimate_us.mean",
    "pl.execute_us.mean",
    "pl.commit_us.mean",
    "analysis.probe_ms.p50",
    "analysis.routine_frac",
    "approx.bytes_read.mean",
    "writer.ingest_ms.p50",
    "writer.recal_ms.p50",
    "trace.web_self_frac",
    "trace.overhead_frac",
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Frees a vector's storage, not only its elements.
template <typename T>
void Release(std::vector<T>* values) {
  std::vector<T>().swap(*values);
}

// Quantile q of the latencies in each of kLatencyWindows consecutive,
// equally sized windows of the open loop's schedule.
std::vector<double> WindowQuantiles(std::vector<ClientSpan> spans, double q) {
  std::sort(spans.begin(), spans.end(),
            [](const ClientSpan& a, const ClientSpan& b) {
              return a.sched_us < b.sched_us;
            });
  std::vector<double> out;
  size_t n = spans.size();
  for (size_t w = 0; w < kLatencyWindows && n > 0; ++w) {
    std::vector<double> values;
    size_t end = (w + 1) * n / kLatencyWindows;
    for (size_t i = w * n / kLatencyWindows; i < end; ++i) {
      values.push_back(
          static_cast<double>(spans[i].done_us - spans[i].sched_us));
    }
    out.push_back(Quantile(values, q));
  }
  return out;
}

// Joins the traced open-loop phase's client spans with the handler and
// routine spans and derives each layer's numbers.
struct LayerInputs {
  const PhaseResult* open = nullptr;
  std::vector<HandlerSpan> handlers;
  std::vector<RoutineSpan> routines;
  const ProgramMetrics* delta = nullptr;
  int64_t requests = 0;  // both phases
  int64_t io_queries = 0;
  int64_t io_updates = 0;
  int64_t usage_rows = 0;
  std::vector<double> archive_read_us;
  std::vector<double> archive_write_us;
  int64_t archive_read_bytes = 0;
  int64_t queue_depth_max = 0;
  const Checker::Collected* collected = nullptr;  // measured phases
  const Checker::Collected* approx = nullptr;     // the /approx answers
  std::vector<double> ingest_ms;
  std::vector<double> recal_ms;
  // The analysis probe: program-metric deltas over it, each /analyze's
  // latency, the routine time its IDL servers spent, its archive reads.
  const ProgramMetrics* probe_delta = nullptr;
  std::vector<double> probe_analysis_ms;
  double probe_routine_us = 0;
  std::vector<double> probe_read_us;
  double rps_traced = 0;
  double rps_untraced = 0;
};

std::vector<Metric> LayerMetrics(const LayerInputs& in,
                                 std::vector<std::string>* notes) {
  std::map<int64_t, const HandlerSpan*> by_rid;
  for (const HandlerSpan& h : in.handlers) by_rid[h.rid] = &h;
  std::multimap<std::string, const RoutineSpan*> by_key;
  for (const RoutineSpan& r : in.routines) by_key.emplace(r.key, &r);

  std::vector<double> queue, wire, dispatch, self;
  std::map<Kind, std::vector<double>> dispatch_by_kind, self_by_kind;
  double total_latency = 0, total_attributed = 0, total_web_self = 0;
  size_t unjoined = 0;
  for (const ClientSpan& c : in.open->spans) {
    auto it = by_rid.find(c.rid);
    double latency = static_cast<double>(c.done_us - c.sched_us);
    total_latency += latency;
    if (it == by_rid.end()) {
      ++unjoined;
      continue;
    }
    const HandlerSpan& h = *it->second;
    double q = static_cast<double>(h.start_us - c.sent_us);
    double d = static_cast<double>(h.end_us - h.start_us);
    double w = static_cast<double>(c.done_us - c.sent_us) - d;
    double routine = 0;
    if (!c.routine_key.empty()) {
      auto range = by_key.equal_range(c.routine_key);
      for (auto r = range.first; r != range.second; ++r) {
        if (r->second->start_us >= h.start_us &&
            r->second->end_us <= h.end_us) {
          routine += static_cast<double>(r->second->end_us -
                                         r->second->start_us);
        }
      }
    }
    double s = d - static_cast<double>(h.archive_us) - routine;
    queue.push_back(q);
    wire.push_back(w);
    dispatch.push_back(d);
    self.push_back(s);
    dispatch_by_kind[c.kind].push_back(d);
    self_by_kind[c.kind].push_back(s);
    double late = static_cast<double>(c.sent_us - c.sched_us);
    // Self times of loadgen, net (wire includes the queue wait), web,
    // archive and analysis.
    total_attributed +=
        late + w + s + static_cast<double>(h.archive_us) + routine;
    total_web_self += s;
  }
  if (unjoined > 0) {
    notes->push_back(StrFormat("%zu client spans had no handler span",
                               unjoined));
  }
  const ProgramMetrics& m = *in.delta;
  auto hmean = [&](const char* name) { return m.Histogram(name).Mean(); };
  auto probe_mean = [&](const char* name) {
    return in.probe_delta->Histogram(name).Mean();
  };
  double probe_ms = 0;
  for (double v : in.probe_analysis_ms) probe_ms += v;
  double requests = static_cast<double>(in.requests);
  const Checker::Collected& col = *in.collected;

  std::vector<Metric> out = {
      {"loadgen.late_ms.p99", Quantile(in.open->late_us, 0.99) / 1000, "ms"},
      {"net.queue_wait_us.p50", Quantile(queue, 0.5), "us"},
      {"net.queue_wait_us.p99", Quantile(queue, 0.99), "us"},
      {"net.wire_us.p50", Quantile(wire, 0.5), "us"},
      {"net.loop_lag_us.mean", hmean("net.loop_lag_us"), "us"},
      {"web.dispatch_us.p50", Quantile(dispatch, 0.5), "us"},
      {"web.self_us.p50", Quantile(self, 0.5), "us"},
  };
  for (const auto& [kind, values] : dispatch_by_kind) {
    out.push_back({StrFormat("web.dispatch_us.p50%s", KindPath(kind)),
                   Quantile(values, 0.5), "us"});
    out.push_back({StrFormat("web.self_us.p50%s", KindPath(kind)),
                   Quantile(self_by_kind[kind], 0.5), "us"});
  }
  double queries = static_cast<double>(m.Histogram("db.query_us").count);
  double updates = static_cast<double>(m.Histogram("db.update_us").count);
  double nm_hits = static_cast<double>(m.Counter("name_mapper.cache_hits"));
  double nm_misses =
      static_cast<double>(m.Counter("name_mapper.cache_misses"));
  double pc_hits = static_cast<double>(m.Counter("product_cache.hits"));
  double pc_misses = static_cast<double>(m.Counter("product_cache.misses"));
  std::vector<Metric> rest = {
      {"dm.queries_per_req", Ratio(in.io_queries, requests), "count"},
      {"dm.updates_per_req", Ratio(in.io_updates, requests), "count"},
      {"dm.bytes_read_per_req",
       Ratio(static_cast<double>(m.Counter("io.bytes_read")), requests), "B"},
      {"dm.session_get_us.mean", hmean("dm.sessions.get_us"), "us"},
      {"db.query_us.mean", hmean("db.query_us"), "us"},
      {"db.update_us.mean", hmean("db.update_us"), "us"},
      {"db.pool_wait_us.mean", hmean("db.pool_wait_us"), "us"},
      {"db.rows_scanned_per_query",
       Ratio(static_cast<double>(m.Counter("db.rows_scanned")), queries),
       "count"},
      {"db.usage_rows", static_cast<double>(in.usage_rows), "count"},
      {"wal.fsyncs_per_update",
       Ratio(static_cast<double>(m.Counter("wal.fsyncs")), updates), "count"},
      {"wal.group_size.mean", hmean("wal.group_size"), "count"},
      {"wal.fsync_us.mean", hmean("wal.fsync_us"), "us"},
      {"name_mapper.hit_ratio", Ratio(nm_hits, nm_hits + nm_misses),
       "ratio"},
      {"namemap.db_queries_per_miss",
       Ratio(static_cast<double>(m.Counter("namemap.db_queries")),
             static_cast<double>(m.Counter("namemap.misses"))),
       "count"},
      {"namemap.resolve_us.mean", hmean("namemap.resolve_us"), "us"},
      {"archive.read_us.p50", Quantile(in.archive_read_us, 0.5), "us"},
      {"archive.read_bytes_per_req",
       Ratio(static_cast<double>(in.archive_read_bytes), requests), "B"},
      {"archive.write_us.p50", Quantile(in.archive_write_us, 0.5), "us"},
      {"archive.raw_read_us.p50", Quantile(in.probe_read_us, 0.5), "us"},
      {"pl.estimate_us.mean", probe_mean("pl.estimate_us"), "us"},
      {"pl.execute_us.mean", probe_mean("pl.execute_us"), "us"},
      {"pl.commit_us.mean", probe_mean("pl.commit_us"), "us"},
      {"pl.queue_depth.max", static_cast<double>(in.queue_depth_max),
       "count"},
      {"analysis.probe_ms.p50", Median(in.probe_analysis_ms), "ms"},
      {"analysis.routine_frac", Ratio(in.probe_routine_us, probe_ms * 1000),
       "ratio"},
      {"product_cache.hit_ratio", Ratio(pc_hits, pc_hits + pc_misses),
       "ratio"},
      {"product_cache.invalidations",
       static_cast<double>(m.Counter("product_cache.invalidations")),
       "count"},
      {"product_cache.coalesced",
       static_cast<double>(m.Counter("product_cache.coalesced")), "count"},
      {"product_cache.evictions",
       static_cast<double>(m.Counter("product_cache.evictions")), "count"},
      {"view.bytes_per_req", Mean(col.view_bytes), "B"},
      {"approx.bytes_read.mean", Mean(in.approx->approx_bytes_read), "B"},
      {"approx.bound_ratio.count", Median(in.approx->approx_ratio_count),
       "ratio"},
      {"approx.bound_ratio.sum", Median(in.approx->approx_ratio_sum),
       "ratio"},
      {"writer.ingest_ms.p50", Median(in.ingest_ms), "ms"},
      {"writer.recal_ms.p50", Median(in.recal_ms), "ms"},
      {"trace.attributed_frac", Ratio(total_attributed, total_latency),
       "ratio"},
      {"trace.web_self_frac", Ratio(total_web_self, total_latency), "ratio"},
      {"trace.overhead_frac",
       in.rps_untraced > 0 ? 1.0 - in.rps_traced / in.rps_untraced : 0,
       "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail(
        "usage: hedc_e2e --workload browse|progressive|analyze --seed N "
        "--seconds S --trace 0|1 [--state-dir DIR] [--git-sha SHA]");
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) return Fail("unknown workload " + args.workload);
  const bool is_browse = args.workload == "browse";
  const bool is_analyze = args.workload == "analyze";
  size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  MakeDirs(args.state_dir);

  // ------------------------------------------------------------- inputs
  // Input generation (telemetry synthesis, packing, exact answers) is not
  // part of set-up time.
  Dataset dataset = MakeDataset(DatasetShape{});
  if (dataset.packed.empty()) return Fail("empty dataset");
  hedc::rhessi::CalibrationTable calibrations = MakeCalibrations(args.seed);
  std::vector<int64_t> units;
  for (size_t i = 0; i < dataset.packed.size(); ++i) {
    units.push_back(static_cast<int64_t>(i + 1));
  }
  std::vector<WriteOp> writes =
      workload->writer
          ? PlanWrites(args.seed,
                       static_cast<size_t>(args.seconds *
                                           workload->open_share * 1e6 /
                                           kWriterPeriodUs) + 1,
                       kWriterPeriodUs, units, calibrations, &dataset)
          : PlanWrites(kWriteProbeSeed, kProbeWrites, 0, units, calibrations,
                       &dataset);

  // The benchmark's inputs, measured before the first boot and subtracted
  // from rss_mb (less the packed units, which are released after set-up).
  ::malloc_trim(0);
  const double inputs_mb =
      ResidentMb() - static_cast<double>(dataset.packed_bytes) / (1 << 20);

  // -------------------------------------------------------------- set-up
  Probes probes;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    int64_t start = NowUs();
    stack = std::make_unique<Stack>(&probes);
    hedc::Status booted = stack->Boot();
    if (!booted.ok()) return Fail("boot: " + booted.ToString());
    for (const std::vector<uint8_t>& packed : dataset.packed) {
      auto report = stack->Load(packed);
      if (!report.ok()) return Fail("load: " + report.status().ToString());
    }
    hedc::Status serving = stack->Serve();
    if (!serving.ok()) return Fail("serve: " + serving.ToString());
    setup_s.push_back(static_cast<double>(NowUs() - start) / 1e6);
  }
  Release(&dataset.packed);

  ServedState state;
  {
    auto rows = stack->db().Execute(
        "SELECT hle_id, t_start, t_end FROM hle WHERE superseded_by = 0");
    if (!rows.ok()) return Fail("hle query: " + rows.status().ToString());
    for (size_t i = 0; i < rows.value().num_rows(); ++i) {
      state.hles.push_back({rows.value().rows[i][0].AsInt(),
                            rows.value().rows[i][1].AsReal(),
                            rows.value().rows[i][2].AsReal()});
    }
    std::sort(state.hles.begin(), state.hles.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    if (state.hles.empty()) return Fail("dataset produced no HLEs");
  }
  state.units = units;
  for (const auto& [unit, truth] : dataset.truth) {
    state.unit_domain[unit] = {truth.t_start, truth.t_stop};
  }
  if (workload->writer) {
    for (const WriteOp& op : writes) {
      if (op.ingest) state.ingest_at_us[op.unit] = op.at_us;
    }
  }

  // ------------------------------------------------------------ clients
  std::vector<std::string> cookies;
  for (size_t c = 0; c < nproc; ++c) {
    HttpClient login(stack->port(), 30000);
    HttpResult r = login.Get("/login?user=analyst&password=pw-analyst", "");
    if (!r.ok || r.status != 200 || r.set_cookie.empty()) {
      return Fail("login failed: " + r.error + r.body.substr(0, 100));
    }
    cookies.push_back(r.set_cookie);
  }
  VersionLog versions;
  Checker checker(&dataset, &versions);
  LoadGenerator load(stack->port(), cookies, &checker);

  // --------------------------------------------------------------- prep
  if (is_browse || is_analyze) {
    for (const std::string& query :
         PrepAnalysisQueries(args.seed, state, kPrepAnalyses)) {
      HttpResult r = load.Get(query);
      int64_t ana = r.ok && r.status == 200 ? AnaIdIn(r.body) : 0;
      if (ana <= 0) return Fail("prep analysis failed: " + query);
      state.analyses.push_back({ana, query});
    }
  }
  // Warm-up: every page or product the measured phases can name once, so
  // the hot set sits in the program's caches before timing starts.
  std::vector<Request> warm;
  if (is_browse) {
    for (const auto& hle : state.hles) {
      warm.push_back(PageRequest(
          Kind::kHle, StrFormat("/hle?id=%lld", (long long)hle.id), hle.id));
    }
    warm.push_back(PageRequest(Kind::kCatalog, "/catalog?name=standard"));
    for (const auto& ana : state.analyses) {
      long long id = ana.ana_id;
      warm.push_back(
          PageRequest(Kind::kAna, StrFormat("/ana?id=%lld", id), id));
      warm.push_back(PageRequest(
          Kind::kImage, StrFormat("/image?item=%lld", 2000000000 + id), id));
    }
  } else if (is_analyze) {
    for (const auto& ana : state.analyses) {
      long long id = ana.ana_id;
      warm.push_back(PageRequest(Kind::kAnalyze, ana.query));
      warm.push_back(
          PageRequest(Kind::kAna, StrFormat("/ana?id=%lld", id), id));
    }
  } else {
    // Every resolution of every loaded unit, and both aggregates' prefixes.
    for (int64_t unit : units) {
      for (int level = 0; level < 11; ++level) {
        Request r;
        r.kind = Kind::kView;
        r.unit = unit;
        r.level = level;
        r.target = StrFormat("/view?unit=%lld&resolution=%d",
                             (long long)unit, level);
        warm.push_back(r);
      }
      for (bool sum : {false, true}) {
        Request r;
        r.kind = Kind::kApprox;
        r.unit = unit;
        r.sum = sum;
        r.bin_hi = kViewBins;  // no range given: the whole unit
        r.target = StrFormat("/approx?unit=%lld&agg=%s", (long long)unit,
                             sum ? "sum" : "count");
        warm.push_back(r);
      }
    }
  }
  PhaseResult warm_result = load.RunClosed(warm, 900000000);
  if (warm_result.failed > 0) {
    return Fail("warm-up failed: " + warm_result.failures.front());
  }
  checker.Take();

  // --------------------------------------------------- request sequences
  hedc::Rng arrivals(args.seed ^ 0xa77a1ull);
  RequestGenerator generator(*workload, args.seed ^ 0x9e9ull, &state);
  size_t n_open = static_cast<size_t>(std::llround(
      workload->offered_rps * args.seconds * workload->open_share));
  size_t n_closed = static_cast<size_t>(std::llround(
      workload->closed_rps_sizing * args.seconds *
      (1.0 - workload->open_share)));
  std::vector<int64_t> offsets;
  std::vector<Request> open_requests, closed_requests;
  double t = 0;
  uint64_t checksum = hedc::Fnv1a64(args.workload);
  for (size_t i = 0; i < n_open; ++i) {
    t += arrivals.Exponential(1e6 / workload->offered_rps);
    offsets.push_back(static_cast<int64_t>(t));
    open_requests.push_back(generator.Next(offsets.back()));
    checksum = hedc::Fnv1a64(open_requests.back().target + "@" +
                                 std::to_string(offsets.back()),
                             checksum);
  }
  for (size_t i = 0; i < n_closed; ++i) {
    closed_requests.push_back(generator.Next(static_cast<int64_t>(t)));
    checksum = hedc::Fnv1a64(closed_requests.back().target, checksum);
  }

  // ---------------------------------------------------- measured phases
  probes.archive.Clear();
  probes.routines.Clear();
  stack->TakeHandlerSpans();
  ProgramMetrics before = ProgramMetrics::Take(kCounters, kHistograms);
  int64_t io_queries = stack->dm().io().queries_executed();
  int64_t io_updates = stack->dm().io().updates_executed();
  std::atomic<bool> sampling{args.trace};
  std::atomic<int64_t> queue_depth_max{0};
  std::thread sampler;
  if (args.trace) {
    probes.tracing = true;
    sampler = std::thread([&] {
      hedc::Gauge* depth =
          hedc::MetricsRegistry::Default()->GetGauge("pl.queue_depth");
      while (sampling.load()) {
        int64_t d = depth->Value();
        if (d > queue_depth_max.load()) queue_depth_max = d;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  CpuTicks ticks_start = ReadCpuTicks();
  Writer writer(stack.get(), &dataset, &calibrations, &versions);
  if (workload->writer) writer.Start(writes);
  probes.tracing = args.trace;
  PhaseResult open = load.RunOpen(open_requests, offsets, 1);
  // The writer moves the archive during the open loop; the closed loop
  // then measures read capacity on the archive as the writer left it.
  writer.Stop();
  // The closed loop runs as kClosedSegments equal back-to-back segments.
  // Capacity is the whole loop's rate: the segment rates fall as
  // usage_stats grows (README, known defects), so any one segment, or
  // their median, would sit on that slope. A traced run turns tracing on
  // in the middle two segments of every four (off, on, on, off: a linear
  // drift cancels) for the tracing overhead.
  PhaseResult closed;
  std::vector<double> segment_rps;
  double seg_secs[2] = {0, 0};
  int64_t seg_ok[2] = {0, 0};
  for (size_t k = 0; k < kClosedSegments; ++k) {
    size_t lo = k * n_closed / kClosedSegments;
    size_t hi = (k + 1) * n_closed / kClosedSegments;
    bool on = args.trace && (k % 4 == 1 || k % 4 == 2);
    probes.tracing = on;
    PhaseResult r = load.RunClosed(
        std::vector<Request>(closed_requests.begin() + lo,
                             closed_requests.begin() + hi),
        1 + static_cast<int64_t>(n_open + lo));
    segment_rps.push_back(Ratio(r.ok_2xx, r.elapsed_s));
    seg_secs[on] += r.elapsed_s;
    seg_ok[on] += r.ok_2xx;
    closed.elapsed_s += r.elapsed_s;
    closed.Merge(std::move(r));
  }
  CpuTicks ticks_end = ReadCpuTicks();
  double rps_untraced = Ratio(seg_ok[0], seg_secs[0]);
  double rps_traced = Ratio(seg_ok[1], seg_secs[1]);
  ProgramMetrics delta =
      ProgramMetrics::Take(kCounters, kHistograms).Since(before);
  io_queries = stack->dm().io().queries_executed() - io_queries;
  io_updates = stack->dm().io().updates_executed() - io_updates;
  probes.tracing = args.trace;  // archive writes stay traced through the probe
  sampling = false;
  if (sampler.joinable()) sampler.join();
  std::vector<HandlerSpan> handler_spans = stack->TakeHandlerSpans();
  std::vector<RoutineSpan> routine_spans = probes.routines.Snapshot();
  std::vector<double> archive_read_us = probes.archive.read_us.Snapshot();
  int64_t archive_read_bytes = probes.archive.read_bytes.load();
  Checker::Collected collected = checker.Take();
  std::vector<double> p50_windows = WindowQuantiles(open.spans, 0.5);
  std::vector<double> p99_windows = WindowQuantiles(open.spans, 0.99);
  int64_t usage_rows = 0;
  {
    auto rows = stack->db().Execute("SELECT COUNT(*) FROM usage_stats");
    if (rows.ok() && rows.value().num_rows() > 0) {
      usage_rows = rows.value().rows[0][0].AsInt();
    }
  }
  // rss_mb: the server's memory after the phases. The request sequences
  // and, in a measured run, the client spans go before it is read; the
  // inputs still held are subtracted.
  Release(&open_requests);
  Release(&closed_requests);
  Release(&closed.spans);
  Release(&closed.late_us);
  if (!args.trace) {
    Release(&open.spans);
    Release(&open.late_us);
  }
  ::malloc_trim(0);
  double process_mb = ResidentMb();
  double rss_mb = process_mb - inputs_mb;
  uint64_t product_cache_bytes = stack->product_cache().bytes_cached();
  uint64_t product_cache_capacity =
      stack->product_cache().options().capacity_bytes;

  // ------------------------------------------- checks after the phases
  PhaseResult after;
  if (is_analyze) {
    // Every /analyze must lead to an /ana page that exists.
    std::set<int64_t> ids(collected.analyze_ana_ids.begin(),
                          collected.analyze_ana_ids.end());
    std::vector<Request> verify;
    for (int64_t id : ids) {
      verify.push_back(PageRequest(
          Kind::kAna, StrFormat("/ana?id=%lld", (long long)id), id));
    }
    after.Merge(load.RunClosed(verify, 800000000));
  }
  // A workload without a writer of its own measures write_p50_ms on a
  // fixed probe of writes after the phases.
  if (!workload->writer) writer.RunNow(writes);
  std::vector<double> ingest_ms = writer.ingest_ms();
  std::vector<double> recal_ms = writer.recal_ms();
  after.attempted += static_cast<int64_t>(ingest_ms.size() + recal_ms.size());
  after.failed += writer.failures();
  if (writer.failures() > 0) {
    after.failures.push_back("write: " + writer.first_error());
  }
  // approx_bound_ratio, on every workload, asked of the archive as the
  // phases left it.
  RequestGenerator probe_gen(kWorkloads[1], kApproxProbeSeed, &state);
  std::vector<Request> approx;
  while (approx.size() < kProbeApprox) {
    Request r = probe_gen.Next(0);
    if (r.kind == Kind::kApprox) approx.push_back(r);
  }
  after.Merge(load.RunClosed(approx, 700000000));
  Checker::Collected approx_answers = checker.Take();
  std::vector<double> archive_write_us = probes.archive.write_us.Snapshot();
  // The PL and commit path, on every workload: kProbeAnalyses fresh
  // analyses with the same parameters in every run, sent one at a time
  // (concurrent commits fail, see README), each followed by its /ana page.
  probes.archive.Clear();
  probes.routines.Clear();
  ProgramMetrics probe_before = ProgramMetrics::Take(kCounters, kHistograms);
  std::vector<double> probe_analysis_ms;
  for (const std::string& query :
       AnalysisProbeQueries(state, kProbeAnalyses)) {
    Request analyze = PageRequest(Kind::kAnalyze, query);
    int64_t sent = NowUs();
    HttpResult r = load.Get(query);
    int64_t done = NowUs();
    ++after.attempted;
    std::string why = checker.Check(analyze, r, sent, done);
    if (why.empty()) {
      probe_analysis_ms.push_back(static_cast<double>(done - sent) / 1000);
      int64_t ana = AnaIdIn(r.body);
      Request page = PageRequest(
          Kind::kAna, StrFormat("/ana?id=%lld", (long long)ana), ana);
      int64_t page_sent = NowUs();
      HttpResult p = load.Get(page.target);
      ++after.attempted;
      why = checker.Check(page, p, page_sent, NowUs());
    }
    if (!why.empty()) {
      ++after.failed;
      after.failures.push_back(query + ": " + why);
    }
  }
  ProgramMetrics probe_delta =
      ProgramMetrics::Take(kCounters, kHistograms).Since(probe_before);
  double probe_routine_us = 0;
  for (const RoutineSpan& r : probes.routines.Snapshot()) {
    probe_routine_us += static_cast<double>(r.end_us - r.start_us);
  }
  std::vector<double> probe_read_us = probes.archive.read_us.Snapshot();
  probes.tracing = false;
  std::vector<double> write_ms = ingest_ms;
  write_ms.insert(write_ms.end(), recal_ms.begin(), recal_ms.end());

  // Real-time guard: no modeled sleep, no modeled cost.
  const Stack::ModeledCosts& costs = stack->modeled_costs();
  std::vector<std::string> guard;
  if (probes.clock.modeled_sleeps() != 0) {
    guard.push_back(StrFormat("%lld modeled sleeps (%lld us)",
                              (long long)probes.clock.modeled_sleeps(),
                              (long long)probes.clock.modeled_sleep_us()));
  }
  if (costs.connection_setup != 0 || costs.session_setup != 0 ||
      costs.idl_work_units_per_second > 0 ||
      costs.archive_read_latency != 0 ||
      costs.archive_read_micros_per_kb != 0 ||
      costs.archive_write_latency != 0 ||
      costs.archive_write_micros_per_kb != 0) {
    guard.push_back("a modeled archive, IDL or session cost is nonzero");
  }

  int64_t attempted = open.attempted + closed.attempted + after.attempted;
  int64_t failed = open.failed + closed.failed + after.failed;
  bool correct = failed == 0 && guard.empty();

  // ------------------------------------------------------------ report
  std::printf("run: workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(), (unsigned long long)args.seed,
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: nproc=%zu compiler=\"%s\" build_type=%s git_sha=%s\n",
              nproc, HEDCBENCH_COMPILER, HEDCBENCH_BUILD_TYPE,
              args.git_sha.c_str());
  std::printf("wal: memfd filesystem=%s flush=group-commit+fsync\n",
              FilesystemOf(stack->wal_path()).c_str());
  std::printf("dataset: units=%zu hles=%zu photons=%zu packed_bytes=%llu "
              "reserve_units=%zu\n",
              units.size(), state.hles.size(), dataset.photons,
              (unsigned long long)dataset.packed_bytes,
              dataset.reserve.size());
  std::printf("memory: process=%.1f MB, benchmark inputs=%.1f MB\n",
              process_mb, inputs_mb);
  std::printf("caches: product_cache=%llu of %llu bytes after the phases\n",
              (unsigned long long)product_cache_bytes,
              (unsigned long long)product_cache_capacity);
  std::printf("requests: open=%zu at %.0f/s, closed=%zu on %zu connections, "
              "checksum=%016llx\n",
              n_open, workload->offered_rps, n_closed, load.clients(),
              (unsigned long long)checksum);
  std::printf("guard: clock_sleep_calls=%lld modeled_sleeps=%lld %s\n",
              (long long)probes.clock.calls(),
              (long long)probes.clock.modeled_sleeps(),
              guard.empty() ? "ok" : "FAILED");
  for (const std::string& g : guard) {
    std::printf("guard failure: %s\n", g.c_str());
  }
  for (const PhaseResult* r : {&open, &closed, &after}) {
    for (const std::string& f : r->failures) {
      std::printf("failure: %s\n", f.c_str());
    }
  }
  std::printf("set-ups (s):");
  for (double v : setup_s) std::printf(" %.3f", v);
  std::printf("\n");
  std::printf("phases: open %.2fs, closed %.2fs\n", open.elapsed_s,
              closed.elapsed_s);
  std::printf("host: cpu_steal=%.4f of all CPU time during the phases\n",
              Ratio(static_cast<double>(ticks_end.steal - ticks_start.steal),
                    static_cast<double>(ticks_end.total - ticks_start.total)));
  std::printf("closed-loop req/s by segment:");
  for (double r : segment_rps) std::printf(" %.0f", r);
  std::printf("\n");

  // The result line's end-to-end metrics (BENCHMARK.json end_to_end).
  std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"rss_mb", rss_mb, "MB"},
      {"approx_bound_ratio", Median(approx_answers.approx_ratio), "ratio"},
  };
  // Printed only, not in the result line (see README): the timings of
  // serving spread from run to run with the shared host's speed and CPU
  // steal more than a bound can allow, and error_frac is 0 on every
  // correct run.
  std::vector<Metric> printed_only = {
      {"p50_ms", Median(p50_windows) / 1000, "ms"},
      {"p99_ms", Median(p99_windows) / 1000, "ms"},
      {"capacity_rps",
       Ratio(static_cast<double>(closed.ok_2xx), closed.elapsed_s), "req/s"},
      {"write_p50_ms", Median(write_ms), "ms"},
      {"error_frac",
       Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
  };
  for (const auto* list : {&end_to_end, &printed_only}) {
    for (const Metric& m : *list) {
      std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const auto* windows : {&p50_windows, &p99_windows}) {
    std::printf("open-loop p%d by window (ms):",
                windows == &p50_windows ? 50 : 99);
    for (double v : *windows) std::printf(" %.3f", v / 1000);
    std::printf("\n");
  }
  std::printf("approx: %zu answers, bound/|exact| median count %.4g sum %.4g\n",
              approx_answers.approx_ratio.size(),
              Median(approx_answers.approx_ratio_count),
              Median(approx_answers.approx_ratio_sum));

  std::vector<Metric> result = end_to_end;
  if (args.trace) {
    LayerInputs in;
    in.open = &open;
    in.handlers = std::move(handler_spans);
    in.routines = std::move(routine_spans);
    in.delta = &delta;
    in.requests = open.attempted + closed.attempted;
    in.io_queries = io_queries;
    in.io_updates = io_updates;
    in.usage_rows = usage_rows;
    in.archive_read_us = archive_read_us;
    in.archive_write_us = archive_write_us;
    in.archive_read_bytes = archive_read_bytes;
    in.queue_depth_max = queue_depth_max.load();
    in.collected = &collected;
    in.approx = &approx_answers;
    in.ingest_ms = ingest_ms;
    in.recal_ms = recal_ms;
    in.probe_delta = &probe_delta;
    in.probe_analysis_ms = probe_analysis_ms;
    in.probe_routine_us = probe_routine_us;
    in.probe_read_us = probe_read_us;
    in.rps_traced = rps_traced;
    in.rps_untraced = rps_untraced;
    std::vector<std::string> notes;
    std::vector<Metric> layers = LayerMetrics(in, &notes);
    for (const std::string& n : notes) {
      std::printf("trace note: %s\n", n.c_str());
    }
    for (const Metric& m : layers) {
      std::printf("layer %s = %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    result.clear();
    for (const std::string& name : kPerLayerInResult) {
      for (const Metric& m : layers) {
        if (m.name == name) result.push_back(m);
      }
    }
    // Spans, written out once the run is over: each open-loop request
    // joined with its handler span (-1 where none was recorded).
    std::string path = StrFormat("%s/spans-%s-%llu.tsv", args.state_dir.c_str(),
                                 args.workload.c_str(),
                                 (unsigned long long)args.seed);
    std::map<int64_t, const HandlerSpan*> handler_by_rid;
    for (const HandlerSpan& h : in.handlers) handler_by_rid[h.rid] = &h;
    std::ofstream spans(path);
    spans << "rid\tpath\tsched_us\tsent_us\thandler_start_us\t"
             "handler_end_us\tarchive_us\tdone_us\tok\n";
    for (const ClientSpan& c : open.spans) {
      auto h = handler_by_rid.find(c.rid);
      bool joined = h != handler_by_rid.end();
      spans << c.rid << '\t' << KindPath(c.kind) << '\t' << c.sched_us
            << '\t' << c.sent_us << '\t'
            << (joined ? h->second->start_us : -1) << '\t'
            << (joined ? h->second->end_us : -1) << '\t'
            << (joined ? h->second->archive_us : -1) << '\t' << c.done_us
            << '\t' << c.ok << '\n';
    }
    std::printf("spans: %s\n", path.c_str());
  }

  stack.reset();
  std::fflush(stdout);
  std::printf("%s\n", ResultLine(correct, attempted, failed, result).c_str());
  return correct ? 0 : 1;
}
