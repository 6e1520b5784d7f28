#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "analysis/product.h"
#include "core/strings.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"
#include "wavelet/codec.h"
#include "web/http.h"

namespace hedcbench {

using namespace hedc;

// ---------------------------------------------------------------- dataset

namespace {

// Mirrors the binning of ProcessLayer's stored views: kViewBins bins over
// [t_start, t_stop + 1e-6).
BinnedSignal Bin(const rhessi::RawDataUnit& unit) {
  BinnedSignal out;
  out.counts.assign(kViewBins, 0.0);
  out.energies.assign(kViewBins, 0.0);
  double lo = unit.t_start;
  double hi = unit.t_stop + 1e-6;
  double width = (hi - lo) / static_cast<double>(kViewBins);
  for (const rhessi::PhotonEvent& p : unit.photons) {
    if (p.time_sec < lo || p.time_sec >= hi) continue;
    size_t b = static_cast<size_t>((p.time_sec - lo) / width);
    if (b >= kViewBins) b = kViewBins - 1;
    out.counts[b] += 1.0;
    out.energies[b] += p.energy_kev;
  }
  return out;
}

}  // namespace

Dataset MakeDataset(const DatasetShape& shape) {
  Dataset dataset;
  // The loaded dataset, then the reserve: telemetry of the hours after it,
  // drawn with the next seed and shifted to follow on.
  for (bool reserve : {false, true}) {
    rhessi::TelemetryOptions options;
    options.duration_sec = (reserve ? shape.reserve_hours : shape.hours) *
                           3600.0;
    options.flares_per_hour = shape.flares_per_hour;
    options.saa_per_hour = 0;
    options.seed = shape.telemetry_seed + (reserve ? 1 : 0);
    std::vector<rhessi::RawDataUnit> units;
    {
      rhessi::Telemetry telemetry = rhessi::GenerateTelemetry(options);
      if (reserve) {
        for (rhessi::PhotonEvent& p : telemetry.photons) {
          p.time_sec += shape.hours * 3600.0;
        }
      }
      units = rhessi::SegmentIntoUnits(
          telemetry.photons, shape.photons_per_unit,
          static_cast<int64_t>(dataset.truth.size()) + 1);
    }
    for (rhessi::RawDataUnit& unit : units) {
      std::vector<uint8_t> packed = unit.Pack();
      unit.photons = {};
      // The program stores and bins what Unpack yields (times to 1 us,
      // energies to 0.1 keV), so the truth is taken from the same bytes.
      Result<rhessi::RawDataUnit> stored =
          rhessi::RawDataUnit::Unpack(packed);
      if (!stored.ok()) continue;
      UnitTruth& truth = dataset.truth[unit.unit_id];
      truth.t_start = stored.value().t_start;
      truth.t_stop = stored.value().t_stop;
      truth.versions[stored.value().calibration_version] =
          Bin(stored.value());
      if (reserve) {
        dataset.reserve_ids.push_back(unit.unit_id);
        dataset.reserve.push_back(std::move(packed));
      } else {
        dataset.photons += stored.value().photons.size();
        dataset.packed_bytes += packed.size();
        dataset.packed.push_back(std::move(packed));
      }
    }
  }
  return dataset;
}

rhessi::CalibrationTable MakeCalibrations(uint64_t seed) {
  rhessi::CalibrationTable table;
  Rng rng(seed ^ 0xca11b7a7e5ull);
  for (int v = 2; v <= kCalibrationVersions; ++v) {
    rhessi::CalibrationVersion version;
    version.version = v;
    version.description = "benchmark recalibration";
    for (int d = 0; d < rhessi::kNumCollimators; ++d) {
      version.gain[d] = rng.Uniform(0.95, 1.05);
      version.offset_kev[d] = rng.Uniform(-0.5, 0.5);
    }
    table.Register(version);
  }
  return table;
}

// ------------------------------------------------------------- requests

const char* KindPath(Kind kind) {
  switch (kind) {
    case Kind::kCatalog: return "/catalog";
    case Kind::kHle: return "/hle";
    case Kind::kAna: return "/ana";
    case Kind::kImage: return "/image";
    case Kind::kExplore: return "/explore";
    case Kind::kView: return "/view";
    case Kind::kApprox: return "/approx";
    case Kind::kAnalyze: return "/analyze";
  }
  return "?";
}

// Offered rates are low enough that the seed keeps up to the end of the
// open loop despite the usage_stats insert cost growing with the table.
const Workload kWorkloads[3] = {
    {"browse", 400.0, 0.6, 2500.0, false},
    {"progressive", 400.0, 0.6, 2500.0, true},
    {"analyze", 60.0, 0.6, 120.0, false},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Request PageRequest(Kind kind, std::string target, int64_t id) {
  Request r;
  r.kind = kind;
  r.target = std::move(target);
  r.id = id;
  return r;
}

namespace {

// Units named by a request sent at `offset_us` must have been ingested
// this long before.
constexpr int64_t kIngestMarginUs = 3 * kMicrosPerSecond;
// A dashboard fetches every resolution of one unit, then these aggregates.
constexpr int kViewLevels = 11;  // log2(kViewBins) + 1
constexpr const char* kRoutines[3] = {"lightcurve", "histogram",
                                      "spectrogram"};

const ServedState::Hle* FindHle(const ServedState& state, int64_t id) {
  for (const ServedState::Hle& hle : state.hles) {
    if (hle.id == id) return &hle;
  }
  return nullptr;
}

}  // namespace

RequestGenerator::RequestGenerator(const Workload& workload, uint64_t seed,
                                   const ServedState* state)
    : workload_(workload), state_(state), rng_(seed) {
  // Zipf(1) popularity over a seeded permutation of the HLEs.
  size_t n = state_->hles.size();
  zipf_order_.resize(n);
  for (size_t i = 0; i < n; ++i) zipf_order_[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(zipf_order_[i - 1],
              zipf_order_[static_cast<size_t>(rng_.UniformInt(0, i - 1))]);
  }
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
}

int64_t RequestGenerator::PickZipfHle() {
  double u = rng_.NextDouble();
  size_t rank = static_cast<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin());
  rank = std::min(rank, zipf_order_.size() - 1);
  return state_->hles[zipf_order_[rank]].id;
}

Request RequestGenerator::Next(int64_t offset_us) {
  if (std::strcmp(workload_.name, "browse") == 0) return Browse();
  if (std::strcmp(workload_.name, "progressive") == 0) {
    return Progressive(offset_us);
  }
  return Analyze();
}

Request RequestGenerator::Browse() {
  Request r;
  double u = rng_.NextDouble();
  const auto& anas = state_->analyses;
  if (u < 0.55 || anas.empty()) {
    r.kind = Kind::kHle;
    r.id = PickZipfHle();
    r.target = StrFormat("/hle?id=%lld", (long long)r.id);
  } else if (u < 0.70) {
    r.kind = Kind::kCatalog;
    r.target = "/catalog?name=standard";
  } else if (u < 0.81) {
    r.kind = Kind::kAna;
    r.id = anas[static_cast<size_t>(rng_.UniformInt(0, anas.size() - 1))]
               .ana_id;
    r.target = StrFormat("/ana?id=%lld", (long long)r.id);
  } else if (u < 0.92) {
    r.kind = Kind::kImage;
    r.id = anas[static_cast<size_t>(rng_.UniformInt(0, anas.size() - 1))]
               .ana_id;
    r.target = StrFormat("/image?item=%lld", (long long)(2000000000 + r.id));
  } else {
    r.kind = Kind::kExplore;
    double t_lo = std::floor(rng_.Uniform(0, 5.5 * 3600.0));
    r.target = StrFormat("/explore?t_lo=%.0f&t_hi=%.0f&bins=32", t_lo,
                         t_lo + 1800.0);
  }
  return r;
}

Request RequestGenerator::Approx(int64_t unit, bool sum) {
  Request r;
  r.kind = Kind::kApprox;
  r.unit = unit;
  r.sum = sum;
  // A random range of whole view bins. The sent bounds sit mid-bin so the
  // servlet's floor/ceil lands exactly on [bin_lo, bin_hi).
  size_t len = static_cast<size_t>(rng_.UniformInt(8, kViewBins / 2));
  r.bin_lo = static_cast<size_t>(rng_.UniformInt(0, kViewBins - len));
  r.bin_hi = r.bin_lo + len;
  auto [t_start, t_stop] = state_->unit_domain.at(unit);
  double width = (t_stop + 1e-6 - t_start) / static_cast<double>(kViewBins);
  r.target = StrFormat(
      "/approx?unit=%lld&agg=%s&t_lo=%.9f&t_hi=%.9f", (long long)unit,
      sum ? "sum" : "count",
      t_start + (static_cast<double>(r.bin_lo) + 0.5) * width,
      t_start + (static_cast<double>(r.bin_hi) - 0.5) * width);
  return r;
}

Request RequestGenerator::Progressive(int64_t offset_us) {
  if (pending_.empty()) {
    std::vector<int64_t> units = state_->units;
    for (const auto& [unit, at_us] : state_->ingest_at_us) {
      if (at_us + kIngestMarginUs <= offset_us) units.push_back(unit);
    }
    int64_t unit =
        units[static_cast<size_t>(rng_.UniformInt(0, units.size() - 1))];
    // Emitted back to front: pending_ is popped from the back.
    pending_.push_back(Approx(unit, true));
    pending_.push_back(Approx(unit, false));
    pending_.push_back(Approx(unit, true));
    pending_.push_back(Approx(unit, false));
    for (int level = kViewLevels - 1; level >= 0; --level) {
      Request r;
      r.kind = Kind::kView;
      r.unit = unit;
      r.level = level;
      r.target = StrFormat("/view?unit=%lld&resolution=%d", (long long)unit,
                           level);
      pending_.push_back(r);
    }
  }
  Request r = pending_.back();
  pending_.pop_back();
  return r;
}

std::string AnalyzeRoutineKey(const std::string& query,
                              const ServedState& state) {
  size_t q = query.find('?');
  std::map<std::string, std::string> params =
      web::ParseQueryString(q == std::string::npos ? "" : query.substr(q + 1));
  analysis::AnalysisParams key;
  for (const auto& [k, v] : params) {
    if (k != "hle_id" && k != "routine") key.Set(k, v);
  }
  const ServedState::Hle* hle =
      FindHle(state, std::atoll(params["hle_id"].c_str()));
  if (hle != nullptr) {
    key.SetDouble("t_start", hle->t_start);
    key.SetDouble("t_end", hle->t_end);
  }
  return RoutineKey(params["routine"], key);
}

std::vector<std::string> PrepAnalysisQueries(uint64_t seed,
                                             const ServedState& state,
                                             size_t count) {
  std::vector<std::string> out;
  size_t n = state.hles.size();
  for (size_t i = 0; i < count && n > 0; ++i) {
    long long hle = (long long)state.hles[(i * 7 + seed) % n].id;
    switch (i % 3) {
      case 0:
        out.push_back(StrFormat(
            "/analyze?hle_id=%lld&routine=lightcurve&bin_sec=%zu", hle,
            2 + i));
        break;
      case 1:
        out.push_back(StrFormat(
            "/analyze?hle_id=%lld&routine=histogram&bins=%zu", hle, 300 + i));
        break;
      default:
        out.push_back(StrFormat(
            "/analyze?hle_id=%lld&routine=spectrogram&t_bins=%zu&e_bins=100",
            hle, 200 + i));
        break;
    }
  }
  return out;
}

std::vector<std::string> AnalysisProbeQueries(const ServedState& state,
                                              size_t count) {
  std::vector<std::string> out;
  size_t n = state.hles.size();
  for (size_t i = 0; i < count && n > 0; ++i) {
    long long hle = (long long)state.hles[(i * 11 + 3) % n].id;
    switch (i % 3) {
      case 0:
        out.push_back(StrFormat(
            "/analyze?hle_id=%lld&routine=lightcurve&bin_sec=%.3f", hle,
            1.25 + 0.01 * static_cast<double>(i)));
        break;
      case 1:
        out.push_back(StrFormat(
            "/analyze?hle_id=%lld&routine=histogram&bins=%zu&e_min=2.5", hle,
            40 + i));
        break;
      default:
        out.push_back(StrFormat(
            "/analyze?hle_id=%lld&routine=spectrogram&t_bins=%zu&e_bins=24",
            hle, 48 + i));
        break;
    }
  }
  return out;
}

Request RequestGenerator::Analyze() {
  Request r;
  double u = rng_.NextDouble();
  const auto& anas = state_->analyses;
  if (u < 0.12 || anas.empty()) {
    // Fresh parameters: unique per request, never seen by the cache.
    int64_t k = fresh_++;
    long long hle = (long long)state_->hles[static_cast<size_t>(
                                                rng_.UniformInt(
                                                    0, state_->hles.size() -
                                                           1))]
                        .id;
    const char* routine = kRoutines[k % 3];
    std::string extra;
    if (k % 3 == 0) {
      extra = StrFormat("bin_sec=%.4f", 0.5 + 0.0001 * static_cast<double>(k));
    } else if (k % 3 == 1) {
      extra = StrFormat("bins=%lld&e_min=%.4f", (long long)(32 + k % 97),
                        3.0 + 0.0001 * static_cast<double>(k));
    } else {
      extra = StrFormat("t_bins=%lld&e_bins=%lld", (long long)(64 + k % 128),
                        (long long)(32 + (k / 128) % 64));
    }
    r.kind = Kind::kAnalyze;
    r.target =
        StrFormat("/analyze?hle_id=%lld&routine=%s&", hle, routine) + extra;
  } else if (u < 0.62) {
    // Repeat of a committed analysis: the existing-ANA short-circuit.
    const ServedState::Ana& ana =
        anas[static_cast<size_t>(rng_.UniformInt(0, anas.size() - 1))];
    r.kind = Kind::kAnalyze;
    r.target = ana.query;
  } else {
    r.kind = Kind::kAna;
    r.id = anas[static_cast<size_t>(rng_.UniformInt(0, anas.size() - 1))]
               .ana_id;
    r.target = StrFormat("/ana?id=%lld", (long long)r.id);
  }
  if (r.kind == Kind::kAnalyze) {
    r.routine_key = AnalyzeRoutineKey(r.target, *state_);
  }
  return r;
}

// -------------------------------------------------------- moving archive

void VersionLog::Begin(int64_t unit, int version, int64_t at_us) {
  std::lock_guard<std::mutex> lock(mu_);
  windows_[unit].push_back({version, at_us, -1});
}

void VersionLog::End(int64_t unit, int version, int64_t at_us) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Window& w : windows_[unit]) {
    if (w.version == version) w.end_us = at_us;
  }
}

std::vector<int> VersionLog::Acceptable(int64_t unit, int64_t sent_us,
                                        int64_t done_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  int base = 1;
  std::vector<int> out;
  auto it = windows_.find(unit);
  if (it != windows_.end()) {
    for (const Window& w : it->second) {
      if (w.end_us >= 0 && w.end_us < sent_us) {
        base = w.version;
      } else if (w.start_us <= done_us) {
        out.push_back(w.version);  // recalibrating while in flight
      }
    }
  }
  out.push_back(base);
  return out;
}

std::vector<WriteOp> PlanWrites(uint64_t seed, size_t count,
                                int64_t period_us,
                                const std::vector<int64_t>& units,
                                const rhessi::CalibrationTable& cal,
                                Dataset* dataset) {
  Rng rng(seed ^ 0x3717e5ull);
  std::vector<WriteOp> ops;
  std::map<int64_t, rhessi::RawDataUnit> current;  // as stored, per unit
  size_t next_reserve = 0;
  for (size_t i = 0; i < count; ++i) {
    WriteOp op;
    op.at_us = static_cast<int64_t>(i) * period_us;
    if (i % 3 == 0 && next_reserve < dataset->reserve.size()) {
      op.ingest = true;
      op.reserve_index = next_reserve++;
      op.unit = dataset->reserve_ids[op.reserve_index];
      ops.push_back(op);
      continue;
    }
    op.unit = units[static_cast<size_t>(rng.UniformInt(0, units.size() - 1))];
    auto it = current.find(op.unit);
    if (it == current.end()) {
      Result<rhessi::RawDataUnit> stored = rhessi::RawDataUnit::Unpack(
          dataset->packed[static_cast<size_t>(op.unit - 1)]);
      if (!stored.ok()) continue;
      it = current.emplace(op.unit, std::move(stored).value()).first;
    }
    rhessi::RawDataUnit& unit = it->second;
    op.version = unit.calibration_version + 1;
    if (op.version > kCalibrationVersions) continue;
    // What RecalibrateUnit does: the view is binned from the recalibrated
    // photons, the next recalibration starts from the packed file.
    Result<rhessi::PhotonList> photons =
        cal.Recalibrate(unit.photons, unit.calibration_version, op.version);
    if (!photons.ok()) continue;
    rhessi::RawDataUnit next = unit;
    next.photons = std::move(photons).value();
    next.calibration_version = op.version;
    dataset->truth[op.unit].versions[op.version] = Bin(next);
    Result<rhessi::RawDataUnit> repacked =
        rhessi::RawDataUnit::Unpack(next.Pack());
    if (!repacked.ok()) continue;
    unit = std::move(repacked).value();
    ops.push_back(op);
  }
  return ops;
}

void Writer::Execute(const WriteOp& op) {
  int64_t start = NowUs();
  Status status;
  if (op.ingest) {
    status = stack_->Load(dataset_->reserve[op.reserve_index]).status();
  } else {
    versions_->Begin(op.unit, op.version, start);
    status = stack_->process()
                 .RecalibrateUnit(stack_->import_session(), op.unit, *cal_,
                                  op.version)
                 .status();
  }
  int64_t end = NowUs();
  if (!op.ingest) versions_->End(op.unit, op.version, end);
  std::lock_guard<std::mutex> lock(mu_);
  (op.ingest ? ingest_ms_ : recal_ms_)
      .push_back(static_cast<double>(end - start) / 1000.0);
  if (!status.ok()) {
    failures_.fetch_add(1);
    if (first_error_.empty()) first_error_ = status.ToString();
  }
}

void Writer::Start(std::vector<WriteOp> ops) {
  stop_ = false;
  thread_ = std::thread([this, ops = std::move(ops)] {
    int64_t base = NowUs();
    for (const WriteOp& op : ops) {
      while (!stop_.load() && NowUs() < base + op.at_us) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (stop_.load()) return;
      Execute(op);
    }
  });
}

void Writer::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

void Writer::RunNow(const std::vector<WriteOp>& ops) {
  for (const WriteOp& op : ops) Execute(op);
}

std::vector<double> Writer::ingest_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ingest_ms_;
}

std::vector<double> Writer::recal_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recal_ms_;
}

std::string Writer::first_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

// ---------------------------------------------------------------- checks

namespace {

bool Contains(const std::string& body, const std::string& what) {
  return body.find(what) != std::string::npos;
}

bool JsonNumber(const std::string& body, const char* key, double* out) {
  std::string needle = std::string("\"") + key + "\":";
  size_t pos = body.find(needle);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  const char* start = body.c_str() + pos + needle.size();
  *out = std::strtod(start, &end);
  return end != start;
}

}  // namespace

std::string Checker::Check(const Request& request, const HttpResult& result,
                           int64_t sent_us, int64_t done_us) {
  if (!result.ok) return "transport: " + result.error;
  if (result.status < 200 || result.status > 299) {
    return StrFormat("HTTP %d: %s", result.status,
                     result.body.substr(0, 160).c_str());
  }
  const std::string& body = result.body;
  switch (request.kind) {
    case Kind::kCatalog:
      return Contains(body, "Catalog standard") ? "" : "catalog page";
    case Kind::kHle:
      return Contains(body, StrFormat("<h2>HLE %lld (", (long long)request.id))
                 ? ""
                 : "HLE page does not name the HLE";
    case Kind::kAna:
      return Contains(body, StrFormat("Analysis %lld", (long long)request.id))
                 ? ""
                 : "ANA page does not name the analysis";
    case Kind::kImage: {
      std::vector<uint8_t> bytes(body.begin(), body.end());
      return analysis::ParseRenderedImage(bytes).ok() ? "" : "bad image";
    }
    case Kind::kExplore:
      return Contains(body, " clusters</p>") ? "" : "explore page";
    case Kind::kView: {
      wavelet::PrefixInfo info;
      Result<std::vector<double>> signal = wavelet::DecodeSignalPrefix(
          reinterpret_cast<const uint8_t*>(body.data()), body.size(), &info);
      if (!signal.ok()) return "view: " + signal.status().ToString();
      size_t want = std::min<size_t>(static_cast<size_t>(request.level) + 1,
                                     info.levels_total);
      if (info.original_len != kViewBins || info.levels_complete < want) {
        return StrFormat("view: %zu levels of %zu bins decoded, wanted %zu",
                         info.levels_complete, info.original_len, want);
      }
      std::lock_guard<std::mutex> lock(mu_);
      collected_.view_bytes.push_back(static_cast<double>(body.size()));
      return "";
    }
    case Kind::kApprox:
      return CheckApprox(request, body, sent_us, done_us);
    case Kind::kAnalyze: {
      size_t pos = body.find("ANA ");
      int64_t ana = pos == std::string::npos
                        ? 0
                        : std::atoll(body.c_str() + pos + 4);
      if (ana <= 0) return "analyze: no ANA link";
      std::lock_guard<std::mutex> lock(mu_);
      collected_.analyze_ana_ids.push_back(ana);
      return "";
    }
  }
  return "unknown request kind";
}

std::string Checker::CheckApprox(const Request& request,
                                 const std::string& body, int64_t sent_us,
                                 int64_t done_us) {
  double estimate = 0, bound = 0, bytes_read = 0;
  if (!JsonNumber(body, "estimate", &estimate) ||
      !JsonNumber(body, "error_bound", &bound) ||
      !JsonNumber(body, "bytes_read", &bytes_read) ||
      !Contains(body, "\"method\":\"wavelet-prefix\"")) {
    return "approx: malformed answer " + body.substr(0, 160);
  }
  auto truth = dataset_->truth.find(request.unit);
  if (truth == dataset_->truth.end()) return "approx: unit without truth";
  std::vector<int> versions =
      versions_->Acceptable(request.unit, sent_us, done_us);
  std::string why = "approx: no truth for the live version";
  for (auto v = versions.rbegin(); v != versions.rend(); ++v) {
    auto signal = truth->second.versions.find(*v);
    if (signal == truth->second.versions.end()) continue;
    const std::vector<double>& bins =
        request.sum ? signal->second.energies : signal->second.counts;
    double exact = 0;
    for (size_t b = request.bin_lo; b < request.bin_hi; ++b) exact += bins[b];
    // The servlet prints six decimals; allow for that rounding.
    double slack = 1e-5 + 1e-9 * std::fabs(exact);
    if (std::fabs(estimate - exact) > bound + slack) {
      why = StrFormat("approx: unit %lld v%d %s [%zu,%zu): |%.3f - %.3f| > "
                      "bound %.3f",
                      (long long)request.unit, *v,
                      request.sum ? "sum" : "count", request.bin_lo,
                      request.bin_hi, estimate, exact, bound);
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (exact != 0) {
      double ratio = bound / std::fabs(exact);
      collected_.approx_ratio.push_back(ratio);
      (request.sum ? collected_.approx_ratio_sum
                   : collected_.approx_ratio_count)
          .push_back(ratio);
    }
    collected_.approx_bytes_read.push_back(bytes_read);
    return "";
  }
  return why;
}

Checker::Collected Checker::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  Collected out = std::move(collected_);
  collected_ = Collected{};
  return out;
}

}  // namespace hedcbench
