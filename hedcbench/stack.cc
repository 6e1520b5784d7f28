#include "stack.h"

#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "core/config.h"
#include "dm/hedc_schema.h"
#include "pl/commit.h"

namespace hedcbench {

using namespace hedc;

Micros NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CountingClock::SleepFor(Micros duration) {
  calls_.fetch_add(1);
  if (duration <= 0) return;
  modeled_sleeps_.fetch_add(1);
  modeled_sleep_us_.fetch_add(duration);
  std::this_thread::sleep_for(std::chrono::microseconds(duration));
}

void Samples::Add(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  values_.push_back(v);
}

std::vector<double> Samples::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

void Samples::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  values_.clear();
}

RequestContext& CurrentRequest() {
  thread_local RequestContext context;
  return context;
}

void ArchiveProbe::Clear() {
  read_us.Clear();
  write_us.Clear();
  read_bytes = 0;
}

void TimedArchive::RecordRead(int64_t start_ns, size_t bytes) {
  int64_t elapsed_ns = NowNs() - start_ns;
  probe_->read_us.Add(static_cast<double>(elapsed_ns) / 1000);
  probe_->read_bytes.fetch_add(static_cast<int64_t>(bytes));
  RequestContext& context = CurrentRequest();
  if (context.rid != 0) context.archive_us += elapsed_ns / 1000;
}

Status TimedArchive::Write(const std::string& path,
                           const std::vector<uint8_t>& data) {
  if (!tracing_->load(std::memory_order_relaxed)) {
    return inner_->Write(path, data);
  }
  int64_t start_ns = NowNs();
  Status status = inner_->Write(path, data);
  int64_t elapsed_ns = NowNs() - start_ns;
  probe_->write_us.Add(static_cast<double>(elapsed_ns) / 1000);
  RequestContext& context = CurrentRequest();
  if (context.rid != 0) context.archive_us += elapsed_ns / 1000;
  return status;
}

Result<std::vector<uint8_t>> TimedArchive::Read(const std::string& path) {
  if (!tracing_->load(std::memory_order_relaxed)) return inner_->Read(path);
  int64_t start_ns = NowNs();
  Result<std::vector<uint8_t>> data = inner_->Read(path);
  RecordRead(start_ns, data.ok() ? data.value().size() : 0);
  return data;
}

Result<size_t> TimedArchive::ReadRange(const std::string& path,
                                       uint64_t offset, uint8_t* out,
                                       size_t len) {
  if (!tracing_->load(std::memory_order_relaxed)) {
    return inner_->ReadRange(path, offset, out, len);
  }
  int64_t start_ns = NowNs();
  Result<size_t> n = inner_->ReadRange(path, offset, out, len);
  RecordRead(start_ns, n.ok() ? n.value() : 0);
  return n;
}

void RoutineProbe::Add(RoutineSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<RoutineSpan> RoutineProbe::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void RoutineProbe::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::string RoutineKey(const std::string& routine,
                       const analysis::AnalysisParams& params) {
  return routine + "|" + params.Canonical();
}

Result<analysis::AnalysisProduct> TimedRoutine::Run(
    const rhessi::PhotonList& photons,
    const analysis::AnalysisParams& params) const {
  if (!tracing_->load(std::memory_order_relaxed)) {
    return inner_->Run(photons, params);
  }
  RoutineSpan span;
  span.start_us = NowUs();
  Result<analysis::AnalysisProduct> product = inner_->Run(photons, params);
  span.end_us = NowUs();
  span.key = RoutineKey(inner_->name(), params);
  probe_->Add(std::move(span));
  return product;
}

MemoryWal::MemoryWal() : fd_(::memfd_create("hedc-wal", MFD_CLOEXEC)) {}

MemoryWal::~MemoryWal() {
  if (fd_ >= 0) ::close(fd_);
}

std::string MemoryWal::path() const {
  return "/proc/self/fd/" + std::to_string(fd_);
}

Stack::Stack(Probes* probes) : probes_(probes) {}

Stack::~Stack() {
  StopServing();
  // The DM's async pool and the PL's workers stop in member destructors,
  // which run in reverse declaration order (web first, db last).
}

Status Stack::Boot() {
  if (!wal_.ok()) return Status::Internal("memfd_create failed for the WAL");
  HEDC_RETURN_IF_ERROR(db_.OpenWal(wal_.path()));
  dm::CreateFullSchema(&db_);

  auto disk = std::make_unique<archive::DiskArchive>(&probes_->clock);
  archives_.Register(
      {1, archive::ArchiveType::kDisk, "raid1", true},
      std::make_unique<TimedArchive>(std::move(disk), &probes_->archive,
                                     &probes_->tracing));
  archive::DiskArchive::Costs disk_costs;  // what DiskArchive was given
  costs_.archive_read_latency = disk_costs.read_latency;
  costs_.archive_read_micros_per_kb = disk_costs.read_micros_per_kb;
  costs_.archive_write_latency = disk_costs.write_latency;
  costs_.archive_write_micros_per_kb = disk_costs.write_micros_per_kb;

  Config mapper_config;
  mapper_config.Set("root.filename", "/hedc");
  mapper_ = std::make_unique<archive::NameMapper>(&db_, mapper_config);
  mapper_->Init();
  mapper_->RegisterArchive(1, "disk", "raid1");

  // Modeled costs off; everything else keeps the program default.
  dm::DataManager::Options dm_options;
  dm_options.pool.connection_setup_cost = 0;
  dm_options.sessions.session_setup_cost = 0;
  costs_.connection_setup = dm_options.pool.connection_setup_cost;
  costs_.session_setup = dm_options.sessions.session_setup_cost;
  data_manager_ = std::make_unique<dm::DataManager>(
      "dm0", &db_, &archives_, mapper_.get(), &probes_->clock, dm_options);
  process_ = std::make_unique<dm::ProcessLayer>(data_manager_.get(), 1);

  dm::UserProfile import_user;
  import_user.is_super = true;
  HEDC_RETURN_IF_ERROR(
      data_manager_->users().CreateUser("import", "pw-import", import_user)
          .status());
  HEDC_ASSIGN_OR_RETURN(
      dm::UserProfile import_profile,
      data_manager_->users().Authenticate("import", "pw-import"));
  HEDC_ASSIGN_OR_RETURN(
      import_session_,
      data_manager_->sessions().GetOrCreate(import_profile, "127.0.0.1",
                                            "ck-import",
                                            dm::SessionKind::kHle));
  dm::UserProfile analyst;
  analyst.can_download = analyst.can_analyze = analyst.can_upload = true;
  HEDC_RETURN_IF_ERROR(
      data_manager_->users().CreateUser("analyst", "pw-analyst", analyst)
          .status());

  // PL: one host with two interpreters running the real routines, each
  // wrapped by the benchmark's timing decorator.
  standard_routines_ = analysis::CreateStandardRegistry();
  timed_routines_ = std::make_unique<analysis::RoutineRegistry>();
  for (const std::string& name : standard_routines_->Names()) {
    timed_routines_->Register(std::make_unique<TimedRoutine>(
        standard_routines_->Get(name), &probes_->routines,
        &probes_->tracing));
  }
  manager_ = std::make_unique<pl::IdlServerManager>(
      "host0", pl::IdlServerManager::Options{});
  pl::IdlServer::Options idl_options;
  costs_.idl_work_units_per_second = idl_options.work_units_per_second;
  for (const char* name : {"idl0", "idl1"}) {
    HEDC_RETURN_IF_ERROR(manager_->AddServer(std::make_unique<pl::IdlServer>(
        name, timed_routines_.get(), &probes_->clock, idl_options)));
  }
  directory_.Register("host0", manager_.get(), "local");
  predictor_ = std::make_unique<pl::DurationPredictor>();

  product_cache_ = std::make_unique<pl::ProductCache>(
      data_manager_.get(), pl::ProductCache::Options{});
  product_cache_->LoadFromDm();
  process_->SetDerivedProductInvalidator([this](int64_t unit_id) {
    product_cache_->InvalidateUnit(unit_id);
  });
  process_->SetAnaPurgeListener(
      [this](int64_t ana_id) { product_cache_->InvalidateAna(ana_id); });

  frontend_ = std::make_unique<pl::Frontend>(
      &directory_, predictor_.get(), &probes_->clock,
      pl::MakeDmCommitter(data_manager_.get(), import_session_, 1),
      pl::Frontend::Options{});
  frontend_->set_product_cache(product_cache_.get());

  web_server_ =
      std::make_unique<web::WebServer>(data_manager_.get(), frontend_.get());
  web_server_->RegisterStandardServlets();
  return Status::Ok();
}

Result<dm::DataLoadReport> Stack::Load(const std::vector<uint8_t>& packed) {
  return process_->LoadRawUnit(import_session_, packed);
}

Status Stack::Serve() {
  http_ = std::make_unique<web::HttpTcpServer>(
      [this](const web::HttpRequest& request) { return Handle(request); },
      nullptr, web::HttpTcpServer::Options::FromConfig(Config()));
  return http_->Start(0);
}

void Stack::StopServing() {
  if (http_ != nullptr) http_->Stop();
}

web::HttpResponse Stack::Handle(const web::HttpRequest& request) {
  if (!probes_->tracing.load(std::memory_order_relaxed)) {
    return web_server_->Dispatch(request);
  }
  // The bench_rid cookie is the benchmark's own; no servlet reads it.
  HandlerSpan span;
  span.rid = std::atoll(request.GetCookie("bench_rid", "0").c_str());
  RequestContext& context = CurrentRequest();
  context = RequestContext{span.rid, 0};
  span.start_us = NowUs();
  web::HttpResponse response = web_server_->Dispatch(request);
  span.end_us = NowUs();
  span.archive_us = context.archive_us;
  context = RequestContext{};
  std::lock_guard<std::mutex> lock(spans_mu_);
  spans_.push_back(span);
  return response;
}

std::vector<HandlerSpan> Stack::TakeHandlerSpans() {
  std::lock_guard<std::mutex> lock(spans_mu_);
  std::vector<HandlerSpan> out;
  out.swap(spans_);
  return out;
}

}  // namespace hedcbench
