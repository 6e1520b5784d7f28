#include "cluster/node.h"

#include <sys/stat.h>

#include <algorithm>

#include "dm/hedc_schema.h"

namespace hedc::cluster {

SharedGate::SharedGate(int slots, Micros floor, Clock* clock)
    : slots_(slots), floor_(floor), clock_(clock) {}

Micros SharedGate::Charge(const std::function<void()>& fn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (active_ < slots_ && waiters_.empty()) {
      ++active_;
    } else {
      Waiter waiter;
      waiters_.push_back(&waiter);
      waiter.admitted_cv.wait(lock, [&waiter] { return waiter.admitted; });
    }
  }
  Micros start = clock_->Now();
  fn();
  Micros elapsed = clock_->Now() - start;
  if (floor_ > elapsed) {
    clock_->SleepFor(floor_ - elapsed);
    elapsed = floor_;
  }
  busy_us_.fetch_add(elapsed, std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (waiters_.empty()) {
      --active_;
    } else {
      // Hand the slot over; active_ already counts it.
      Waiter* next = waiters_.front();
      waiters_.pop_front();
      next->admitted = true;
      next->admitted_cv.notify_one();
    }
  }
  return elapsed;
}

NodeGate::NodeGate(dm::RmiHandler* inner, int slots, Micros service_floor,
                   Clock* clock, MetricsRegistry* metrics,
                   SharedGate* shared_db)
    : inner_(inner),
      slots_(slots),
      service_floor_(service_floor),
      clock_(clock),
      shared_db_(shared_db),
      inflight_gauge_(metrics->GetGauge("cluster.node.inflight")),
      queued_(metrics->GetCounter("cluster.node.queued")) {}

std::vector<uint8_t> NodeGate::Handle(const std::vector<uint8_t>& request) {
  if (slots_ > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    if (active_ >= slots_) queued_->Add();
    slot_free_.wait(lock, [this] { return active_ < slots_; });
    ++active_;
  }
  inflight_gauge_->Add(1);
  Micros start = clock_->Now();
  std::vector<uint8_t> response;
  Micros db_charged = 0;
  if (shared_db_ != nullptr) {
    db_charged =
        shared_db_->Charge([&] { response = inner_->Handle(request); });
  } else {
    response = inner_->Handle(request);
  }
  Micros elapsed = clock_->Now() - start;
  // The service floor is the node's app-logic demand, charged on top of
  // whatever the (possibly shared) database tier took.
  Micros target = service_floor_ + db_charged;
  if (target > elapsed) {
    clock_->SleepFor(target - elapsed);
    elapsed = target;
  }
  busy_us_.fetch_add(elapsed, std::memory_order_relaxed);
  handled_.fetch_add(1, std::memory_order_relaxed);
  inflight_gauge_->Add(-1);
  if (slots_ > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    slot_free_.notify_one();
  }
  return response;
}

ClusterNode::ClusterNode(std::string name, NodeOptions options, Clock* clock)
    : name_(std::move(name)), options_(std::move(options)), clock_(clock) {}

ClusterNode::~ClusterNode() { StopServing(); }

Status ClusterNode::Boot() {
  HEDC_RETURN_IF_ERROR(dm::CreateFullSchema(&db_));
  if (!options_.wal_dir.empty()) {
    ::mkdir(options_.wal_dir.c_str(), 0755);  // EEXIST is fine
    HEDC_RETURN_IF_ERROR(
        db_.OpenWal(options_.wal_dir + "/" + name_ + ".wal"));
  }
  archives_.Register({1, archive::ArchiveType::kDisk, "raid1", true},
                     std::make_unique<archive::DiskArchive>());
  Config mapper_config;
  mapper_config.Set("root.filename", "/hedc");
  mapper_ = std::make_unique<archive::NameMapper>(&db_, mapper_config);
  HEDC_RETURN_IF_ERROR(mapper_->Init());
  HEDC_RETURN_IF_ERROR(mapper_->RegisterArchive(1, "disk", "raid1"));
  dm_ = std::make_unique<dm::DataManager>(name_, &db_, &archives_,
                                          mapper_.get(), clock_, options_.dm);
  process_ = std::make_unique<dm::ProcessLayer>(dm_.get(), 1);
  if (options_.enable_product_cache) {
    cache_ = std::make_unique<pl::ProductCache>(dm_.get(), options_.cache);
    HEDC_RETURN_IF_ERROR(cache_->LoadFromDm());
  }
  // Identity row (allocated first, so user_id 1): "SELECT name FROM users
  // WHERE user_id = 1" answers with the serving node's name, which the
  // routing tests key on. Goes through the user manager so its id
  // generator stays consistent for users created later.
  HEDC_RETURN_IF_ERROR(
      dm_->users().CreateUser(name_, "node-identity", dm::UserProfile{})
          .status());
  rmi_ = std::make_unique<dm::RmiServer>(dm_.get(), &metrics_);
  gate_ = std::make_unique<NodeGate>(rmi_.get(), options_.executor_slots,
                                     options_.service_floor, clock_,
                                     &metrics_, options_.shared_db);
  dm::TcpRmiServer::Options rmi_options = options_.rmi;
  rmi_options.reactor.workers =
      std::max(rmi_options.reactor.workers, options_.executor_slots);
  tcp_ = std::make_unique<dm::TcpRmiServer>(gate_.get(), &metrics_,
                                            rmi_options);
  return StartServing();
}

Status ClusterNode::StartServing() {
  if (tcp_ == nullptr) return Status::FailedPrecondition("node not booted");
  return tcp_->Start();
}

void ClusterNode::StopServing() {
  if (tcp_ != nullptr) tcp_->Stop();
}

}  // namespace hedc::cluster
