// The full single-node HEDC stack as the benchmark boots it, plus the
// benchmark-side probes that sit at boundaries the benchmark owns:
//  * CountingClock — the stack's Clock: steady-clock time, and a count of
//    every SleepFor so a modeled sleep can never hide in the numbers;
//  * TimedArchive — an Archive decorator registered in ArchiveManager
//    around DiskArchive;
//  * TimedRoutine — an AnalysisRoutine decorator around each standard
//    routine the IDL servers run.
// Program defaults are kept everywhere except the modeled costs, which
// are zeroed (and checked by the real-time guard after a run).
#ifndef HEDCBENCH_STACK_H_
#define HEDCBENCH_STACK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/routine.h"
#include "archive/archive.h"
#include "archive/name_mapper.h"
#include "core/clock.h"
#include "db/database.h"
#include "dm/dm.h"
#include "dm/process_layer.h"
#include "pl/frontend.h"
#include "pl/product_cache.h"
#include "pl/server_manager.h"
#include "web/http_tcp.h"
#include "web/web_server.h"

namespace hedcbench {

using hedc::Micros;

// Microseconds on the steady clock (shared by client and server threads).
Micros NowUs();
// Nanoseconds on the same clock, for the archive's sub-microsecond calls.
int64_t NowNs();

class CountingClock : public hedc::Clock {
 public:
  Micros Now() const override { return NowUs(); }
  void SleepFor(Micros duration) override;

  int64_t calls() const { return calls_.load(); }
  int64_t modeled_sleeps() const { return modeled_sleeps_.load(); }
  int64_t modeled_sleep_us() const { return modeled_sleep_us_.load(); }

 private:
  std::atomic<int64_t> calls_{0};
  std::atomic<int64_t> modeled_sleeps_{0};
  std::atomic<int64_t> modeled_sleep_us_{0};
};

// Thread-safe append-only sample list.
class Samples {
 public:
  void Add(double v);
  std::vector<double> Snapshot() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

// Which request (if any) the current server thread is handling; set by
// the HTTP handler wrapper so archive spans can be joined to it.
struct RequestContext {
  int64_t rid = 0;
  int64_t archive_us = 0;
};
RequestContext& CurrentRequest();

struct ArchiveProbe {
  Samples read_us;   // one sample per Read / ReadRange call
  Samples write_us;  // one sample per Write call
  std::atomic<int64_t> read_bytes{0};
  void Clear();
};

class TimedArchive : public hedc::archive::Archive {
 public:
  TimedArchive(std::unique_ptr<hedc::archive::Archive> inner,
               ArchiveProbe* probe, const std::atomic<bool>* tracing)
      : inner_(std::move(inner)), probe_(probe), tracing_(tracing) {}

  hedc::archive::ArchiveType type() const override { return inner_->type(); }
  hedc::Status Write(const std::string& path,
                     const std::vector<uint8_t>& data) override;
  hedc::Result<std::vector<uint8_t>> Read(const std::string& path) override;
  bool Exists(const std::string& path) const override {
    return inner_->Exists(path);
  }
  hedc::Status Delete(const std::string& path) override {
    return inner_->Delete(path);
  }
  std::vector<std::string> List() const override { return inner_->List(); }
  hedc::Result<uint64_t> SizeOf(const std::string& path) override {
    return inner_->SizeOf(path);
  }
  hedc::Result<size_t> ReadRange(const std::string& path, uint64_t offset,
                                 uint8_t* out, size_t len) override;
  uint64_t BytesStored() const override { return inner_->BytesStored(); }

 private:
  void RecordRead(int64_t start_ns, size_t bytes);

  std::unique_ptr<hedc::archive::Archive> inner_;
  ArchiveProbe* probe_;
  const std::atomic<bool>* tracing_;  // records nothing while false
};

// One IDL routine execution, keyed so the /analyze request that caused
// it can be found: routine name + canonical parameters.
struct RoutineSpan {
  std::string key;
  Micros start_us = 0;
  Micros end_us = 0;
};

class RoutineProbe {
 public:
  void Add(RoutineSpan span);
  std::vector<RoutineSpan> Snapshot() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<RoutineSpan> spans_;
};

std::string RoutineKey(const std::string& routine,
                       const hedc::analysis::AnalysisParams& params);

class TimedRoutine : public hedc::analysis::AnalysisRoutine {
 public:
  TimedRoutine(const hedc::analysis::AnalysisRoutine* inner,
               RoutineProbe* probe, const std::atomic<bool>* tracing)
      : inner_(inner), probe_(probe), tracing_(tracing) {}

  std::string name() const override { return inner_->name(); }
  hedc::Result<hedc::analysis::AnalysisProduct> Run(
      const hedc::rhessi::PhotonList& photons,
      const hedc::analysis::AnalysisParams& params) const override;
  double EstimateWorkUnits(
      size_t photon_count,
      const hedc::analysis::AnalysisParams& params) const override {
    return inner_->EstimateWorkUnits(photon_count, params);
  }

 private:
  const hedc::analysis::AnalysisRoutine* inner_;
  RoutineProbe* probe_;
  const std::atomic<bool>* tracing_;  // records nothing while false
};

// Shared by every stack a run boots; outlives them.
struct Probes {
  CountingClock clock;
  ArchiveProbe archive;
  RoutineProbe routines;
  // Off in measured runs: the handler wrapper then only dispatches and
  // the decorators only forward.
  std::atomic<bool> tracing{false};
};

// One handler span: entry/exit of WebServer::Dispatch on a server worker,
// with the archive time spent on that thread meanwhile.
struct HandlerSpan {
  int64_t rid = 0;
  Micros start_us = 0;
  Micros end_us = 0;
  int64_t archive_us = 0;
};

// The WAL lives in an anonymous tmpfs file (memfd), so fsync costs what it
// costs on tmpfs and no disk shared with other tenants sets the numbers.
// The file goes away with the process.
class MemoryWal {
 public:
  MemoryWal();
  ~MemoryWal();
  MemoryWal(const MemoryWal&) = delete;
  MemoryWal& operator=(const MemoryWal&) = delete;

  bool ok() const { return fd_ >= 0; }
  // A path that opens this file ("/proc/self/fd/N").
  std::string path() const;

 private:
  int fd_ = -1;
};

class Stack {
 public:
  explicit Stack(Probes* probes);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Boot everything up to (not including) the HTTP listener.
  hedc::Status Boot();
  hedc::Result<hedc::dm::DataLoadReport> Load(
      const std::vector<uint8_t>& packed);
  // Starts the reactor-backed HTTP server on an ephemeral port.
  hedc::Status Serve();
  int port() const { return http_->port(); }
  void StopServing();

  // Handler spans recorded while probes->tracing is on.
  std::vector<HandlerSpan> TakeHandlerSpans();

  // The modeled costs this stack was booted with; all must be zero.
  struct ModeledCosts {
    Micros connection_setup = 0;
    Micros session_setup = 0;
    double idl_work_units_per_second = 0;
    Micros archive_read_latency = 0;
    double archive_read_micros_per_kb = 0;
    Micros archive_write_latency = 0;
    double archive_write_micros_per_kb = 0;
  };
  const ModeledCosts& modeled_costs() const { return costs_; }

  hedc::db::Database& db() { return db_; }
  hedc::dm::DataManager& dm() { return *data_manager_; }
  hedc::dm::ProcessLayer& process() { return *process_; }
  hedc::pl::ProductCache& product_cache() { return *product_cache_; }
  const hedc::dm::Session& import_session() const { return import_session_; }
  std::string wal_path() const { return wal_.path(); }

 private:
  hedc::web::HttpResponse Handle(const hedc::web::HttpRequest& request);

  Probes* probes_;
  MemoryWal wal_;
  ModeledCosts costs_;

  hedc::db::Database db_;
  hedc::archive::ArchiveManager archives_;
  std::unique_ptr<hedc::archive::NameMapper> mapper_;
  std::unique_ptr<hedc::dm::DataManager> data_manager_;
  std::unique_ptr<hedc::dm::ProcessLayer> process_;
  hedc::dm::Session import_session_;
  std::unique_ptr<hedc::analysis::RoutineRegistry> standard_routines_;
  std::unique_ptr<hedc::analysis::RoutineRegistry> timed_routines_;
  std::unique_ptr<hedc::pl::IdlServerManager> manager_;
  hedc::pl::GlobalDirectory directory_;
  std::unique_ptr<hedc::pl::DurationPredictor> predictor_;
  std::unique_ptr<hedc::pl::ProductCache> product_cache_;
  std::unique_ptr<hedc::pl::Frontend> frontend_;
  std::unique_ptr<hedc::web::WebServer> web_server_;
  std::unique_ptr<hedc::web::HttpTcpServer> http_;

  std::mutex spans_mu_;
  std::vector<HandlerSpan> spans_;
};

}  // namespace hedcbench

#endif  // HEDCBENCH_STACK_H_
