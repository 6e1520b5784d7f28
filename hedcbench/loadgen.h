// HTTP load generation: one thread and one keep-alive connection per
// client, at most nproc of each.
//  * Open loop: Poisson arrivals on a precomputed schedule; each latency
//    runs from the request's scheduled send time, so a stall is charged
//    to every request due during it.
//  * Closed loop: each client sends its next request when the previous
//    one has completed; a fixed request count, never a fixed duration.
#ifndef HEDCBENCH_LOADGEN_H_
#define HEDCBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "http_client.h"
#include "workloads.h"

namespace hedcbench {

struct ClientSpan {
  int64_t rid = 0;
  Kind kind = Kind::kHle;
  int64_t sched_us = 0;
  int64_t sent_us = 0;
  int64_t done_us = 0;
  bool ok = false;
  std::string routine_key;
};

struct PhaseResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t ok_2xx = 0;  // correct 2xx responses
  double elapsed_s = 0;
  std::vector<double> late_us;     // scheduled send -> actual send
  std::vector<ClientSpan> spans;   // every request, in completion order
  std::vector<std::string> failures;  // first few reasons

  void Merge(PhaseResult other);
};

class LoadGenerator {
 public:
  // One client per cookie; `cookies[i]` is client i's session cookie.
  LoadGenerator(int port, std::vector<std::string> cookies, Checker* checker);

  size_t clients() const { return clients_.size(); }

  PhaseResult RunOpen(const std::vector<Request>& requests,
                      const std::vector<int64_t>& offsets_us,
                      int64_t rid_base);
  PhaseResult RunClosed(const std::vector<Request>& requests,
                        int64_t rid_base);

  // One request on client 0 outside any phase (set-up and verification).
  HttpResult Get(const std::string& target);

 private:
  PhaseResult Run(const std::vector<Request>& requests,
                  const std::vector<int64_t>* offsets_us, int64_t rid_base);

  std::vector<std::unique_ptr<HttpClient>> clients_;
  std::vector<std::string> cookies_;
  Checker* checker_;
};

}  // namespace hedcbench

#endif  // HEDCBENCH_LOADGEN_H_
