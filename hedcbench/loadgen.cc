#include "loadgen.h"

#include <time.h>

#include <atomic>
#include <thread>

namespace hedcbench {

namespace {

constexpr int kClientTimeoutMs = 30000;
constexpr size_t kFailuresKept = 5;

// Sleeps until `deadline_us` on the steady clock (CLOCK_MONOTONIC).
void SleepUntil(int64_t deadline_us) {
  timespec ts;
  ts.tv_sec = deadline_us / 1000000;
  ts.tv_nsec = (deadline_us % 1000000) * 1000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

}  // namespace

void PhaseResult::Merge(PhaseResult other) {
  attempted += other.attempted;
  failed += other.failed;
  ok_2xx += other.ok_2xx;
  late_us.insert(late_us.end(), other.late_us.begin(), other.late_us.end());
  for (ClientSpan& span : other.spans) spans.push_back(std::move(span));
  for (std::string& f : other.failures) {
    if (failures.size() < kFailuresKept) failures.push_back(std::move(f));
  }
}

LoadGenerator::LoadGenerator(int port, std::vector<std::string> cookies,
                             Checker* checker)
    : cookies_(std::move(cookies)), checker_(checker) {
  for (size_t i = 0; i < cookies_.size(); ++i) {
    clients_.push_back(std::make_unique<HttpClient>(port, kClientTimeoutMs));
  }
}

HttpResult LoadGenerator::Get(const std::string& target) {
  return clients_[0]->Get(target, cookies_[0]);
}

PhaseResult LoadGenerator::RunOpen(const std::vector<Request>& requests,
                                   const std::vector<int64_t>& offsets_us,
                                   int64_t rid_base) {
  return Run(requests, &offsets_us, rid_base);
}

PhaseResult LoadGenerator::RunClosed(const std::vector<Request>& requests,
                                     int64_t rid_base) {
  return Run(requests, nullptr, rid_base);
}

PhaseResult LoadGenerator::Run(const std::vector<Request>& requests,
                               const std::vector<int64_t>* offsets_us,
                               int64_t rid_base) {
  std::atomic<size_t> next{0};
  std::vector<PhaseResult> per_client(clients_.size());
  // Open loop: a short lead so every client is parked before the first
  // arrival is due.
  int64_t base = NowUs() + 20000;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients_.size(); ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& out = per_client[c];
      HttpClient& client = *clients_[c];
      for (;;) {
        size_t i = next.fetch_add(1);
        if (i >= requests.size()) break;
        const Request& request = requests[i];
        int64_t sched = 0;
        if (offsets_us != nullptr) {
          sched = base + (*offsets_us)[i];
          SleepUntil(sched);
        }
        int64_t rid = rid_base + static_cast<int64_t>(i);
        std::string cookie =
            cookies_[c] + "; bench_rid=" + std::to_string(rid);
        int64_t sent = NowUs();
        if (offsets_us == nullptr) sched = sent;
        HttpResult result = client.Get(request.target, cookie);
        int64_t done = NowUs();
        std::string why = checker_->Check(request, result, sent, done);
        ++out.attempted;
        if (why.empty()) {
          ++out.ok_2xx;
        } else {
          ++out.failed;
          if (out.failures.size() < kFailuresKept) {
            out.failures.push_back(request.target + ": " + why);
          }
        }
        out.late_us.push_back(static_cast<double>(sent - sched));
        out.spans.push_back({rid, request.kind, sched, sent, done,
                             why.empty(), request.routine_key});
      }
    });
  }
  int64_t start = offsets_us != nullptr ? base : NowUs();
  for (std::thread& t : threads) t.join();
  PhaseResult total;
  total.elapsed_s = static_cast<double>(NowUs() - start) / 1e6;
  for (PhaseResult& r : per_client) total.Merge(std::move(r));
  return total;
}

}  // namespace hedcbench
