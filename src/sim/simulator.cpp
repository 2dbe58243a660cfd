#include "sim/simulator.hpp"

#include <cassert>
#include <limits>
#include <memory>
#include <utility>

namespace netrs::sim {

void Simulator::every(Duration period, std::function<bool()> cb) {
  assert(period > 0);
  // The periodic body is heap-allocated once; each tick's event captures
  // only {this, period, shared_ptr} (32 bytes, inline in the Task), so
  // rescheduling allocates nothing.
  schedule_tick(period, std::make_shared<std::function<bool()>>(std::move(cb)));
}

void Simulator::schedule_tick(Duration period,
                              std::shared_ptr<std::function<bool()>> body) {
  after(period, [this, period, body = std::move(body)]() mutable {
    if ((*body)()) schedule_tick(period, std::move(body));
  });
}

std::uint64_t Simulator::run() {
  return run_until(std::numeric_limits<Time>::max());
}

std::uint64_t Simulator::run_until(Time deadline) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && !queue_.empty()) {
    if (queue_.next_time() > deadline) {
      now_ = deadline;
      return n;
    }
    auto [t, cb] = queue_.pop();
    // Causality: the queue's (time, seq) order guarantees fired times never
    // regress; a regression here means queue-state corruption.
    if constexpr (kAuditEnabled) {
      auditor_.check(t >= now_, "event-time-regression", [&] {
        return "popped event at t=" + std::to_string(t) +
               " ns behind now=" + std::to_string(now_) + " ns (" +
               std::to_string(fired_) + " events fired)";
      });
    } else {
      assert(t >= now_);
    }
    now_ = t;
    cb();
    ++n;
    ++fired_;
  }
  if (queue_.empty() && deadline != std::numeric_limits<Time>::max() &&
      now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

}  // namespace netrs::sim
