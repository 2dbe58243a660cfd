// The discrete-event simulator driving every NetRS experiment.
//
// Single-threaded and deterministic: components schedule callbacks at
// absolute or relative simulated times, and `run()` fires them in
// (time, scheduling-order) order. There is no wall-clock coupling.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "sim/affinity.hpp"
#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace netrs::obs {
/// Forward declaration (obs/observer.hpp); sim never includes obs.
class Observer;
}  // namespace netrs::obs

namespace netrs::sim {

/// The discrete-event scheduler: absolute/relative/periodic scheduling,
/// deterministic (time, scheduling-order) dispatch, and the attachment
/// points for the invariant auditor and the observability hub.
class Simulator {
 public:
  /// Constructs an empty simulator at time 0 with the auditor attached.
  Simulator() {
    auditor_.attach(this);
    queue_.set_auditor(&auditor_);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. 0 before the first event fires.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `cb` (any `void()` callable) at absolute time `t`; `t` must
  /// be >= now(). The callback becomes a sim::Task built in the queue's
  /// slot (captures up to Task::kInlineSize bytes never touch the heap), so
  /// its capture moves twice in all: into the slot, and out when it fires.
  template <typename F>
  EventId at(Time t, F&& cb) {
    return queue_.push(checked_time(t), std::forward<F>(cb), now_);
  }

  /// Schedules `cb` after a non-negative delay from now().
  template <typename F>
  EventId after(Duration d, F&& cb) {
    return at(now_ + checked_delay(d), std::forward<F>(cb));
  }

  /// Binds `fn(ctx, arg)` as a typed-entry handler on this simulator's
  /// queue. Bind once (per component and simulator), then schedule with
  /// the at()/after() overloads below; `ctx` must outlive the entries.
  HandlerId bind(HandlerFn fn, void* ctx) { return queue_.bind(fn, ctx); }

  /// Schedules handler `h` (bound on this simulator) to run with `arg` at
  /// absolute time `t`. It orders exactly as a Task pushed here would, but
  /// builds no callback object and cannot be cancelled.
  void at(Time t, HandlerId h, std::uint32_t arg) {
    queue_.push(checked_time(t), h, arg, now_);
  }

  /// Schedules handler `h` with `arg` after a non-negative delay.
  void after(Duration d, HandlerId h, std::uint32_t arg) {
    at(now_ + checked_delay(d), h, arg);
  }

  /// Schedules `cb` every `period` (> 0), first firing at now() + period.
  /// The periodic task stops when `cb` returns false or the simulation ends.
  void every(Duration period, std::function<bool()> cb);

  /// Cancels a pending Task; see EventQueue::cancel.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the queue drains or `stop()` is called. Returns the number
  /// of events fired.
  std::uint64_t run();

  /// Runs until simulated time would exceed `deadline` (events at exactly
  /// `deadline` still fire); leaves later events queued and sets now() to
  /// `deadline` if the queue outlives it. Returns events fired.
  std::uint64_t run_until(Time deadline);

  /// Requests that `run`/`run_until` return after the current event.
  void stop() { stopped_ = true; }

  /// Number of events fired so far (diagnostic).
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Live events still queued (diagnostic).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Timestamp of the earliest queued event, or kNever when the queue is
  /// empty (the ShardGroup coordinator peeks at global-event deadlines).
  /// Non-const: peeking caches the earliest event and may sweep cancelled
  /// entries.
  [[nodiscard]] Time next_event_time() { return queue_.next_time(); }

  /// Shard-ownership sentinel (checked builds; inline no-op otherwise).
  /// ShardGroup binds it for every shard simulator so at()/after() record
  /// foreign-simulator scheduling — an event pushed onto another shard's
  /// queue from the wrong thread — with owner/actor provenance. Unbound
  /// (serial mode, standalone simulators) it accepts every context.
  [[nodiscard]] ShardAffinityGuard& shard_affinity() { return affinity_; }
  /// Read-only guard access (tests inspect the bound owner).
  [[nodiscard]] const ShardAffinityGuard& shard_affinity() const {
    return affinity_;
  }

  /// Invariant auditor (checked builds; inline no-op otherwise). Components
  /// reach it through here to report conservation and causality violations.
  [[nodiscard]] Auditor& auditor() { return auditor_; }
  /// Read-only auditor access (summary extraction after a run).
  [[nodiscard]] const Auditor& auditor() const { return auditor_; }

  /// Attaches (or detaches, with nullptr) the observability hub. The
  /// simulator only stores the pointer — obs stays a layer above sim —
  /// and components reach tracing/metrics through observer(). The
  /// Observer must outlive the run.
  void set_observer(obs::Observer* o) { observer_ = o; }

  /// The attached observability hub, or nullptr when observability is
  /// off. Callers guard every record with this null check, which is the
  /// entire cost of a run without observability.
  [[nodiscard]] obs::Observer* observer() const { return observer_; }

 private:
  // Scheduling checks (shard affinity, causality); each returns its
  // argument clamped so that nothing is scheduled into the past. Inline:
  // every push runs them, and plain builds reduce them to the clamp.
  Time checked_time(Time t) {
    // Shard affinity: only the owning worker (or the coordinator between
    // windows) may push events onto a sharded simulator's queue.
    affinity_.check("schedule");
    // Causality: scheduling into the past would fire the callback at now()
    // anyway (the clamp below), silently reordering it after events it should
    // have preceded. Checked builds record the violation with provenance;
    // plain builds keep the original assert.
    if constexpr (kAuditEnabled) {
      auditor_.check(t >= now_, "schedule-into-past", [&] {
        return "event scheduled at t=" + std::to_string(t) +
               " ns while now=" + std::to_string(now_) + " ns (" +
               std::to_string(fired_) + " events fired, " +
               std::to_string(queue_.size()) + " pending); clamped to now";
      });
    } else {
      assert(t >= now_ && "cannot schedule into the past");
    }
    return t < now_ ? now_ : t;
  }

  Duration checked_delay(Duration d) {
    if constexpr (kAuditEnabled) {
      auditor_.check(d >= 0, "schedule-into-past", [&] {
        return "negative delay " + std::to_string(d) + " ns at now=" +
               std::to_string(now_) + " ns; clamped to zero";
      });
    } else {
      assert(d >= 0 && "negative delay");
    }
    return d < 0 ? 0 : d;
  }

  void schedule_tick(Duration period,
                     std::shared_ptr<std::function<bool()>> body);

  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
  Auditor auditor_;
  ShardAffinityGuard affinity_;
  obs::Observer* observer_ = nullptr;
};

}  // namespace netrs::sim
