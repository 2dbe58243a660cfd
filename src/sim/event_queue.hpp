// Deterministic event queue for the discrete-event simulator.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break by a monotonically increasing sequence number),
// which makes every run with the same seed bit-for-bit reproducible.
//
// The queue is allocation-free in steady state. An event is one of two
// kinds (DESIGN.md §4.8):
//   - a *typed entry*: a handler bound once per queue, `fn(ctx, arg)`,
//     plus a 32-bit argument. The entry is the whole event; there is no
//     callback object to build, move or destroy. Typed entries are not
//     cancellable. The fabric's deliveries use them.
//   - a *Task*: any `void()` callable, built as a sim::Task (small-buffer
//     inline storage) in a recycled slot arena. Cancellation is O(1) and
//     hash-free — an EventId encodes the slot index plus a generation tag,
//     so cancel() is a bounds check and a generation compare. Cancelling
//     destroys the callback (and everything it captured) eagerly; the slot
//     itself is tombstoned until its index entry surfaces.
// Both kinds share one ordering index of 24-byte (time, seq, handler, arg)
// entries; the Task arena is handler 0, with the slot as its argument.
//
// Ordering (DESIGN.md §4.8). Most simulator events fire a fixed delay after
// they are scheduled (link latency, accelerator RTT, fixed service times).
// A push whose delay `t - now` has recurred goes to a FIFO *delay lane* for
// that delay; every other push goes to one binary min-heap. The scheduling
// clock never goes backwards and seqs only grow, so appends keep a lane
// sorted by (time, seq) — and an append is only taken when `t` is no
// earlier than the lane's tail, so no lane choice can break the order. The
// earliest event is the (time, seq) minimum over the lane heads and the
// heap top; next_time() finds and caches it, and pop() takes it from there.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/audit.hpp"
#include "sim/ring_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace netrs::sim {

/// Identifies a scheduled Task so it can be cancelled. Encodes
/// (generation << 32) | slot; generations start at 1, so 0 is never a
/// valid id.
using EventId = std::uint64_t;

/// The function a typed entry runs: `ctx` as bound, `arg` as pushed.
using HandlerFn = void (*)(void* ctx, std::uint32_t arg);

/// A handler bound to one queue by EventQueue::bind (index 0, the Task
/// arena, is never handed out).
struct HandlerId {
  std::uint32_t index = 0;  ///< Position in the queue's handler table.
};

/// A fired event as pop() hands it out: a bound handler with its
/// argument, or a Task. Calling it runs the event.
class Event {
 public:
  /// An empty event. User-provided so that value-initialization (as in
  /// pop()'s std::pair) does not zero the Task's 120-byte buffer.
  Event() noexcept {}  // NOLINT(modernize-use-equals-default)

  /// Runs the event. Precondition: it came from pop().
  void operator()() {
    if (fn_ != nullptr) {
      fn_(ctx_, arg_);
    } else {
      task_();
    }
  }

 private:
  friend class EventQueue;
  HandlerFn fn_ = nullptr;  // null for a Task
  void* ctx_ = nullptr;
  std::uint32_t arg_ = 0;
  Task task_;
};

/// Scheduled-event priority queue with FIFO same-instant ordering, typed
/// entries beside a recycled Task slot arena with O(1) generation-tagged
/// cancellation, and fixed-delay FIFO lanes in front of a binary heap
/// (see the file comment).
class EventQueue {
 public:
  /// Constructs an empty queue.
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Binds `fn` with `ctx` for typed entries; `ctx` must outlive every
  /// entry pushed with the returned id.
  HandlerId bind(HandlerFn fn, void* ctx) {
    assert(fn != nullptr);
    handlers_.push_back({fn, ctx});
    return HandlerId{static_cast<std::uint32_t>(handlers_.size() - 1)};
  }

  /// Schedules a typed entry: `h`'s function runs with `arg` at absolute
  /// time `t`. It takes its seq now, like a Task push, and orders exactly
  /// as one would; it cannot be cancelled. `now` as for the Task push.
  void push(Time t, HandlerId h, std::uint32_t arg, Time now = 0) {
    assert(h.index != kTaskHandler && h.index < handlers_.size());
    enqueue(t, t - now, h.index, arg);
  }

  /// Schedules `cb` (any `void()` callable) to fire at absolute time `t`.
  /// The Task is built directly in its slot, so a capture is moved once
  /// here and once more when pop() hands it out. `now` is the scheduling
  /// clock: `t - now` picks the delay lane. It should not decrease between
  /// pushes; it only affects speed, never the pop order. Returns an id
  /// usable with `cancel`.
  template <typename F> requires std::is_invocable_v<std::decay_t<F>&>
  EventId push(Time t, F&& cb, Time now = 0) {
    const std::uint32_t index = acquire_slot();
    Slot& s = slots_[index];
    s.task.emplace(std::forward<F>(cb));
    s.state = SlotState::kLive;
    enqueue(t, t - now, kTaskHandler, index);
    return (static_cast<EventId>(s.generation) << 32) | index;
  }

  /// Cancels a pending Task. Returns true if the id was pending;
  /// cancelling an already-fired or unknown id is a no-op returning false.
  /// The callback is destroyed immediately (releasing captured resources);
  /// the tombstoned index entry is discarded when it reaches the head.
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event, or kNever when the queue is empty.
  /// Caches that event, so the pop() that follows does not search again.
  [[nodiscard]] Time next_time() {
    if (live_ == 0) return kNever;
    if (min_src_ == kUnknown) find_min();
    return min_.time;
  }

  /// Removes the earliest live event and returns its time and the event.
  /// A Task moves out of its slot, which is recycled at once; a typed
  /// entry just yields its handler and argument. Precondition: !empty().
  std::pair<Time, Event> pop();

  /// Routes slot-state invariant violations to the simulator's auditor
  /// (checked builds only; the pointer is unused otherwise).
  void set_auditor(Auditor* auditor) { auditor_ = auditor; }

 private:
  friend struct EventQueueTestPeer;  // tests/queue_strategy_test.cpp

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
  // The handler index of a Task; its entry's arg is the slot.
  static constexpr std::uint32_t kTaskHandler = 0;
  // Lanes are scanned on every find-min, so keep them few: the paper's
  // model has about four fixed delays per deployment.
  static constexpr std::size_t kMaxLanes = 8;
  // A delay earns a lane when it misses twice within this many misses.
  static constexpr std::size_t kRecentMisses = 4;
  // min_src_ values other than a lane index.
  static constexpr int kFromHeap = -1;
  static constexpr int kUnknown = -2;

  enum class SlotState : std::uint8_t { kFree, kLive, kCancelled };

  struct Slot {
    Task task;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNilSlot;
    SlotState state = SlotState::kFree;
  };

  struct Binding {
    HandlerFn fn = nullptr;
    void* ctx = nullptr;
  };

  struct Entry {
    Time time = 0;
    std::uint64_t seq = 0;
    std::uint32_t handler = kTaskHandler;
    std::uint32_t arg = kNilSlot;  // a Task's slot, or the typed argument
  };
  static_assert(sizeof(Entry) == 24);

  static bool entry_less(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Min-heap ordering over (time, seq); seqs are strictly increasing so
  // the order is total and FIFO within an instant.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return entry_less(b, a);
    }
  };

  // FIFO of the entries pushed with one delay, ascending by (time, seq).
  struct Lane {
    Duration delay = 0;
    RingQueue<Entry> entries;  // tombstones included
  };

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void check_live_slot(const Entry& e, const Slot& s);
  [[nodiscard]] bool cancelled(const Entry& e) const {
    return e.handler == kTaskHandler &&
           slots_[e.arg].state == SlotState::kCancelled;
  }

  // Stamps the entry's seq and files it in a lane or the heap.
  void enqueue(Time t, Duration delay, std::uint32_t handler,
               std::uint32_t arg);
  Lane* lane_for(Duration delay, Time t);
  void find_min();
  // Drops the entry find_min() chose from its lane or the heap.
  void remove_min();

  std::vector<Binding> handlers_ = std::vector<Binding>(1);  // [0]: Tasks
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;

  std::vector<Entry> heap_;
  std::array<Lane, kMaxLanes> lanes_;
  std::size_t lanes_used_ = 0;
  std::array<Duration, kRecentMisses> recent_misses_ = {kNever, kNever,
                                                        kNever, kNever};
  std::size_t next_miss_ = 0;

  // The earliest live entry and where it sits (a lane index or kFromHeap),
  // or kUnknown until find_min() runs.
  Entry min_;
  int min_src_ = kUnknown;

  Auditor* auditor_ = nullptr;
};

}  // namespace netrs::sim
