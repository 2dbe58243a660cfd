#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace netrs::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNilSlot;
    return index;
  }
  assert(slots_.size() < kNilSlot);
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.task.reset();
  // Bumping the generation invalidates every EventId handed out for this
  // slot so far; wrap-around after 2^32 reuses is acceptable.
  ++s.generation;
  if (s.generation == 0) s.generation = 1;
  s.state = SlotState::kFree;
  s.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::check_live_slot(const Entry& e, const Slot& s) {
  // A surfacing index entry must reference a live slot — tombstones were
  // dropped before it was selected, and a free slot here means the
  // (slot, generation) recycling lost track of an event.
  if constexpr (kAuditEnabled) {
    if (auditor_ != nullptr) {
      auditor_->check(s.state == SlotState::kLive, "event-slot-state", [&] {
        return "index entry (t=" + std::to_string(e.time) +
               " ns, seq=" + std::to_string(e.seq) + ") surfaced slot " +
               std::to_string(e.arg) + " in state " +
               std::to_string(static_cast<int>(s.state)) +
               " (generation " + std::to_string(s.generation) + ")";
      });
      return;
    }
  }
  // Audit builds without an installed auditor (bare EventQueue usage) must
  // not silently skip the invariant; fall back to the plain-build assert.
  assert(s.state == SlotState::kLive);
  (void)e;
  (void)s;
}

EventQueue::Lane* EventQueue::lane_for(Duration delay, Time t) {
  for (std::size_t i = 0; i < lanes_used_; ++i) {
    Lane& lane = lanes_[i];
    if (lane.delay == delay) {
      // The order guard: appending below the tail would unsort the lane.
      return lane.entries.empty() || lane.entries.back().time <= t ? &lane
                                                                   : nullptr;
    }
  }
  // A delay without a lane earns one by missing twice in a short window;
  // one-off (random) delays stay in the heap.
  if (std::find(recent_misses_.begin(), recent_misses_.end(), delay) ==
      recent_misses_.end()) {
    recent_misses_[next_miss_] = delay;
    next_miss_ = (next_miss_ + 1) % kRecentMisses;
    return nullptr;
  }
  Lane* pick = nullptr;
  if (lanes_used_ < kMaxLanes) {
    pick = &lanes_[lanes_used_++];
  } else {
    const auto empty =
        std::find_if(lanes_.begin(), lanes_.end(),
                     [](const Lane& l) { return l.entries.empty(); });
    if (empty != lanes_.end()) pick = &*empty;
  }
  if (pick != nullptr) pick->delay = delay;
  return pick;
}

void EventQueue::enqueue(Time t, Duration delay, std::uint32_t handler,
                         std::uint32_t arg) {
  const Entry e{t, next_seq_++, handler, arg};
  Lane* lane = lane_for(delay, t);
  if (lane != nullptr) {
    lane->entries.push_back(e);
  } else {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  ++live_;
  // A new entry can only become the minimum by preceding the cached one,
  // and then it is the head of its lane (the lane was empty) or the heap
  // top.
  if (min_src_ != kUnknown && entry_less(e, min_)) {
    min_ = e;
    min_src_ = lane != nullptr ? static_cast<int>(lane - lanes_.data())
                               : kFromHeap;
  }
}

bool EventQueue::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (index >= slots_.size()) return false;
  Slot& s = slots_[index];
  if (s.state != SlotState::kLive || s.generation != generation) {
    return false;
  }
  // Release the callback (and whatever it captured) now; the index entry
  // becomes a tombstone discarded lazily when it reaches a head.
  s.task.reset();
  s.state = SlotState::kCancelled;
  assert(live_ > 0);
  --live_;
  if (min_src_ != kUnknown && min_.handler == kTaskHandler &&
      min_.arg == index) {
    min_src_ = kUnknown;
  }
  return true;
}

void EventQueue::find_min() {
  assert(live_ > 0);
  for (;;) {
    min_src_ = kUnknown;
    if (!heap_.empty()) {
      min_ = heap_.front();
      min_src_ = kFromHeap;
    }
    for (std::size_t i = 0; i < lanes_used_; ++i) {
      const Lane& lane = lanes_[i];
      if (!lane.entries.empty() &&
          (min_src_ == kUnknown || entry_less(lane.entries.front(), min_))) {
        min_ = lane.entries.front();
        min_src_ = static_cast<int>(i);
      }
    }
    assert(min_src_ != kUnknown);
    // Only the winner's slot is read: a tombstone is dropped when it
    // would surface, and the search runs again.
    if (!cancelled(min_)) return;
    remove_min();
    release_slot(min_.arg);
  }
}

void EventQueue::remove_min() {
  if (min_src_ == kFromHeap) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  } else {
    lanes_[static_cast<std::size_t>(min_src_)].entries.pop_front();
  }
  min_src_ = kUnknown;
}

std::pair<Time, Event> EventQueue::pop() {
  assert(live_ > 0);
  if (min_src_ == kUnknown) find_min();
  const Entry e = min_;
  remove_min();
  --live_;
  std::pair<Time, Event> fired;
  fired.first = e.time;
  if (e.handler != kTaskHandler) {
    const Binding& b = handlers_[e.handler];
    fired.second.fn_ = b.fn;
    fired.second.ctx_ = b.ctx;
    fired.second.arg_ = e.arg;
    return fired;
  }
  Slot& s = slots_[e.arg];
  check_live_slot(e, s);
  fired.second.task_ = std::move(s.task);
  release_slot(e.arg);
  return fired;
}

}  // namespace netrs::sim
