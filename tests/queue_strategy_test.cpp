// Pop-order oracle for the event queue (DESIGN.md §4.8): a seeded fuzz of
// EventQueue against a brute-force (time, seq) reference, with Tasks and
// typed entries interleaved (each also pushed from inside the other's
// firing), pushes that land in the fixed-delay lanes and in the heap,
// cancels anywhere in a lane and in the heap, peeks that leave the cached
// minimum standing across later pushes and cancels, and a scheduling clock
// that sometimes runs backwards so the lanes' order guard is exercised.
// Also covers cancel-heavy churn, the slot-generation wraparound boundary,
// and full-system digests at --jobs 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace netrs::sim {

/// Test-only backdoor (friend of EventQueue): steers a slot's generation
/// counter to the wraparound boundary and reports where entries sit.
struct EventQueueTestPeer {
  /// Sets the generation counter of `slot` (must not have live events
  /// whose ids embed the old generation).
  static void set_generation(EventQueue& q, std::uint32_t slot,
                             std::uint32_t gen) {
    q.slots_[slot].generation = gen;
  }
  /// Reads the generation counter of `slot`.
  static std::uint32_t generation(const EventQueue& q, std::uint32_t slot) {
    return q.slots_[slot].generation;
  }
  /// Entries (tombstones included) held in the delay lanes.
  static std::size_t lane_entries(const EventQueue& q) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < q.lanes_used_; ++i) {
      n += q.lanes_[i].entries.size();
    }
    return n;
  }
  /// True once every delay lane has been keyed (re-keying can start).
  static bool lanes_full(const EventQueue& q) {
    return q.lanes_used_ == EventQueue::kMaxLanes;
  }
  /// Entries (tombstones included) held in the heap.
  static std::size_t heap_entries(const EventQueue& q) {
    return q.heap_.size();
  }
  /// Typed entries held in the delay lanes.
  static std::size_t typed_lane_entries(const EventQueue& q) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < q.lanes_used_; ++i) {
      const auto& entries = q.lanes_[i].entries;
      for (std::size_t k = 0; k < entries.size(); ++k) {
        n += entries[k].handler != EventQueue::kTaskHandler ? 1 : 0;
      }
    }
    return n;
  }
  /// Typed entries held in the heap.
  static std::size_t typed_heap_entries(const EventQueue& q) {
    return static_cast<std::size_t>(
        std::count_if(q.heap_.begin(), q.heap_.end(), [](const auto& e) {
          return e.handler != EventQueue::kTaskHandler;
        }));
  }
};

namespace {

// The reference: every event ever pushed, in push order (which is seq
// order), and the indices of the live ones, ascending. The next to fire
// is the live one with the least (time, index).
struct RefEvent {
  Time time;
  Duration delay;  // the fixed delay it was pushed with, or -1
  bool typed;      // a typed entry (not cancellable) rather than a Task
  EventId id;      // Tasks only
};

struct Reference {
  std::vector<RefEvent> events;
  std::vector<std::size_t> live;

  [[nodiscard]] std::size_t next() const {
    std::size_t best = live.front();
    for (const std::size_t k : live) {
      if (events[k].time < events[best].time) best = k;  // ties: earlier k
    }
    return best;
  }
  void retire(std::size_t k) {
    live.erase(std::find(live.begin(), live.end(), k));
  }
};

constexpr Duration kFixed[] = {30'000, 1'250, 5'000, 1'000, 0};

// The queue under test, the reference, and the pushes the events make
// from inside their own firing.
struct ChurnFuzz {
  EventQueue q;
  Rng rng{99};
  Reference ref;
  HandlerId typed_handler = q.bind(&ChurnFuzz::on_typed, this);
  int fired = -1;  // set by every firing event
  Time now = 0;

  void push(bool typed, Time t, Duration delay, Time clock) {
    const auto k = static_cast<std::uint32_t>(ref.events.size());
    EventId id = 0;
    if (typed) {
      q.push(t, typed_handler, k, clock);
    } else {
      id = q.push(t, [this, k] { on_fire(k); }, clock);
    }
    ref.events.push_back({t, delay, typed, id});
    ref.live.push_back(k);
  }

  // Every third firing schedules a follow-up of the other kind, from
  // inside the event, at a fixed or a random delay.
  void on_fire(std::uint32_t k) {
    fired = static_cast<int>(k);
    if (rng.uniform(3) != 0) return;
    const bool typed = !ref.events[k].typed;
    if (rng.uniform(2) == 0) {
      const Duration delay = kFixed[rng.uniform(std::size(kFixed))];
      push(typed, now + delay, delay, now);
    } else {
      push(typed, now + static_cast<Time>(rng.uniform(2'000)), -1, now);
    }
  }

  static void on_typed(void* self, std::uint32_t k) {
    static_cast<ChurnFuzz*>(self)->on_fire(k);
  }
};

TEST(QueueStrategyTest, ChurnPopOrderMatchesBruteForceReference) {
  ChurnFuzz fz;
  EventQueue& q = fz.q;
  Rng& rng = fz.rng;
  Reference& ref = fz.ref;
  bool saw_lanes = false;
  bool saw_heap = false;
  bool saw_typed_lanes = false;
  bool saw_typed_heap = false;

  auto pop_and_check = [&](int op) {
    const std::size_t want = ref.next();
    ASSERT_EQ(q.next_time(), ref.events[want].time) << "op " << op;
    auto [t, ev] = q.pop();
    ASSERT_EQ(t, ref.events[want].time) << "op " << op;
    fz.now = t;
    ref.retire(want);
    ev();
    ASSERT_EQ(fz.fired, static_cast<int>(want)) << "pop order at op " << op;
    if (!ref.events[want].typed) {
      ASSERT_FALSE(q.cancel(ref.events[want].id)) << "fired id cancellable";
    }
  };

  for (int op = 0; op < 30000; ++op) {
    const Time now = fz.now;
    const std::uint64_t dice = rng.uniform(20);
    if (dice < 10 || ref.live.empty()) {
      const bool typed = rng.uniform(2) == 0;
      Time t = 0;
      Duration delay = -1;
      Time clock = now;
      if (dice < 6) {
        delay = kFixed[rng.uniform(std::size(kFixed))];
        t = now + delay;
        if (rng.uniform(40) == 0) {
          // A clock that ran backwards: the lane key repeats but `t` may
          // precede the lane's tail, which must divert it to the heap.
          clock = now - static_cast<Time>(rng.uniform(40'000));
          t = clock + delay;
          delay = -1;
        }
      } else if (dice < 8) {
        t = now + static_cast<Time>(rng.uniform(2'000));
      } else if (dice < 9) {
        // Few distinct delays: they keep earning lanes, so lanes fill up
        // and empty ones get re-keyed.
        t = now + static_cast<Time>(rng.uniform(64));
      } else {
        t = now + 1'000'000 + static_cast<Time>(rng.uniform(2'000'000));
      }
      fz.push(typed, t, delay, clock);
    } else if (dice < 14) {
      // Cancel a Task at a lane's head, middle or tail (the live Tasks
      // pushed with one fixed delay, in push order, with typed entries
      // around them), or a Task in the heap.
      std::vector<std::size_t> lane;
      std::vector<std::size_t> heap;
      const Duration d = kFixed[rng.uniform(std::size(kFixed))];
      for (const std::size_t k : ref.live) {
        if (ref.events[k].typed) continue;
        if (ref.events[k].delay == d) lane.push_back(k);
        if (ref.events[k].delay < 0) heap.push_back(k);
      }
      std::size_t victim = 0;
      if (dice < 13 && !lane.empty()) {
        const std::uint64_t where = rng.uniform(3);
        victim = where == 0   ? lane.front()
                 : where == 1 ? lane[lane.size() / 2]
                              : lane.back();
      } else if (!heap.empty()) {
        victim = heap[rng.uniform(heap.size())];
      } else {
        continue;
      }
      ASSERT_TRUE(q.cancel(ref.events[victim].id)) << "op " << op;
      ASSERT_FALSE(q.cancel(ref.events[victim].id)) << "double cancel";
      ref.retire(victim);
    } else {
      pop_and_check(op);
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(q.size(), ref.live.size()) << "op " << op;
    if (rng.uniform(4) == 0) {
      // Peek: the cached minimum must then survive the pushes and cancels
      // that come before the next pop.
      ASSERT_EQ(q.next_time(),
                ref.live.empty() ? kNever : ref.events[ref.next()].time)
          << "op " << op;
    }
    saw_lanes = saw_lanes || EventQueueTestPeer::lane_entries(q) > 0;
    saw_heap = saw_heap || EventQueueTestPeer::heap_entries(q) > 0;
    saw_typed_lanes =
        saw_typed_lanes || EventQueueTestPeer::typed_lane_entries(q) > 0;
    saw_typed_heap =
        saw_typed_heap || EventQueueTestPeer::typed_heap_entries(q) > 0;
  }
  // Drain; the tail must match too.
  while (!ref.live.empty()) {
    pop_and_check(-1);
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNever);
  EXPECT_TRUE(saw_lanes) << "the fuzz never reached the delay lanes";
  EXPECT_TRUE(saw_heap) << "the fuzz never reached the heap";
  EXPECT_TRUE(saw_typed_lanes) << "no typed entry reached the delay lanes";
  EXPECT_TRUE(saw_typed_heap) << "no typed entry reached the heap";
  EXPECT_TRUE(EventQueueTestPeer::lanes_full(q))
      << "the fuzz never keyed every lane, so re-keying went untested";
}

TEST(QueueStrategyTest, CancelHeavyChurnReclaimsTombstones) {
  // Cancel-dominated load: tombstones in the lanes and the heap must be
  // swept as they surface. Every cancel must succeed exactly once, stale
  // ids must keep failing, and live accounting must stay exact through
  // 200 rounds of 90% cancellation.
  EventQueue q;
  Rng rng(7);
  Time t = 0;
  std::vector<EventId> ids;  // by logical event k
  std::vector<bool> gone;    // popped or cancelled
  std::size_t live_count = 0;
  int fired = -1;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 100; ++i) {
      const int k = static_cast<int>(ids.size());
      const Time when = i % 2 == 0
                            ? t + 30'000
                            : t + 1 + static_cast<Time>(rng.uniform(1'000'000));
      ids.push_back(q.push(when, [&fired, k] { fired = k; }, t));
      gone.push_back(false);
      ++live_count;
    }
    // Cancel ~90% of everything still pending.
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (!gone[k] && rng.uniform(10) != 0) {
        ASSERT_TRUE(q.cancel(ids[k]));
        gone[k] = true;
        --live_count;
        ASSERT_FALSE(q.cancel(ids[k])) << "double cancel must fail";
      }
    }
    // Pop a few survivors; time only moves forward.
    for (int i = 0; i < 3 && !q.empty(); ++i) {
      auto [when, cb] = q.pop();
      EXPECT_GE(when, t);
      t = when;
      cb();
      ASSERT_GE(fired, 0);
      ASSERT_FALSE(gone[static_cast<std::size_t>(fired)]);
      gone[static_cast<std::size_t>(fired)] = true;
      --live_count;
    }
    ASSERT_EQ(q.size(), live_count);
  }
  while (!q.empty()) {
    auto [when, cb] = q.pop();
    cb();
    gone[static_cast<std::size_t>(fired)] = true;
    --live_count;
  }
  EXPECT_EQ(live_count, 0u);
}

// Param: whether the boundary event sits in a delay lane or in the heap,
// the two places an index entry can live.
class QueueStrategyWraparoundTest : public ::testing::TestWithParam<bool> {};

TEST_P(QueueStrategyWraparoundTest, GenerationWrapSkipsZeroAndKillsStaleIds) {
  const bool in_lane = GetParam();
  EventQueue q;
  // Cycle slot 0 once so it exists and is free. Its delay (1) counts as
  // one miss, so the next push with delay 1 earns a lane.
  const EventId first = q.push(1, [] {}, 0);
  ASSERT_EQ(static_cast<std::uint32_t>(first & 0xFFFFFFFFu), 0u);
  (void)q.pop();

  // Park the free slot's generation at the wrap boundary.
  EventQueueTestPeer::set_generation(q, 0, 0xFFFFFFFFu);

  // Reuse the slot: the id embeds generation 0xFFFFFFFF. Pushed from
  // now=1 the delay is 1 (a lane); from now=0 it is 2, a first miss (the
  // heap).
  const Time now = in_lane ? 1 : 0;
  const EventId boundary = q.push(2, [] {}, now);
  ASSERT_EQ(static_cast<std::uint32_t>(boundary & 0xFFFFFFFFu), 0u);
  ASSERT_EQ(static_cast<std::uint32_t>(boundary >> 32), 0xFFFFFFFFu);
  ASSERT_EQ(EventQueueTestPeer::lane_entries(q), in_lane ? 1u : 0u);

  // Cancel it, then force the tombstone to be swept so the slot recycles:
  // a live event at the same instant sits behind the tombstone (lower
  // seq first), so popping it releases the cancelled slot on the way.
  ASSERT_TRUE(q.cancel(boundary));
  const EventId later = q.push(2, [] {}, now);
  auto [when, cb] = q.pop();
  EXPECT_EQ(when, 2);

  // The wrapped generation must have skipped 0 (0 is never a valid id).
  EXPECT_EQ(EventQueueTestPeer::generation(q, 0), 1u);

  // Stale ids from before the wrap are dead, and a forged generation-0 id
  // never matches anything.
  EXPECT_FALSE(q.cancel(boundary));
  EXPECT_FALSE(q.cancel(EventId{0} << 32 | 0u));
  EXPECT_FALSE(q.cancel(later));  // already popped

  // Recycled slots keep working: a fresh push's id embeds exactly its
  // slot's current generation and cancels cleanly.
  const EventId fresh = q.push(4, [] {});
  const auto fresh_slot = static_cast<std::uint32_t>(fresh & 0xFFFFFFFFu);
  EXPECT_EQ(static_cast<std::uint32_t>(fresh >> 32),
            EventQueueTestPeer::generation(q, fresh_slot));
  EXPECT_TRUE(q.cancel(fresh));
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, QueueStrategyWraparoundTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "lane" : "heap";
                         });

}  // namespace
}  // namespace netrs::sim

namespace netrs::harness {
namespace {

// FNV-1a over every sample and summary statistic, as in golden_digest_test.
class Digest {
 public:
  void add_u64(std::uint64_t v) {
    const auto* b = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(v); ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void add_double(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    add_u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::uint64_t result_digest(const ExperimentResult& res) {
  Digest d;
  d.add_u64(res.latencies_ms.count());
  for (double s : res.latencies_ms.samples()) d.add_double(s);
  d.add_u64(res.issued);
  d.add_u64(res.completed);
  d.add_u64(res.redundant);
  d.add_u64(res.cancels);
  d.add_double(res.avg_forwards);
  d.add_double(res.wire_bytes_per_request);
  d.add_double(res.load_oscillation);
  d.add_u64(static_cast<std::uint64_t>(res.rsnodes));
  d.add_u64(res.drs_groups);
  return d.value();
}

class QueueDigestTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(QueueDigestTest, DigestsMatchAtJobs1AndJobs4) {
  const Scheme scheme = GetParam();
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;  // 16 hosts
  cfg.num_servers = 5;
  cfg.num_clients = 8;
  cfg.total_requests = 2000;
  cfg.repeats = 2;
  cfg.seed = 17;

  std::uint64_t digests[2];  // [jobs index]
  for (int j = 0; j < 2; ++j) {
    cfg.jobs = j == 0 ? 1 : 4;
    digests[j] = result_digest(run_experiment(scheme, cfg));
  }
  EXPECT_EQ(digests[0], digests[1])
      << "jobs=1 vs jobs=4 diverged for " << scheme_name(scheme);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, QueueDigestTest,
    ::testing::Values(Scheme::kCliRS, Scheme::kCliRSR95Cancel,
                      Scheme::kNetRSToR, Scheme::kNetRSIlp),
    [](const auto& info) {
      std::string n = scheme_name(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

}  // namespace
}  // namespace netrs::harness
