#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace netrs::sim {
namespace {

TEST(SimulatorTest, NowStartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
}

TEST(SimulatorTest, RunAdvancesTimeThroughEvents) {
  Simulator s;
  std::vector<Time> seen;
  s.at(micros(5), [&] { seen.push_back(s.now()); });
  s.at(micros(1), [&] { seen.push_back(s.now()); });
  s.run();
  EXPECT_EQ(seen, (std::vector<Time>{micros(1), micros(5)}));
  EXPECT_EQ(s.now(), micros(5));
}

TEST(SimulatorTest, AfterSchedulesRelativeToNow) {
  Simulator s;
  Time fired_at = -1;
  s.at(100, [&] { s.after(50, [&] { fired_at = s.now(); }); });
  s.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) s.after(1, recurse);
  };
  s.after(1, recurse);
  EXPECT_EQ(s.run(), 10u);
  EXPECT_EQ(depth, 10);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    s.at(i * 10, [&] { ++fired; });
  }
  EXPECT_EQ(s.run_until(50), 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(s.now(), 50);
  EXPECT_EQ(s.pending_events(), 5u);
  s.run();
  EXPECT_EQ(fired, 10);
}

TEST(SimulatorTest, RunUntilWithEmptyQueueAdvancesToDeadline) {
  Simulator s;
  s.run_until(1234);
  EXPECT_EQ(s.now(), 1234);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator s;
  int fired = 0;
  s.at(1, [&] {
    ++fired;
    s.stop();
  });
  s.at(2, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EveryRepeatsUntilFalse) {
  Simulator s;
  int ticks = 0;
  s.every(10, [&] { return ++ticks < 4; });
  s.run();
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(s.now(), 40);
}

TEST(SimulatorTest, CancelPreventsCallback) {
  Simulator s;
  bool fired = false;
  const EventId id = s.after(10, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, EventsFiredCounts) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.at(i, [] {});
  s.run();
  EXPECT_EQ(s.events_fired(), 7u);
}

TEST(SimulatorTest, SameInstantEventsFireInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.at(99, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// A capture that counts its own move constructions.
struct MoveCounter {
  int* moves;
  explicit MoveCounter(int* m) : moves(m) {}
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) { ++*moves; }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  ~MoveCounter() = default;
};

TEST(SimulatorTest, SchedulingAndFiringMoveTheCaptureAtMostTwice) {
  // The callback's Task is built in its queue slot and moved out once when
  // it fires; at()/after() add no Task copies of their own. Warm the slot
  // arena first, as in steady state: growing it relocates queued Tasks.
  Simulator s;
  s.at(1, [] {});
  s.at(2, [] {});
  s.run();
  int after_moves = 0;
  int at_moves = 0;
  int fired = 0;
  s.after(30, [c = MoveCounter(&after_moves), &fired] {
    (void)c;
    ++fired;
  });
  s.at(45, [c = MoveCounter(&at_moves), &fired] {
    (void)c;
    ++fired;
  });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_LE(after_moves, 2);
  EXPECT_LE(at_moves, 2);
}

}  // namespace
}  // namespace netrs::sim
