// Oracle test for the SelectorNode pending-RV table (§IV-C). The node keeps
// a table sized to its in-flight requests; the oracle below is the plain
// RV-indexed 65536-slot table. Seeded random traffic — out-of-order,
// wrong-source, duplicate and dropped responses, RV wraparound, fail() and
// reset_selector() — must get the same verdict and response time from both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "harness/experiment.hpp"
#include "netrs/packet_format.hpp"
#include "netrs/selector_node.hpp"
#include "rs/selector.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace netrs::core {
namespace {

// The reference: one slot per 16-bit RV, overwritten by every send.
struct OracleTable {
  struct Slot {
    net::HostId server = net::kInvalidHost;
    sim::Time sent_at = 0;
    bool valid = false;
  };
  std::vector<Slot> slots = std::vector<Slot>(65536);
  std::uint16_t next_rv = 1;
  std::uint64_t absorbed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t dropped = 0;

  std::uint16_t send(net::HostId server, sim::Time now) {
    const std::uint16_t rv = next_rv++;
    slots[rv] = Slot{server, now, true};
    return rv;
  }
  std::optional<sim::Duration> respond(std::uint16_t rv, net::HostId src,
                                       sim::Time now) {
    ++absorbed;
    Slot& s = slots[rv];
    if (s.valid && s.server == src) {
      s.valid = false;
      return now - s.sent_at;
    }
    ++mismatches;
    return std::nullopt;
  }
  void reset() { slots.assign(slots.size(), Slot{}); }
  void fail() {
    for (const Slot& s : slots) dropped += s.valid ? 1 : 0;
    reset();
  }
};

// Picks a seeded-random candidate and records every feedback.
class RecordingSelector final : public rs::ReplicaSelector {
 public:
  RecordingSelector(sim::Rng rng, std::vector<rs::Feedback>* log)
      : rng_(rng), log_(log) {}
  net::HostId select(std::span<const net::HostId> candidates) override {
    return candidates[rng_.uniform(candidates.size())];
  }
  void on_send(net::HostId) override {}
  void on_response(const rs::Feedback& fb) override { log_->push_back(fb); }
  [[nodiscard]] std::string name() const override { return "recording"; }

 private:
  sim::Rng rng_;
  std::vector<rs::Feedback>* log_;
};

net::Packet request(ReplicaGroupId rgid) {
  RequestHeader rh;
  rh.mf = kMagicRequest;
  rh.rgid = rgid;
  net::Packet p;
  p.src = 7;
  p.dst = 99;
  p.payload = encode_request(rh, {});
  return p;
}

net::Packet response(net::HostId server, std::uint16_t rv) {
  ResponseHeader rh;
  rh.mf = kMagicResponse;
  rh.rv = rv;
  net::Packet p;
  p.src = server;
  p.dst = 7;
  p.payload = encode_response(rh, {});
  return p;
}

struct Sent {
  std::uint16_t rv;
  net::HostId server;
};

// Traffic mix for one seeded run; weights are relative.
struct Mix {
  int sends = 0;       // requests to drive
  int respond = 0;     // in-flight response, any order
  int wrong_src = 0;   // in-flight RV echoed by another server
  int duplicate = 0;   // an already-answered response again
  int stray = 0;       // random RV from a random server
  int drop = 0;        // forget an in-flight request (leaks its slot)
  int fail_every = 0;  // mean steps between fail() (0 = never)
  int reset_every = 0;  // mean steps between reset_selector() (0 = never)
};

// Stores the largest pending capacity the node reached in `max_cap`.
void run_against_oracle(std::uint64_t seed, const Mix& mix,
                        std::size_t* max_cap = nullptr) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  sim::Simulator sim;
  sim::Rng rng(seed);
  const ReplicaDatabase db = {{10, 20, 30}, {40, 50}, {60, 70, 80}};
  std::vector<rs::Feedback> log;
  SelectorNode node(sim, db,
                    std::make_unique<RecordingSelector>(rng.child(1), &log));
  OracleTable oracle;
  std::vector<Sent> in_flight;
  std::vector<Sent> answered;
  int incarnation = 1;

  auto take = [&rng](std::vector<Sent>& v) {
    const std::size_t i = rng.uniform(v.size());
    const Sent s = v[i];
    v[i] = v.back();
    v.pop_back();
    return s;
  };
  auto deliver = [&](std::uint16_t rv, net::HostId src) {
    const auto expect = oracle.respond(rv, src, sim.now());
    EXPECT_FALSE(node.process(response(src, rv)).has_value());
    ASSERT_FALSE(log.empty());
    const rs::Feedback& fb = log.back();
    ASSERT_EQ(fb.has_response_time, expect.has_value()) << "rv " << rv;
    if (expect) {
      ASSERT_EQ(fb.response_time, *expect) << "rv " << rv;
    }
  };

  const int total = mix.respond + mix.wrong_src + mix.duplicate + mix.stray +
                    mix.drop;
  int sends = 0;
  while (sends < mix.sends || !in_flight.empty()) {
    if (::testing::Test::HasFatalFailure()) return;  // first mismatch only
    sim.at(sim.now() + static_cast<sim::Duration>(rng.uniform(1000)), [] {});
    sim.run();
    if (mix.fail_every > 0 && rng.uniform(mix.fail_every) == 0) {
      node.fail();
      oracle.fail();
    }
    if (mix.reset_every > 0 && rng.uniform(mix.reset_every) == 0) {
      node.reset_selector(std::make_unique<RecordingSelector>(
          rng.child(++incarnation), &log));
      oracle.reset();
    }
    // Sends get half the steps until the quota is met; afterwards drain.
    if (sends < mix.sends && (in_flight.empty() || rng.bernoulli(0.5))) {
      const auto rgid = static_cast<ReplicaGroupId>(rng.uniform(db.size()));
      auto out = node.process(request(rgid));
      ASSERT_TRUE(out.has_value());
      const std::uint16_t rv = peek_rv(out->payload);
      ASSERT_EQ(rv, oracle.send(out->dst, sim.now()));
      in_flight.push_back({rv, out->dst});
      ++sends;
      continue;
    }
    if (in_flight.empty()) continue;
    auto pick = static_cast<int>(rng.uniform(total));
    if ((pick -= mix.respond) < 0) {
      const Sent s = take(in_flight);
      deliver(s.rv, s.server);
      answered.push_back(s);
    } else if ((pick -= mix.wrong_src) < 0) {
      const Sent& s = in_flight[rng.uniform(in_flight.size())];
      deliver(s.rv, s.server + 1);
    } else if ((pick -= mix.duplicate) < 0) {
      if (!answered.empty()) {
        const Sent& s = answered[rng.uniform(answered.size())];
        deliver(s.rv, s.server);
      }
    } else if ((pick -= mix.stray) < 0) {
      const auto rv = static_cast<std::uint16_t>(rng.uniform(65536));
      deliver(rv, db[rng.uniform(db.size())][0]);
    } else {
      take(in_flight);  // dropped: its slot stays valid until reused
    }
    if (answered.size() > 4096) answered.erase(answered.begin());
    const std::size_t cap = node.pending_capacity();
    ASSERT_LE(cap, SelectorNode::kMaxPendingSlots);
    ASSERT_EQ(cap & (cap - 1), 0u) << "capacity " << cap;
    if (max_cap != nullptr) *max_cap = std::max(*max_cap, cap);
  }
  EXPECT_EQ(node.requests_selected(), static_cast<std::uint64_t>(sends));
  EXPECT_EQ(node.responses_absorbed(), oracle.absorbed);
  EXPECT_EQ(node.rv_mismatches(), oracle.mismatches);
  EXPECT_EQ(node.pending_dropped(), oracle.dropped);
  EXPECT_EQ(log.size(), oracle.absorbed);
}

TEST(SelectorNodePendingTest, OutOfOrderResponsesMatchOracle) {
  const Mix mix{.sends = 20'000, .respond = 1};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) run_against_oracle(seed, mix);
}

TEST(SelectorNodePendingTest, WrongSourceDuplicateAndStrayMatchOracle) {
  const Mix mix{.sends = 20'000,
                .respond = 10,
                .wrong_src = 2,
                .duplicate = 2,
                .stray = 1};
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    run_against_oracle(seed, mix);
  }
}

// Dropped responses leave valid slots behind; over 65536 sends the RV
// wraps onto them, so the table grows toward (and caps at) 65536 slots.
TEST(SelectorNodePendingTest, LeakedSlotsAndRvWrapMatchOracle) {
  const Mix mix{.sends = 150'000, .respond = 6, .duplicate = 1, .drop = 3};
  for (std::uint64_t seed = 21; seed <= 22; ++seed) {
    std::size_t max_cap = 0;
    run_against_oracle(seed, mix, &max_cap);
    EXPECT_EQ(max_cap, SelectorNode::kMaxPendingSlots);
  }
}

TEST(SelectorNodePendingTest, FailAndResetInterleavedMatchOracle) {
  const Mix mix{.sends = 80'000,
                .respond = 8,
                .wrong_src = 1,
                .duplicate = 1,
                .stray = 1,
                .drop = 2,
                .fail_every = 9000,
                .reset_every = 7000};
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    run_against_oracle(seed, mix);
  }
}

TEST(SelectorNodePendingTest, FailAndResetShrinkTheTable) {
  sim::Simulator sim;
  const ReplicaDatabase db = {{10}};
  std::vector<rs::Feedback> log;
  SelectorNode node(sim, db,
                    std::make_unique<RecordingSelector>(sim::Rng(1), &log));
  EXPECT_EQ(node.pending_capacity(), SelectorNode::kInitialPendingSlots);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(node.process(request(0)));
  // 1000 unanswered sends with distinct RVs need at least 1000 slots.
  EXPECT_EQ(node.pending_capacity(), 1024u);
  node.fail();
  EXPECT_EQ(node.pending_dropped(), 1000u);
  EXPECT_EQ(node.pending_capacity(), SelectorNode::kInitialPendingSlots);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(node.process(request(0)));
  EXPECT_EQ(node.pending_capacity(), 128u);
  node.reset_selector(std::make_unique<RecordingSelector>(sim::Rng(2), &log));
  EXPECT_EQ(node.pending_capacity(), SelectorNode::kInitialPendingSlots);
  EXPECT_EQ(node.pending_dropped(), 1000u);  // reset drops, but uncounted
}

// A fault-free NetRS-ILP run answers every request, so each RSNode's table
// stays near its in-flight peak instead of the 65536-slot RV space.
TEST(SelectorNodePendingTest, FaultFreeIlpRunKeepsTablesSmall) {
  harness::ExperimentConfig cfg;
  cfg.fat_tree_k = 8;
  cfg.num_servers = 32;
  cfg.num_clients = 64;
  cfg.utilization = 0.9;
  cfg.total_requests = 120'000;
  cfg.repeats = 1;
  cfg.seed = 1;
  const harness::ExperimentResult res =
      harness::run_experiment(harness::Scheme::kNetRSIlp, cfg);
  ASSERT_EQ(res.issued, res.completed);
  EXPECT_GE(res.max_pending_capacity, SelectorNode::kInitialPendingSlots);
  EXPECT_LE(res.max_pending_capacity, 1024u);
}

}  // namespace
}  // namespace netrs::core
