// Flight-recorder and decision-auditor tests (DESIGN.md §8.4/§8.5):
// hand-built oracle-regret scenarios with exact expected values, the
// harvest merges over logs split across shards, the telescoping
// invariant (components sum to the measured end-to-end latency for every
// record), determinism with recording on at any --jobs
// value, and the paper's causal claim — in-network selection (NetRS-ILP)
// decides on fresher information and closer to the oracle than
// client-side C3.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/attribution.hpp"
#include "obs/decision.hpp"
#include "obs/shard_obs.hpp"

namespace netrs {
namespace {

// ---------------------------------------------------------------------------
// FlightRecorder unit tests: hand-built event sequences with exact sums,
// built through join_flights() — the harvest path every run takes.

// Joins one recorder's log, as the harness harvests a one-shard run.
obs::FlightSnapshot join(const obs::FlightRecorder& rec,
                         sim::Time measure_from = 0) {
  return obs::join_flights({rec.log()}, measure_from);
}

TEST(FlightRecorderTest, AccelPathTelescopesExactly) {
  obs::FlightRecorder rec(true);
  rec.on_accel(7, /*arrival=*/1500, /*start=*/1600, /*service=*/200);
  rec.on_server(7, /*server=*/3, /*arrival=*/2400, /*start=*/2500,
                /*service=*/4000);
  rec.on_complete(7, /*first_send=*/1000, /*winner_send=*/1000, /*winner=*/3,
                  /*now=*/7000);

  const obs::FlightSnapshot snap = join(rec);
  ASSERT_EQ(snap.records.size(), 1u);
  const obs::FlightRecord& r = snap.records[0];
  EXPECT_EQ(r.request_id, 7u);
  EXPECT_EQ(r.server, 3u);
  EXPECT_FALSE(r.dup_won);
  EXPECT_TRUE(r.via_rs);
  EXPECT_EQ(r.total, 6000);
  EXPECT_EQ(r.components[0], 0);     // dup_wait
  EXPECT_EQ(r.components[1], 500);   // wire_cli_rs
  EXPECT_EQ(r.components[2], 100);   // accel_queue
  EXPECT_EQ(r.components[3], 200);   // accel_serv
  EXPECT_EQ(r.components[4], 600);   // wire_rs_srv
  EXPECT_EQ(r.components[5], 100);   // srv_queue
  EXPECT_EQ(r.components[6], 4000);  // srv_serv
  EXPECT_EQ(r.components[7], 500);   // wire_return
  sim::Duration sum = 0;
  for (const sim::Duration c : r.components) sum += c;
  EXPECT_EQ(sum, r.total);
}

TEST(FlightRecorderTest, DuplicateWinAttributesToWinner) {
  obs::FlightRecorder rec(true);
  // Primary copy to server 1 (slow), duplicate sent at t=500 to server 2.
  rec.on_server(9, /*server=*/1, /*arrival=*/300, /*start=*/900,
                /*service=*/5000);
  rec.on_server(9, /*server=*/2, /*arrival=*/800, /*start=*/850,
                /*service=*/1000);
  rec.on_complete(9, /*first_send=*/0, /*winner_send=*/500, /*winner=*/2,
                  /*now=*/2000);

  const obs::FlightSnapshot snap = join(rec);
  ASSERT_EQ(snap.records.size(), 1u);
  const obs::FlightRecord& r = snap.records[0];
  EXPECT_TRUE(r.dup_won);
  EXPECT_FALSE(r.via_rs);  // no accelerator on this path
  EXPECT_EQ(r.total, 2000);
  EXPECT_EQ(r.components[0], 500);   // dup_wait: first send -> winning send
  EXPECT_EQ(r.components[1], 0);     // no accelerator
  EXPECT_EQ(r.components[2], 0);
  EXPECT_EQ(r.components[3], 0);
  EXPECT_EQ(r.components[4], 300);   // winning send -> server arrival
  EXPECT_EQ(r.components[5], 50);    // srv_queue
  EXPECT_EQ(r.components[6], 1000);  // srv_serv (winner's, not the primary's)
  EXPECT_EQ(r.components[7], 150);   // wire_return
  sim::Duration sum = 0;
  for (const sim::Duration c : r.components) sum += c;
  EXPECT_EQ(sum, r.total);
}

TEST(FlightRecorderTest, WarmupCompletionsAreSkipped) {
  obs::FlightRecorder rec(true);
  rec.on_server(1, 0, 600, 600, 100);
  rec.on_complete(1, /*first_send=*/500, 500, 0, 900);
  const obs::FlightSnapshot snap = join(rec, /*measure_from=*/10'000);
  EXPECT_TRUE(snap.records.empty());
  EXPECT_EQ(snap.warmup_skipped, 1u);
  EXPECT_EQ(snap.pending_at_end, 0u);
}

TEST(FlightRecorderTest, CompletionWithoutServerObservationCountsUnmatched) {
  obs::FlightRecorder rec(true);
  rec.on_complete(5, 0, 0, 4, 1000);
  const obs::FlightSnapshot snap = join(rec);
  EXPECT_TRUE(snap.records.empty());
  EXPECT_EQ(snap.unmatched, 1u);
}

TEST(FlightRecorderTest, DisabledRecorderIgnoresHooks) {
  // Attribution off: the set's recorders log nothing and its harvest is
  // a disabled, empty snapshot.
  obs::ShardObserverSet set(obs::ObsConfig{}, 1);
  obs::FlightRecorder& rec = set.lane(0).flight();
  rec.on_server(1, 0, 0, 0, 100);
  rec.on_complete(1, 0, 0, 0, 500);
  EXPECT_TRUE(rec.log().servers.empty());
  EXPECT_TRUE(rec.log().completes.empty());
  const obs::FlightSnapshot snap = set.take_flight();
  EXPECT_FALSE(snap.enabled);
  EXPECT_TRUE(snap.records.empty());
  EXPECT_EQ(snap.unmatched, 0u);
}

// Attribution CSV plus the bookkeeping counts: equal strings mean equal
// snapshots, byte for byte.
std::string flight_bytes(const obs::FlightSnapshot& snap) {
  std::ostringstream os;
  obs::write_attribution_csv(os, {snap});
  os << "warmup_skipped=" << snap.warmup_skipped
     << " unmatched=" << snap.unmatched
     << " pending_at_end=" << snap.pending_at_end << '\n';
  return os.str();
}

TEST(FlightRecorderTest, SplitLogsInReversedOrderJoinLikeOneLog) {
  // The same observations, once in one log and once split the way shards
  // split them — client, accelerator, and server on different shards —
  // with the logs handed to the join in reversed order.
  obs::FlightRecorder one(true);
  obs::FlightRecorder client(true);
  obs::FlightRecorder accel(true);
  obs::FlightRecorder server(true);
  const auto on_accel = [&](std::uint64_t id, sim::Time arrival,
                            sim::Time start, sim::Duration service) {
    one.on_accel(id, arrival, start, service);
    accel.on_accel(id, arrival, start, service);
  };
  const auto on_server = [&](std::uint64_t id, net::HostId host,
                             sim::Time arrival, sim::Time start,
                             sim::Duration service) {
    one.on_server(id, host, arrival, start, service);
    server.on_server(id, host, arrival, start, service);
  };
  const auto on_complete = [&](std::uint64_t id, sim::Time first_send,
                               sim::Time winner_send, net::HostId winner,
                               sim::Time now) {
    one.on_complete(id, first_send, winner_send, winner, now);
    client.on_complete(id, first_send, winner_send, winner, now);
  };
  // Request 7 crosses an accelerator; request 9's duplicate wins;
  // request 3 completes during warmup; request 11 never completes.
  on_accel(7, 1500, 1600, 200);
  on_server(7, 3, 2400, 2500, 4000);
  on_server(9, 1, 300, 900, 5000);
  on_server(9, 2, 800, 850, 1000);
  on_server(3, 4, 100, 150, 100);
  on_server(11, 4, 6000, 6100, 100);
  on_complete(3, 50, 50, 4, 400);
  on_complete(9, 200, 500, 2, 2000);
  on_complete(7, 1000, 1000, 3, 7000);

  const obs::FlightSnapshot single = obs::join_flights({one.log()}, 100);
  const obs::FlightSnapshot split = obs::join_flights(
      {server.log(), accel.log(), client.log()}, 100);
  ASSERT_EQ(single.records.size(), 2u);
  EXPECT_EQ(single.warmup_skipped, 1u);
  EXPECT_EQ(single.pending_at_end, 1u);
  EXPECT_EQ(flight_bytes(split), flight_bytes(single));
}

// ---------------------------------------------------------------------------
// Decision-auditor unit tests: two servers with known true state, so the
// oracle regret is exact arithmetic. Built through replay_decisions() —
// the harvest path every run takes.

// Journals the two-server oracle at t=0. Server 1: idle, mean 4 ms, Np=1
// -> cost 4 ms. Server 2: 4 queued, mean 4 ms, Np=1 -> cost
// 4 ms * (1 + 4) = 20 ms.
void journal_two_servers(obs::DecisionRecorder& rec) {
  rec.on_server_state(1, 0, /*queue_size=*/0, /*parallelism=*/1,
                      sim::millis(4));
  rec.on_server_state(2, 0, /*queue_size=*/4, /*parallelism=*/1,
                      sim::millis(4));
}

// Replays one recorder's log with a 1 ms herd window, as the harness
// harvests a one-shard run.
obs::DecisionSnapshot replay(const obs::DecisionRecorder& rec,
                             sim::Time measure_from = 0) {
  return obs::replay_decisions({rec.log()}, sim::millis(1), measure_from);
}

TEST(DecisionRecorderTest, PickingLoadedServerHasExactPositiveRegret) {
  obs::DecisionRecorder rec(true);
  journal_two_servers(rec);
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, /*now=*/0, cand, /*chosen=*/2, {}, {});

  const obs::DecisionSnapshot snap = replay(rec);
  ASSERT_EQ(snap.records.size(), 1u);
  const obs::DecisionRecord& r = snap.records[0];
  ASSERT_TRUE(r.has_regret);
  // cost(2) - cost(1) = 20 ms - 4 ms = 16 ms, exactly.
  EXPECT_DOUBLE_EQ(r.regret_ns, 16.0 * 1e6);
  EXPECT_FALSE(r.has_score);
  EXPECT_FALSE(r.has_staleness);
}

TEST(DecisionRecorderTest, PickingIdleServerHasZeroRegret) {
  obs::DecisionRecorder rec(true);
  journal_two_servers(rec);
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, 0, cand, /*chosen=*/1, {}, {});

  const obs::DecisionSnapshot snap = replay(rec);
  ASSERT_EQ(snap.records.size(), 1u);
  ASSERT_TRUE(snap.records[0].has_regret);
  EXPECT_DOUBLE_EQ(snap.records[0].regret_ns, 0.0);
}

TEST(DecisionRecorderTest, ParallelismDividesQueueInOracleCost) {
  // 4 queued at Np=4 is one "round" of wait: cost = mean * (1 + 4/4).
  const obs::OracleServerState s{true, 4, 4, sim::millis(4)};
  EXPECT_DOUBLE_EQ(obs::oracle_cost_ns(s), 2.0 * 4e6);
}

TEST(DecisionRecorderTest, StalenessComesFromChosenServersFeedbackAge) {
  obs::DecisionRecorder rec(true);
  const std::vector<net::HostId> cand = {1, 2};
  // Delayed feedback: the chosen server (1) was last heard 250 us ago;
  // server 2 was never heard from (age < 0).
  const std::vector<sim::Duration> ages = {sim::micros(250), -1};
  const std::vector<double> scores = {3.5, 9.0};
  rec.on_decision(0, sim::millis(2), cand, /*chosen=*/1, scores, ages);
  rec.on_decision(0, sim::millis(2), cand, /*chosen=*/2, scores, ages);

  const obs::DecisionSnapshot snap = replay(rec);
  ASSERT_EQ(snap.records.size(), 2u);
  ASSERT_TRUE(snap.records[0].has_staleness);
  EXPECT_EQ(snap.records[0].staleness, sim::micros(250));
  ASSERT_TRUE(snap.records[0].has_score);
  EXPECT_DOUBLE_EQ(snap.records[0].chosen_score, 3.5);
  // Never-heard chosen server: no staleness, but the score is still there.
  EXPECT_FALSE(snap.records[1].has_staleness);
  ASSERT_TRUE(snap.records[1].has_score);
  EXPECT_DOUBLE_EQ(snap.records[1].chosen_score, 9.0);
}

TEST(DecisionRecorderTest, HerdIndexTracksTrailingWindow) {
  obs::DecisionRecorder rec(true);
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, sim::micros(0), cand, 1, {}, {});
  rec.on_decision(0, sim::micros(100), cand, 1, {}, {});
  rec.on_decision(0, sim::micros(200), cand, 2, {}, {});
  // 1.5 ms: everything up to 0.5 ms has left the 1 ms window.
  rec.on_decision(0, sim::micros(1500), cand, 2, {}, {});

  const obs::DecisionSnapshot snap = replay(rec);
  ASSERT_EQ(snap.records.size(), 4u);
  EXPECT_DOUBLE_EQ(snap.records[0].herd, 1.0);        // {1}
  EXPECT_DOUBLE_EQ(snap.records[1].herd, 1.0);        // {1, 1}
  EXPECT_DOUBLE_EQ(snap.records[2].herd, 1.0 / 3.0);  // {1, 1, 2}
  EXPECT_DOUBLE_EQ(snap.records[3].herd, 1.0);        // {2} after eviction
}

TEST(DecisionRecorderTest, WarmupDecisionsFeedHerdStateButProduceNoRecords) {
  obs::DecisionRecorder rec(true);
  const std::vector<net::HostId> cand = {1, 2};
  rec.on_decision(0, sim::micros(0), cand, 1, {}, {});    // warmup
  rec.on_decision(0, sim::micros(100), cand, 1, {}, {});  // warmup
  rec.on_decision(0, sim::micros(200), cand, 1, {}, {});  // measured

  const obs::DecisionSnapshot snap = replay(rec, sim::micros(150));
  EXPECT_EQ(snap.observed, 3u);
  ASSERT_EQ(snap.records.size(), 1u);
  // The measured record sees the warmed window: 3 of 3 picks match.
  EXPECT_DOUBLE_EQ(snap.records[0].herd, 1.0);
}

TEST(DecisionRecorderTest, SplitLogsInReversedOrderReplayLikeOneLog) {
  // Two deciding nodes and two journaled servers, once in one log and
  // once split the way shards split them — each node's picks and each
  // server's journal on its own log — with the logs handed to the replay
  // in reversed order.
  obs::DecisionRecorder one(true);
  obs::DecisionRecorder node_a(true);
  obs::DecisionRecorder node_b(true);
  obs::DecisionRecorder server_1(true);
  obs::DecisionRecorder server_2(true);
  const std::vector<net::HostId> cand = {1, 2};
  const std::vector<double> scores = {1.0, 2.0};
  const std::vector<sim::Duration> ages = {sim::micros(40), -1};
  const auto decide = [&](obs::DecisionRecorder& node_log, std::int32_t node,
                          sim::Time t, net::HostId chosen) {
    one.on_decision(node, t, cand, chosen, scores, ages);
    node_log.on_decision(node, t, cand, chosen, scores, ages);
  };
  const auto journal = [&](obs::DecisionRecorder& server_log,
                           net::HostId host, sim::Time t,
                           std::uint32_t queue) {
    one.on_server_state(host, t, queue, 1, sim::millis(4));
    server_log.on_server_state(host, t, queue, 1, sim::millis(4));
  };
  journal(server_1, 1, 0, 0);
  journal(server_2, 2, 0, 0);
  decide(node_a, 10, sim::micros(50), 1);  // warmup
  journal(server_1, 1, sim::micros(60), 3);
  // Same-time picks on both nodes: the replay orders them by node.
  decide(node_b, 20, sim::micros(200), 2);
  decide(node_a, 10, sim::micros(200), 1);
  decide(node_a, 10, sim::micros(200), 2);
  journal(server_2, 2, sim::micros(300), 5);
  decide(node_b, 20, sim::micros(400), 1);
  decide(node_a, 10, sim::micros(1500), 1);

  const auto bytes = [](const obs::DecisionSnapshot& snap) {
    std::ostringstream os;
    obs::write_decision_csv(os, {snap});
    os << "observed=" << snap.observed << '\n';
    return os.str();
  };
  const sim::Time measure_from = sim::micros(100);
  const obs::DecisionSnapshot single =
      obs::replay_decisions({one.log()}, sim::millis(1), measure_from);
  const obs::DecisionSnapshot split = obs::replay_decisions(
      {server_2.log(), server_1.log(), node_b.log(), node_a.log()},
      sim::millis(1), measure_from);
  ASSERT_EQ(single.records.size(), 5u);
  EXPECT_EQ(single.records[0].node, 10);  // node order breaks the time tie
  EXPECT_TRUE(single.records[0].has_regret);
  EXPECT_EQ(bytes(split), bytes(single));
}

// ---------------------------------------------------------------------------
// Experiment-level tests: full runs with recording enabled.

harness::ExperimentConfig small_config() {
  harness::ExperimentConfig cfg;
  cfg.fat_tree_k = 4;  // 16 hosts
  cfg.num_servers = 5;
  cfg.num_clients = 8;
  cfg.total_requests = 2000;
  cfg.repeats = 2;
  cfg.seed = 17;
  cfg.jobs = 1;
  return cfg;
}

// FNV-1a over every measured latency sample plus the summary counters —
// the same digest shape golden_digest_test pins.
std::uint64_t result_digest(const harness::ExperimentResult& res) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (std::size_t i = 0; i < sizeof(v); ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  mix(res.latencies_ms.count());
  for (const double s : res.latencies_ms.samples()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &s, sizeof(bits));
    mix(bits);
  }
  mix(res.issued);
  mix(res.completed);
  mix(res.redundant);
  mix(res.cancels);
  return h;
}

TEST(AttributionExperimentTest, DigestsUnchangedWithRecordingOnAtAnyJobs) {
  for (const harness::Scheme scheme :
       {harness::Scheme::kCliRSR95Cancel, harness::Scheme::kNetRSIlp}) {
    harness::ExperimentConfig off = small_config();
    const std::uint64_t base = result_digest(run_experiment(scheme, off));

    harness::ExperimentConfig on = small_config();
    on.obs.record_attribution = true;
    on.obs.record_decisions = true;
    const std::uint64_t serial = result_digest(run_experiment(scheme, on));
    on.jobs = 4;
    const std::uint64_t parallel = result_digest(run_experiment(scheme, on));

    EXPECT_EQ(base, serial)
        << "recording changed behavior for "
        << harness::scheme_name(scheme);
    EXPECT_EQ(serial, parallel)
        << "jobs=1 vs jobs=4 diverged with recording on for "
        << harness::scheme_name(scheme);
  }
}

TEST(AttributionExperimentTest, ComponentsSumToTotalForEveryRequest) {
  const std::string path =
      ::testing::TempDir() + "/attribution_test_flight.csv";
  for (const harness::Scheme scheme :
       {harness::Scheme::kCliRSR95Cancel, harness::Scheme::kNetRSIlp}) {
    harness::ExperimentConfig cfg = small_config();
    cfg.obs.attribution_path = path;
    const harness::ExperimentResult res =
        harness::run_experiment(scheme, cfg);

    // Every measured completion produced exactly one record.
    EXPECT_TRUE(res.attribution.enabled);
    EXPECT_EQ(res.attribution.requests, res.latencies_ms.count());
    EXPECT_EQ(res.attribution.unmatched, 0u);

    // Long-format CSV: per (repeat, req), the eight component rows must
    // sum to the total row exactly (integer ns, no tolerance).
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "repeat,req,complete_us,server,dup,via_rs,component,ns");
    std::map<std::string, long long> component_sum;
    std::map<std::string, long long> totals;
    std::uint64_t total_rows = 0;
    while (std::getline(in, line)) {
      std::stringstream ss(line);
      std::string repeat, req, rest, component, ns;
      ASSERT_TRUE(std::getline(ss, repeat, ','));
      ASSERT_TRUE(std::getline(ss, req, ','));
      for (int skip = 0; skip < 4; ++skip) {
        ASSERT_TRUE(std::getline(ss, rest, ','));
      }
      ASSERT_TRUE(std::getline(ss, component, ','));
      ASSERT_TRUE(std::getline(ss, ns, ','));
      const std::string key = repeat + ":" + req;
      if (component == "total") {
        totals[key] = std::stoll(ns);
        ++total_rows;
      } else {
        component_sum[key] += std::stoll(ns);
      }
    }
    EXPECT_EQ(total_rows, res.attribution.requests);
    ASSERT_EQ(component_sum.size(), totals.size());
    for (const auto& [key, total] : totals) {
      const auto it = component_sum.find(key);
      ASSERT_NE(it, component_sum.end()) << key;
      EXPECT_EQ(it->second, total)
          << "components do not telescope for " << key << " ("
          << harness::scheme_name(scheme) << ")";
    }
  }
}

TEST(AttributionExperimentTest, NetRSDecidesFresherAndCloserToOracle) {
  // The paper's causal chain as numbers: concentrating selection at a few
  // in-network points gives each decision point more feedback per second,
  // so decisions ride fresher state and land closer to the oracle than
  // 8 independent client-side C3 instances.
  // Needs enough independent clients for client-side feedback to actually
  // go stale: with only a handful of clients the two schemes are within
  // noise of each other (128 hosts, 64 clients here).
  harness::ExperimentConfig cfg = small_config();
  cfg.fat_tree_k = 8;
  cfg.num_servers = 16;
  cfg.num_clients = 64;
  cfg.total_requests = 12000;
  cfg.jobs = 2;
  cfg.obs.record_decisions = true;
  const harness::ExperimentResult cli =
      harness::run_experiment(harness::Scheme::kCliRS, cfg);
  const harness::ExperimentResult ilp =
      harness::run_experiment(harness::Scheme::kNetRSIlp, cfg);

  ASSERT_TRUE(cli.decisions.enabled);
  ASSERT_TRUE(ilp.decisions.enabled);
  ASSERT_GT(cli.decisions.decisions, 0u);
  ASSERT_GT(ilp.decisions.decisions, 0u);
  ASSERT_FALSE(cli.decisions.regret_ms.empty());
  ASSERT_FALSE(ilp.decisions.regret_ms.empty());
  EXPECT_LT(ilp.decisions.regret_ms.mean(), cli.decisions.regret_ms.mean());
  EXPECT_LT(ilp.decisions.staleness_ms.mean(),
            cli.decisions.staleness_ms.mean());
}

}  // namespace
}  // namespace netrs
