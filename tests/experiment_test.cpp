// Harness-level integration tests: the full experiment pipeline at small
// scale, for every scheme, including determinism and the shared-accelerator
// deployment.
#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace netrs::harness {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;  // 16 hosts
  cfg.num_servers = 5;
  cfg.num_clients = 8;
  cfg.total_requests = 4000;
  cfg.repeats = 1;
  cfg.seed = 7;
  return cfg;
}

class SchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeTest, CompletesAllTrafficAndMeasures) {
  const ExperimentConfig cfg = small_config();
  const ExperimentResult res = run_experiment(GetParam(), cfg);
  EXPECT_EQ(res.issued, res.completed) << "requests lost";
  EXPECT_GT(res.latencies_ms.count(), cfg.total_requests / 2);
  EXPECT_GT(res.mean_ms(), 0.1);   // at least the network floor
  EXPECT_LT(res.mean_ms(), 100.0);  // and sane
  EXPECT_GE(res.percentile_ms(0.99), res.percentile_ms(0.5));
  EXPECT_GT(res.avg_forwards, 1.0);
  EXPECT_GT(res.wire_bytes_per_request, 1000.0);  // ~1KB values dominate
  if (is_netrs(GetParam())) {
    EXPECT_GT(res.rsnodes, 0);
    EXPECT_LE(res.rsnodes, 8 + 16);  // k=4: all racks at most
    EXPECT_GE(res.plans_deployed, 1);
  } else {
    EXPECT_EQ(res.rsnodes, cfg.num_clients);
    EXPECT_EQ(res.plan_method, "client");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeTest,
    ::testing::Values(Scheme::kCliRS, Scheme::kCliRSR95,
                      Scheme::kCliRSR95Cancel, Scheme::kNetRSToR,
                      Scheme::kNetRSIlp),
    [](const auto& info) {
      std::string n = scheme_name(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(ExperimentTest, DeterministicForEqualSeeds) {
  const ExperimentConfig cfg = small_config();
  const ExperimentResult a = run_experiment(Scheme::kNetRSIlp, cfg);
  const ExperimentResult b = run_experiment(Scheme::kNetRSIlp, cfg);
  ASSERT_EQ(a.latencies_ms.count(), b.latencies_ms.count());
  EXPECT_DOUBLE_EQ(a.mean_ms(), b.mean_ms());
  EXPECT_DOUBLE_EQ(a.percentile_ms(0.999), b.percentile_ms(0.999));
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.rsnodes, b.rsnodes);
}

TEST(ExperimentTest, DifferentSeedsDiffer) {
  ExperimentConfig cfg = small_config();
  const ExperimentResult a = run_experiment(Scheme::kCliRS, cfg);
  cfg.seed = 8;
  const ExperimentResult b = run_experiment(Scheme::kCliRS, cfg);
  EXPECT_NE(a.mean_ms(), b.mean_ms());
}

TEST(ExperimentTest, RepeatsMergeSamples) {
  ExperimentConfig cfg = small_config();
  cfg.repeats = 2;
  const ExperimentResult res = run_experiment(Scheme::kCliRS, cfg);
  cfg.repeats = 1;
  const ExperimentResult one = run_experiment(Scheme::kCliRS, cfg);
  EXPECT_GT(res.latencies_ms.count(), one.latencies_ms.count() * 3 / 2);
}

TEST(ExperimentTest, RedundancySchemesSendDuplicates) {
  ExperimentConfig cfg = small_config();
  cfg.total_requests = 8000;  // enough for the p95 estimator to warm up
  const ExperimentResult r95 = run_experiment(Scheme::kCliRSR95, cfg);
  EXPECT_GT(r95.redundant, 0u);
  EXPECT_EQ(r95.cancels, 0u);
  const ExperimentResult r95c = run_experiment(Scheme::kCliRSR95Cancel, cfg);
  EXPECT_GT(r95c.redundant, 0u);
  EXPECT_GT(r95c.cancels, 0u);
}

TEST(ExperimentTest, DemandSkewConcentratesLoadWithoutLosses) {
  ExperimentConfig cfg = small_config();
  cfg.demand_skew = 0.9;
  const ExperimentResult res = run_experiment(Scheme::kNetRSIlp, cfg);
  EXPECT_EQ(res.issued, res.completed);
  EXPECT_GT(res.latencies_ms.count(), 1000u);
}

TEST(ExperimentTest, SharedCoreAcceleratorsWork) {
  ExperimentConfig cfg = small_config();
  cfg.share_core_accelerators = true;
  const ExperimentResult res = run_experiment(Scheme::kNetRSIlp, cfg);
  EXPECT_EQ(res.issued, res.completed);
  EXPECT_GT(res.latencies_ms.count(), 1000u);
  EXPECT_GT(res.rsnodes, 0);
}

TEST(ExperimentTest, NetRSIlpConsolidatesVsToR) {
  ExperimentConfig cfg = small_config();
  cfg.num_clients = 10;
  const ExperimentResult tor = run_experiment(Scheme::kNetRSToR, cfg);
  const ExperimentResult ilp = run_experiment(Scheme::kNetRSIlp, cfg);
  EXPECT_LT(ilp.rsnodes, tor.rsnodes);
}

TEST(ExperimentTest, UtilizationScalesAggregateRate) {
  ExperimentConfig cfg = small_config();
  cfg.utilization = 0.3;
  const double low = cfg.aggregate_rate();
  cfg.utilization = 0.9;
  const double high = cfg.aggregate_rate();
  EXPECT_NEAR(high / low, 3.0, 1e-9);
  // tkv * A / (Ns * Np) must recover the utilization.
  EXPECT_NEAR(sim::to_seconds(cfg.mean_service_time) * high /
                  (cfg.num_servers * cfg.server_parallelism),
              0.9, 1e-9);
}

TEST(ExperimentTest, MalformedConfigThrowsNamingTheField) {
  // Accepted, each of these would hang the run (infinite arrival rate),
  // build an odd-arity "fat tree", or cast inf to an integer duration in
  // a Release build (where asserts are off).
  struct Case {
    const char* field;
    void (*mutate)(ExperimentConfig&);
  };
  const Case cases[] = {
      {"fat_tree_k", [](ExperimentConfig& c) { c.fat_tree_k = 3; }},
      {"fat_tree_k", [](ExperimentConfig& c) { c.fat_tree_k = 0; }},
      {"mean_service_time",
       [](ExperimentConfig& c) { c.mean_service_time = 0; }},
      {"mean_service_time",
       [](ExperimentConfig& c) { c.mean_service_time = -1; }},
      {"utilization", [](ExperimentConfig& c) { c.utilization = 0.0; }},
      {"utilization", [](ExperimentConfig& c) { c.utilization = -0.5; }},
      {"utilization",
       [](ExperimentConfig& c) {
         c.utilization = std::numeric_limits<double>::infinity();
       }},
      {"utilization",
       [](ExperimentConfig& c) {
         c.utilization = std::numeric_limits<double>::quiet_NaN();
       }},
      {"server_parallelism",
       [](ExperimentConfig& c) { c.server_parallelism = 0; }},
      // k=4 has 16 hosts; 5 servers + 12 clients do not fit.
      {"num_servers + num_clients",
       [](ExperimentConfig& c) { c.num_clients = 12; }},
  };
  for (const Case& c : cases) {
    ExperimentConfig cfg = small_config();
    cfg.total_requests = 200;
    c.mutate(cfg);
    try {
      (void)run_experiment(Scheme::kCliRS, cfg);
      FAIL() << "accepted a malformed " << c.field;
    } catch (const std::invalid_argument& e) {
      // ASSERT, not EXPECT: a case caught by the wrong check means a check
      // is missing, and a missing check can hang a later case.
      ASSERT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
}

TEST(ExperimentTest, AlternativeSelectorAlgorithmsRun) {
  ExperimentConfig cfg = small_config();
  cfg.total_requests = 2000;
  for (const char* algo : {"least-outstanding", "two-choices", "random"}) {
    cfg.selector.algorithm = algo;
    const ExperimentResult res = run_experiment(Scheme::kNetRSIlp, cfg);
    EXPECT_EQ(res.issued, res.completed) << algo;
  }
}

}  // namespace
}  // namespace netrs::harness
