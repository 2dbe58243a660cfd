// Request-path allocation guard: once a cell is warm, each extra simulated
// request may cost about one heap allocation — kv::Client's pending-map
// node. Packets, payloads, deliveries, events, station queues and a
// request's copies are all pooled or inline. This binary links the
// counting allocator shim (bench/alloc_shim.hpp), so it counts every
// allocation in the process; running the same cell at N and 2N requests
// cancels the fixed setup cost.
#include "alloc_shim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness/config.hpp"
#include "harness/experiment.hpp"
#include "sim/audit.hpp"

namespace netrs::harness {
namespace {

/// Allocations and completed requests of one run.
struct Count {
  std::uint64_t allocs = 0;
  std::uint64_t completed = 0;
};

Count count_run(Scheme scheme, std::uint64_t requests) {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.num_servers = 5;
  cfg.num_clients = 8;
  cfg.utilization = 0.9;
  cfg.total_requests = requests;
  cfg.repeats = 1;
  cfg.jobs = 1;
  cfg.seed = 1;
  const std::uint64_t before = benchshim::alloc_count();
  const ExperimentResult r = run_experiment(scheme, cfg);
  return {benchshim::alloc_count() - before, r.completed};
}

/// Allocations per request that the 2N run completes beyond the N run.
double extra_allocs_per_extra_request(Scheme scheme) {
  constexpr std::uint64_t kRequests = 8000;
  const Count once = count_run(scheme, kRequests);
  const Count twice = count_run(scheme, 2 * kRequests);
  // Most requests complete; the few still in flight at the stop are not
  // counted.
  EXPECT_GT(twice.completed, once.completed + kRequests * 9 / 10);
  return static_cast<double>(twice.allocs - once.allocs) /
         static_cast<double>(twice.completed - once.completed);
}

// The bound leaves 0.2 per request for amortized growth (latency samples,
// the pending map's buckets) and for the periodic work a longer run adds.
constexpr double kMaxAllocsPerRequest = 1.2;
// CliRS has no periodic re-planning, and its station queues (KV server
// FIFOs) are reusable rings, so nearly all of its per-request cost is the
// pending-map node. A queue that allocates as it moves (std::deque's
// three-packet chunks) reads about 1.06 here.
constexpr double kMaxCliRSAllocsPerRequest = 1.03;
// NetRS-ILP adds the controller's 100 ms re-plan tick. Its per-group
// response counts are dense vectors, zeroed in place; hash-map counts,
// rebuilt on every tick, read about 1.09 here.
constexpr double kMaxNetRSIlpAllocsPerRequest = 1.06;

TEST(RequestAllocTest, CliRSCostsAboutOneAllocationPerRequest) {
  if constexpr (sim::kAuditEnabled) {
    GTEST_SKIP() << "the checked build records provenance per packet";
  }
  const double per_request = extra_allocs_per_extra_request(Scheme::kCliRS);
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kMaxAllocsPerRequest);
  EXPECT_LE(per_request, kMaxCliRSAllocsPerRequest);
}

TEST(RequestAllocTest, NetRSIlpCostsAboutOneAllocationPerRequest) {
  if constexpr (sim::kAuditEnabled) {
    GTEST_SKIP() << "the checked build records provenance per packet";
  }
  const double per_request = extra_allocs_per_extra_request(Scheme::kNetRSIlp);
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, kMaxAllocsPerRequest);
  EXPECT_LE(per_request, kMaxNetRSIlpAllocsPerRequest);
}

}  // namespace
}  // namespace netrs::harness
