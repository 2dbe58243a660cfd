// Ablation A7 — the cost of deploying a new Replica Selection Plan.
//
// §II: "the deployment of a new RSP may lead to a temporary latency
// increase. The time it takes for the system to stabilize again depends
// on many factors, including the rate of convergence of the replica
// selection algorithm..." This bench measures that transient directly: the
// harness's paper-scale NetRS-ILP deployment (§V-A defaults, 270 000
// requests = 3 s nominal at 90 000 req/s) runs in steady state, then at
// t = 1.5 s every active RSNode's selector is reset — exactly the state a
// *newly activated* RSNode starts from — and the per-100ms latency
// timeline shows the spike and the re-convergence time of C3.
//
// The controller changes no plan inside the summarised windows
// (1.0-1.8 s): it installs the bootstrap ToR plan at t = 0 and the first
// ILP plan at its first 100 ms stats tick, and the 2 s RSP update interval
// holds that plan until the re-solve at ~2.1 s. The summary line's plan
// count reads 3 — bootstrap, first ILP, the ~2.1 s re-solve — at seed 17.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness/deployment.hpp"

using namespace netrs;

int main() {
  std::printf("=== Ablation A7 - RSP deployment transient ===\n");
  harness::ExperimentConfig cfg;  // paper defaults (§V-A)
  cfg.seed = 17;
  cfg.repeats = 1;
  cfg.total_requests = 270'000;  // 3 s nominal at 90 000 req/s
  cfg.timeline_bucket = sim::millis(100);
  harness::Deployment deployment(harness::Scheme::kNetRSIlp, cfg, cfg.seed);

  // The event under test: at t = 1.5 s every active RSNode restarts with
  // an empty view, as if a brand-new RSP had just been deployed.
  deployment.simulator().at(sim::millis(1500), [&deployment] {
    std::printf("t=1.5s: reset the selectors of %d active RSNodes\n",
                deployment.reset_active_selectors());
  });
  harness::RunOutput out = harness::drive(deployment);

  std::printf("\n%-10s %10s %10s %10s\n", "window", "mean(ms)", "p99(ms)",
              "samples");
  // Sampling is done: finalize each bucket once so the percentile queries
  // below (and the merged summaries) are lookups, not per-call copy-sorts.
  std::vector<sim::LatencyRecorder>& timeline = out.harvest.timeline;
  constexpr std::size_t kBuckets = 30;  // 3 s in 100 ms windows
  timeline.resize(std::max(timeline.size(), kBuckets));
  for (auto& bucket : timeline) bucket.finalize();
  for (std::size_t b = 2; b < kBuckets; ++b) {  // skip warmup buckets
    if (timeline[b].empty()) continue;
    std::printf("%.1f-%.1fs  %10.3f %10.3f %10zu%s\n", b / 10.0,
                (b + 1) / 10.0, timeline[b].mean(),
                timeline[b].percentile(0.99), timeline[b].count(),
                b == 15 ? "   <- RSP transition" : "");
  }

  // Summarize: steady state = buckets 10-14, transient = 15-17.
  sim::LatencyRecorder steady, transient;
  for (std::size_t b = 10; b < 15; ++b) steady.merge(timeline[b]);
  for (std::size_t b = 15; b < 18; ++b) transient.merge(timeline[b]);
  steady.finalize();
  transient.finalize();
  const harness::DeploymentTally& tally = out.deployment;
  std::printf(
      "\nsteady p99 %.3f ms | transient p99 %.3f ms | penalty %.2fx "
      "(plan: %d RSNodes, %s, %d plans deployed)\n",
      steady.percentile(0.99), transient.percentile(0.99),
      transient.percentile(0.99) / steady.percentile(0.99), tally.rsnodes,
      tally.plan_method.c_str(), tally.plans_deployed);
  return 0;
}
