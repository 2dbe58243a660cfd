#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/deployment.hpp"
#include "harness/parallel.hpp"
#include "sim/fault.hpp"

namespace netrs::harness {
namespace {

// Rejects configurations that would hang or build a bad cluster, in
// every build type: a zero service time or utilization makes the arrival
// rate infinite or the run length inf, an odd arity is no fat tree (the
// FatTree checks only with assert), no servers make the run length inf
// and no clients make an empty run, and an over-provisioned cluster walks
// off the shuffled host vector.
void validate_config(const ExperimentConfig& cfg) {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("run_experiment: " + what);
  };
  if (cfg.fat_tree_k < 2 || cfg.fat_tree_k % 2 != 0) {
    reject("fat_tree_k = " + std::to_string(cfg.fat_tree_k) +
           " must be even and >= 2");
  }
  if (cfg.mean_service_time <= 0) {
    reject("mean_service_time = " + std::to_string(cfg.mean_service_time) +
           " ns must be > 0");
  }
  if (!std::isfinite(cfg.utilization) || cfg.utilization <= 0.0) {
    reject("utilization = " + std::to_string(cfg.utilization) +
           " must be finite and > 0");
  }
  if (cfg.num_servers < 1) {
    reject("num_servers = " + std::to_string(cfg.num_servers) +
           " must be >= 1");
  }
  if (cfg.num_clients < 1) {
    reject("num_clients = " + std::to_string(cfg.num_clients) +
           " must be >= 1");
  }
  if (cfg.server_parallelism < 1) {
    reject("server_parallelism = " + std::to_string(cfg.server_parallelism) +
           " must be >= 1");
  }
  const auto hosts = net::FatTree(cfg.fat_tree_k).host_count();
  if (cfg.num_servers + cfg.num_clients > static_cast<int>(hosts)) {
    reject("num_servers + num_clients = " +
           std::to_string(cfg.num_servers + cfg.num_clients) +
           " exceeds the k=" + std::to_string(cfg.fat_tree_k) +
           " fat tree's " + std::to_string(hosts) + " hosts");
  }
}

// Folds `src` into `dst` element by element with `add`, growing `dst` to
// `src`'s length first.
template <typename T, typename Add>
void fold_into(std::vector<T>& dst, const std::vector<T>& src, Add add) {
  if (src.size() > dst.size()) dst.resize(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) add(dst[i], src[i]);
}

// Folds one repeat into the merged result (repeat order is merge order).
void merge_repeat(const RunOutput& out, const ExperimentConfig& cfg,
                  const sim::FaultPlan& fault_plan, ExperimentResult& res) {
  const DeploymentTally& dep = out.deployment;
  const HarvestOutput& h = out.harvest;
  res.latencies_ms.merge(h.latencies_ms);
  res.issued += dep.issued;
  res.completed += dep.completed;
  res.redundant += dep.redundant;
  res.cancels += dep.cancels;
  res.avg_forwards += h.forwards_sum;
  res.wire_bytes_per_request +=
      dep.completed > 0 ? static_cast<double>(dep.wire_bytes) / dep.completed
                        : 0.0;
  res.load_oscillation += h.load_oscillation;
  res.events_fired += dep.events_fired;
  res.rsnodes = dep.rsnodes;
  res.plan_method = dep.plan_method;
  res.plans_deployed = dep.plans_deployed;
  res.drs_groups = dep.drs_groups;
  res.max_pending_capacity =
      std::max(res.max_pending_capacity, dep.max_pending_capacity);
  res.audit.merge(out.audit);
  res.metrics.merge(h.metrics);
  res.trace_events += h.trace.events.size();
  res.trace_dropped += h.trace.dropped;
  if (cfg.obs.want_trace()) {
    res.trace_repeats.push_back(
        {h.trace.recorded, h.trace.dropped, h.trace_lanes});
  }
  const auto sum = [](std::uint64_t& a, std::uint64_t b) { a += b; };
  fold_into(res.events_per_shard, out.events_per_shard, sum);
  res.attribution.merge(h.flight);
  res.decisions.merge(h.decisions);
  if (res.fault.enabled) {
    for (int p = 0; p < 3; ++p) {
      res.fault.latency_ms[p].merge(h.phase_lat[p]);
    }
    res.fault.events_fired += dep.fault_fired;
    res.fault.events_unbound += dep.fault_unbound;
    // Decision records carry their timestamps, so the per-phase regret
    // and staleness windows fall out of the same bucketing the latency
    // phases use (records exist only with --decisions).
    const sim::Time fault_start = fault_plan.window_start();
    const sim::Time fault_end = fault_plan.window_end();
    for (const obs::DecisionRecord& r : h.decisions.records) {
      const int p = r.t < fault_start ? 0 : r.t < fault_end ? 1 : 2;
      if (r.has_regret) res.fault.regret_ms[p].add(r.regret_ns / 1e6);
      if (r.has_staleness) {
        res.fault.staleness_ms[p].add(sim::to_millis(r.staleness));
      }
    }
  }
  fold_into(res.timeline, h.timeline,
            [](sim::LatencyRecorder& a, const sim::LatencyRecorder& b) {
              a.merge(b);
            });
  if (cfg.timeline_bucket > 0) {
    // Staleness timeline: decision records carry timestamps, so they
    // bucket onto the same absolute-time grid as the latencies.
    for (const obs::DecisionRecord& r : h.decisions.records) {
      if (!r.has_staleness) continue;
      const auto i = static_cast<std::size_t>(r.t / cfg.timeline_bucket);
      if (i >= res.stale_timeline.size()) res.stale_timeline.resize(i + 1);
      res.stale_timeline[i].add(sim::to_millis(r.staleness));
    }
  }
  fold_into(res.doomed_timeline, h.doomed_timeline, sum);
  res.doomed_picks += h.doomed_picks;
}

// Moves one snapshot kind out of every repeat, in repeat order — the same
// order at any --jobs value, so the file written from them with `write`
// is bit-identical to a serial run's.
template <typename Snapshot, typename Write>
std::vector<Snapshot> write_repeats(const std::string& path,
                                    std::vector<RunOutput>& outputs,
                                    Snapshot HarvestOutput::*field,
                                    Write write) {
  std::vector<Snapshot> snapshots;
  snapshots.reserve(outputs.size());
  for (RunOutput& out : outputs) {
    snapshots.push_back(std::move(out.harvest.*field));
  }
  std::ofstream os(path, std::ios::binary);
  write(os, snapshots);
  return snapshots;
}

void write_outputs(const ExperimentConfig& cfg, std::vector<RunOutput>& outputs,
                   ExperimentResult& res) {
  const obs::ObsConfig& o = cfg.obs;
  if (o.want_trace()) {
    write_repeats(o.trace_path, outputs, &HarvestOutput::trace,
                  obs::write_chrome_trace);
  }
  if (o.want_metrics()) {
    write_repeats(o.metrics_path, outputs, &HarvestOutput::metrics,
                  obs::write_metrics_csv);
  }
  if (!o.attribution_path.empty()) {
    write_repeats(o.attribution_path, outputs, &HarvestOutput::flight,
                  obs::write_attribution_csv);
  }
  if (!o.decision_path.empty()) {
    write_repeats(o.decision_path, outputs, &HarvestOutput::decisions,
                  obs::write_decision_csv);
  }
  if (!cfg.shard_telemetry_path.empty()) {
    res.shard_telemetry = write_repeats(cfg.shard_telemetry_path, outputs,
                                        &HarvestOutput::telemetry,
                                        sim::write_shard_telemetry_csv);
  }
}

}  // namespace

const char* fault_phase_name(int phase) {
  switch (phase) {
    case 0:
      return "pre";
    case 1:
      return "during";
    default:
      return "post";
  }
}

ExperimentResult run_experiment(Scheme scheme, const ExperimentConfig& cfg) {
  // netrs-lint: allow(wall-clock): wall_seconds is a harness diagnostic
  // outside the simulation; it never feeds back into simulated behavior.
  const auto wall_start = std::chrono::steady_clock::now();
  ExperimentResult res;
  res.scheme = scheme;
  // Validate the config and parse the fault plan once up front: a
  // malformed value throws here, on the caller's thread, before any
  // repeat fans out.
  validate_config(cfg);
  const sim::FaultPlan fault_plan = sim::FaultPlan::parse(cfg.fault_plan);
  res.fault.enabled = !fault_plan.empty();
  res.fault.window_start_ms = sim::to_millis(fault_plan.window_start());
  res.fault.window_end_ms = sim::to_millis(fault_plan.window_end());
  res.timeline_bucket_ms = sim::to_millis(cfg.timeline_bucket);

  // Repeats are independent simulations (each owns its Simulator and
  // derives its Rng from cfg.seed + rep), so they fan out across the
  // pool; each worker writes only its own slot. Merging the slots in
  // repeat order afterwards reproduces the serial accumulation exactly,
  // so any --jobs value yields bit-identical statistics.
  const int repeats = std::max(1, cfg.repeats);
  std::vector<RunOutput> outputs(static_cast<std::size_t>(repeats));
  parallel_for(cfg.jobs, static_cast<std::size_t>(repeats),
               [&outputs, scheme, &cfg](std::size_t rep) {
                 Deployment deployment(
                     scheme, cfg, cfg.seed + static_cast<std::uint64_t>(rep));
                 outputs[rep] = drive(deployment);
               });

  for (const RunOutput& out : outputs) merge_repeat(out, cfg, fault_plan, res);
  res.attribution.finalize();
  res.decisions.finalize();
  write_outputs(cfg, outputs, res);
  if (res.latencies_ms.count() > 0) {
    // avg_forwards accumulated raw forward counts across repeats.
    res.avg_forwards /= static_cast<double>(res.latencies_ms.count());
  }
  res.wire_bytes_per_request /= repeats;
  res.load_oscillation /= repeats;
  // Sort once so later percentile queries (report tables, CSV) are plain
  // lookups and never touch recorder state.
  res.latencies_ms.finalize();
  for (int p = 0; p < 3; ++p) {
    res.fault.latency_ms[p].finalize();
    res.fault.regret_ms[p].finalize();
    res.fault.staleness_ms[p].finalize();
  }
  for (sim::LatencyRecorder& bucket : res.timeline) bucket.finalize();
  for (sim::LatencyRecorder& bucket : res.stale_timeline) bucket.finalize();
  // netrs-lint: allow(wall-clock): see wall_start above.
  const auto wall_end = std::chrono::steady_clock::now();
  res.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  return res;
}

}  // namespace netrs::harness
