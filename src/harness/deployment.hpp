// One repeat of an experiment, in three pieces (DESIGN.md §2): the
// Deployment (what exists), the Harvest (what gets merged; internal to
// drive()) and drive() (how time advances). run_experiment() composes them
// once per repeat; a caller that acts on a running deployment (A7's
// selector reset) schedules its event on the Deployment's simulator
// between construction and drive().
//
// Construction order is event order: equal-time events fire in push
// order, so the pieces push theirs in one fixed sequence — controller
// start, server fluctuation timers, fault events (Deployment), the herd
// sampler (Harvest), client arrivals in index order (drive). The observer
// lanes are attached before any client starts.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "kv/client.hpp"
#include "kv/consistent_hash.hpp"
#include "kv/server.hpp"
#include "net/fabric.hpp"
#include "net/switch.hpp"
#include "netrs/controller.hpp"
#include "netrs/operator.hpp"
#include "obs/shard_obs.hpp"
#include "sim/audit.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"

namespace netrs::harness {

/// What a Deployment's components counted by the end of the drain.
struct DeploymentTally {
  std::uint64_t issued = 0;         ///< Requests the clients issued.
  std::uint64_t completed = 0;      ///< Requests the clients completed.
  std::uint64_t redundant = 0;      ///< Redundant copies (R95 schemes).
  std::uint64_t cancels = 0;        ///< Cross-server cancels (R95C).
  std::uint64_t wire_bytes = 0;     ///< Bytes over every link crossing.
  std::uint64_t events_fired = 0;   ///< Events over every queue.
  std::uint64_t fault_fired = 0;    ///< Fault events whose hook ran.
  std::uint64_t fault_unbound = 0;  ///< Fault events with no binding.
  int rsnodes = 0;          ///< The plan's RSNodes (NetRS), else #clients.
  std::string plan_method;  ///< Placement method of the final plan.
  int plans_deployed = 0;   ///< Plans the controller deployed.
  std::size_t drs_groups = 0;  ///< Groups on Degraded Replica Selection.
  std::size_t max_pending_capacity = 0;  ///< Largest RSNode pending table.
};

/// What a Harvest merged from one repeat.
struct HarvestOutput {
  sim::LatencyRecorder latencies_ms;  ///< Requests issued after warmup.
  /// Measured latencies by completion time: pre/during/post-fault.
  sim::LatencyRecorder phase_lat[3];
  /// Latencies by completion time, one recorder per `timeline_bucket`
  /// (warmup included; empty when the bucket is 0).
  std::vector<sim::LatencyRecorder> timeline;
  double forwards_sum = 0.0;      ///< Switch forwards of measured requests.
  double load_oscillation = 0.0;  ///< Herd metric (mean queue-length CV).
  obs::TraceSnapshot trace;       ///< Merged trace (tracing only).
  obs::MetricsSnapshot metrics;   ///< Metric series (metering only).
  obs::FlightSnapshot flight;     ///< Attribution records.
  obs::DecisionSnapshot decisions;  ///< Audited decisions.
  /// Per-ring trace accounting: shard lanes, then the coordinator.
  std::vector<obs::TraceLaneCounts> trace_lanes;
  /// Per timeline bucket, audited decisions that chose a crash-dark replica.
  std::vector<std::uint64_t> doomed_timeline;
  std::uint64_t doomed_picks = 0;  ///< Sum over doomed_timeline.
  sim::ShardTelemetry telemetry;   ///< Engine self-telemetry (opt-in).
};

/// Everything one repeat produced, grouped by the piece that filled it.
struct RunOutput {
  DeploymentTally deployment;  ///< Read from the components after the drain.
  HarvestOutput harvest;       ///< Merged by the Harvest.
  sim::AuditSummary audit;     ///< drive()'s audit epilogue.
  /// Per-shard events fired, read after the audit epilogue.
  std::vector<std::uint64_t> events_per_shard;
};

class Harvest;

/// The components of one repeat: shard group, fabric and switches, host
/// placement, ring and Zipf draw, NetRS operators with the shared core
/// pool and the controller, servers, the armed fault injector, and the
/// clients (built, not started). Harvest and drive() reach into it.
class Deployment {
 public:
  /// Builds `scheme`'s deployment of `cfg` (which must outlive it and pass
  /// run_experiment()'s validation) with randomness drawn from `seed`.
  Deployment(Scheme scheme, const ExperimentConfig& cfg, std::uint64_t seed);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// The global simulator: events scheduled here run at full barriers.
  [[nodiscard]] sim::Simulator& simulator() {
    return shard_group_.global_sim();
  }
  /// Nominal end of the run: total_requests at the aggregate rate.
  [[nodiscard]] sim::Time t_end() const { return t_end_; }
  /// The NetRS controller; nullptr for client-side schemes.
  [[nodiscard]] core::Controller* controller() { return controller_.get(); }
  /// Resets the selector of every RSNode the current plan uses, leaving
  /// them as a freshly deployed RSP would (§II); returns how many.
  int reset_active_selectors();

 private:
  friend class Harvest;
  friend RunOutput drive(Deployment& d);
  template <typename T>
  using Owned = std::vector<std::unique_ptr<T>>;

  void build_netrs();
  void build_servers();
  void arm_faults();
  void build_clients();
  [[nodiscard]] std::span<const net::HostId> server_hosts() const;
  [[nodiscard]] std::size_t in_flight() const;
  [[nodiscard]] DeploymentTally tally() const;
  sim::AuditSummary audit_epilogue();

  Scheme scheme_;
  const ExperimentConfig& cfg_;
  sim::ShardGroup shard_group_;
  sim::Rng root_;
  net::FatTree topo_;
  net::Fabric fabric_;
  Owned<net::Switch> switches_;
  // Every host, shuffled: servers first, then clients (one role per host).
  std::vector<net::HostId> hosts_;
  kv::ConsistentHashRing ring_;
  sim::ZipfDistribution zipf_;
  core::TrafficGroups groups_;
  Owned<core::NetRSOperator> operators_;
  Owned<core::Accelerator> shared_accels_;
  Owned<core::SelectorNode> shared_selectors_;
  std::unique_ptr<core::Controller> controller_;
  Owned<kv::Server> servers_;
  sim::FaultPlan fault_plan_;
  sim::FaultInjector injector_;
  Owned<kv::Client> clients_;
  sim::Time t_end_;
  sim::Time warmup_end_;
};

/// Builds the deployment's Harvest, advances the deployment through its
/// run, and returns what the repeat produced (see the file comment). Call
/// it once: the deployment must not run further afterwards.
RunOutput drive(Deployment& d);

}  // namespace netrs::harness
