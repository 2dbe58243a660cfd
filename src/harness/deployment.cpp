#include "harness/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "obs/observer.hpp"

namespace netrs::harness {
namespace {

// Shard-count resolution (DESIGN.md §4.10): clamp to [1, pods]. The obs
// layer is shard-parallel (one Observer lane per shard, merged
// deterministically at harvest — DESIGN.md §8.6), so every output —
// digests, trace JSON, metrics CSV, attribution CSV, decision CSV — is
// byte-identical at any --shards x --jobs combination.
int shard_count(const ExperimentConfig& cfg) {
  return std::min(std::max(1, cfg.shards), cfg.fat_tree_k);
}

net::FabricConfig fabric_config(const ExperimentConfig& cfg) {
  net::FabricConfig fabric_cfg;
  fabric_cfg.switch_link_latency = cfg.switch_link_latency;
  fabric_cfg.host_link_latency = cfg.host_link_latency;
  fabric_cfg.accelerator_link_latency = cfg.accelerator_link_latency;
  return fabric_cfg;
}

std::vector<std::unique_ptr<net::Switch>> build_switches(
    net::Fabric& fabric, const net::FatTree& topo) {
  std::vector<std::unique_ptr<net::Switch>> switches;
  switches.reserve(topo.switch_count());
  for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
    switches.push_back(std::make_unique<net::Switch>(fabric, sw));
    fabric.attach(sw, switches.back().get());
  }
  return switches;
}

// Random role placement: one role per host (paper §V-A).
std::vector<net::HostId> shuffled_hosts(const net::FatTree& topo,
                                        const sim::Rng& root) {
  std::vector<net::HostId> hosts(topo.host_count());
  std::iota(hosts.begin(), hosts.end(), net::HostId{0});
  sim::Rng placement_rng = root.child("placement");
  placement_rng.shuffle(hosts);
  return hosts;
}

// Each Client object superposes `client_multiplicity` independent Poisson
// streams, so this is the logical client count the selector concurrency
// math must see (the aggregate rate A is unchanged — it is split over
// more, proportionally slower, logical streams).
double logical_clients(const ExperimentConfig& cfg) {
  return static_cast<double>(cfg.num_clients) *
         static_cast<double>(std::max(1, cfg.client_multiplicity));
}

// Selections of a crash-dark replica ("doomed picks"): for each server
// crash/recover pair in the plan, count the audited decisions that chose
// that server's host inside its dark interval, bucketed on the latency
// timeline. The tail of nonzero buckets after a crash is how long the
// scheme kept routing to the dead replica — its failure reaction time as
// a directly comparable number (fig_failover plots it per scheme).
void tally_doomed_picks(const sim::FaultPlan& plan,
                        std::span<const net::HostId> server_hosts,
                        sim::Duration bucket, HarvestOutput& out) {
  if (plan.empty() || bucket <= 0 || out.decisions.records.empty()) return;
  // Dark intervals [from, to) per crashed host; an unmatched crash stays
  // dark to the end of the run.
  struct Dark {
    net::HostId host;
    sim::Time from, to;
  };
  std::vector<Dark> dark;
  std::map<int, sim::Time> open;  // crashed server index -> crash time
  for (const sim::FaultEvent& e : plan.events()) {
    if (e.unit != sim::FaultUnit::kServer || e.index < 0 ||
        static_cast<std::size_t>(e.index) >= server_hosts.size()) {
      continue;
    }
    const auto it = open.find(e.index);
    if (e.op == sim::FaultOp::kFail && it == open.end()) {
      open.emplace(e.index, e.at);
    } else if (e.op == sim::FaultOp::kRecover && it != open.end()) {
      dark.push_back({server_hosts[e.index], it->second, e.at});
      open.erase(it);
    }
  }
  for (const auto& [idx, t0] : open) {
    dark.push_back({server_hosts[idx], t0, sim::kNever});
  }
  for (const obs::DecisionRecord& r : out.decisions.records) {
    const auto hit = [&r](const Dark& d) {
      return r.chosen == d.host && r.t >= d.from && r.t < d.to;
    };
    if (std::none_of(dark.begin(), dark.end(), hit)) continue;
    const auto b = static_cast<std::size_t>(r.t / bucket);
    if (b >= out.doomed_timeline.size()) out.doomed_timeline.resize(b + 1, 0);
    ++out.doomed_timeline[b];
    ++out.doomed_picks;
  }
}

}  // namespace

// --- Deployment --------------------------------------------------------------

Deployment::Deployment(Scheme scheme, const ExperimentConfig& cfg,
                       std::uint64_t seed)
    : scheme_(scheme),
      cfg_(cfg),
      shard_group_(shard_count(cfg),
                   std::min(cfg.switch_link_latency, cfg.host_link_latency)),
      root_(seed),
      topo_(cfg.fat_tree_k),
      fabric_(shard_group_, topo_, fabric_config(cfg)),
      switches_(build_switches(fabric_, topo_)),
      hosts_(shuffled_hosts(topo_, root_)),
      ring_(server_hosts(), cfg.replication_factor, cfg.virtual_nodes,
            seed ^ 0x52494E47ULL),
      zipf_(cfg.keyspace, cfg.zipf_exponent),
      groups_(topo_, cfg.granularity, cfg.sub_rack_hosts),
      // The plan is parsed per repeat (cheap) and every event is scheduled
      // on the *global* simulator, so faults execute at full shard
      // barriers — bit-identical timing at any --shards/--jobs.
      fault_plan_(sim::FaultPlan::parse(cfg.fault_plan)),
      injector_(shard_group_.global_sim()),
      t_end_(cfg.nominal_duration()),
      warmup_end_(static_cast<sim::Time>(cfg.warmup_fraction *
                                         static_cast<double>(t_end_))) {
  if (is_netrs(scheme)) build_netrs();
  build_servers();
  arm_faults();
  build_clients();
}

Deployment::~Deployment() = default;

std::span<const net::HostId> Deployment::server_hosts() const {
  return {hosts_.data(), static_cast<std::size_t>(cfg_.num_servers)};
}

// NetRS operators on every switch, the shared core-group pool, and the
// controller, which is started here (the first event this deployment
// pushes).
void Deployment::build_netrs() {
  auto concurrency_hint = std::make_shared<double>(1.0);
  auto directory = std::make_shared<core::RsNodeDirectory>(
      topo_.switch_count() + 1, net::kInvalidNode);
  for (net::NodeId sw = 0; sw < topo_.switch_count(); ++sw) {
    (*directory)[static_cast<core::RsNodeId>(sw + 1)] = sw;
  }
  auto bootstrap_table = std::make_shared<const core::GroupRidTable>(
      groups_.group_count(), core::kRidIllegal);

  // `op_sim` is the operator's shard simulator: selectors keep clocks and
  // rate-control state, so they must live on the shard that executes
  // their switch's events (the global simulator at --shards 1).
  auto make_factory = [concurrency_hint, clients = logical_clients(cfg_),
                       &selector = cfg_.selector](
                          sim::Simulator& op_sim,
                          sim::Rng op_rng) -> core::SelectorFactory {
    return [&op_sim, op_rng, concurrency_hint, selector, clients,
            incarnation = std::uint64_t{0}]() mutable {
      rs::SelectorConfig sc = selector;
      sc.c3.concurrency = std::max(1.0, *concurrency_hint);
      // C3's cubic rate controller was sized for *client* send rates; an
      // RSNode aggregates the traffic of clients/RSNodes many clients, so
      // its initial rate budget and token burst scale by that factor
      // (conserving the cluster-wide budget C3 assumes).
      const double aggregation = std::max(1.0, clients / sc.c3.concurrency);
      sc.c3.cubic.initial_rate *= aggregation;
      sc.c3.cubic.burst_tokens *= aggregation;
      return rs::make_selector(sc, op_sim, op_rng.child(++incarnation));
    };
  };

  // Shared accelerators (§III-B): one physical accelerator + selector per
  // core group, cabled to all k/2 core switches of that group.
  const int half = topo_.k() / 2;
  if (cfg_.share_core_accelerators) {
    for (int group = 0; group < half; ++group) {
      auto accel = std::make_unique<core::Accelerator>(
          fabric_, topo_.core_node(group, 0), cfg_.accelerator);
      sim::Simulator& group_sim =
          fabric_.simulator_for(topo_.core_node(group, 0));
      auto factory = make_factory(
          group_sim, root_.child(0x0A000000ULL + static_cast<unsigned>(group)));
      auto selector = std::make_unique<core::SelectorNode>(
          group_sim, ring_.groups(), factory());
      accel->set_handler([sel = selector.get()](net::Packet pkt) {
        return sel->process(std::move(pkt));
      });
      selector->set_trace_tid(static_cast<std::int32_t>(accel->node_id()));
      shared_accels_.push_back(std::move(accel));
      shared_selectors_.push_back(std::move(selector));
    }
  }

  for (net::NodeId sw = 0; sw < topo_.switch_count(); ++sw) {
    core::SharedParts shared;
    if (cfg_.share_core_accelerators && topo_.tier(sw) == net::Tier::kCore) {
      const int group = static_cast<int>(topo_.coord(sw).idx) / half;
      const auto g = static_cast<std::size_t>(group);
      shared.accelerator = shared_accels_[g].get();
      shared.selector = shared_selectors_[g].get();
      shared.share_id = group;
    }
    operators_.push_back(std::make_unique<core::NetRSOperator>(
        fabric_, *switches_[sw], static_cast<core::RsNodeId>(sw + 1),
        cfg_.accelerator, directory, ring_.groups(),
        make_factory(fabric_.simulator_for(sw),
                     root_.child(0x09000000ULL + sw)),
        &groups_, bootstrap_table, shared));
  }

  core::ControllerConfig ctrl_cfg;
  ctrl_cfg.mode = scheme_ == Scheme::kNetRSToR ? core::PlanMode::kTor
                                               : core::PlanMode::kIlp;
  ctrl_cfg.replan_interval = cfg_.replan_interval;
  ctrl_cfg.utilization_cap = cfg_.utilization_cap;
  ctrl_cfg.extra_hop_fraction = cfg_.extra_hop_fraction;
  ctrl_cfg.overload_utilization = cfg_.overload_utilization;
  ctrl_cfg.placement = cfg_.placement;
  ctrl_cfg.on_plan_change = [concurrency_hint](
                                const core::PlacementResult& plan) {
    *concurrency_hint = std::max(1, plan.rsnodes_used);
  };
  std::vector<core::NetRSOperator*> op_ptrs;
  op_ptrs.reserve(operators_.size());
  for (auto& op : operators_) op_ptrs.push_back(op.get());
  controller_ = std::make_unique<core::Controller>(
      shard_group_.global_sim(), topo_, groups_, std::move(op_ptrs), ctrl_cfg);
  controller_->start();
}

void Deployment::build_servers() {
  kv::ServerConfig server_cfg;
  server_cfg.parallelism = cfg_.server_parallelism;
  server_cfg.mean_service_time = cfg_.mean_service_time;
  server_cfg.fluctuate = cfg_.fluctuate;
  server_cfg.fluctuation_interval = cfg_.fluctuation_interval;
  server_cfg.fluctuation_factor = cfg_.fluctuation_factor;
  server_cfg.value_bytes = cfg_.value_bytes;

  servers_.reserve(server_hosts().size());
  for (net::HostId h : server_hosts()) {
    servers_.push_back(std::make_unique<kv::Server>(
        fabric_, h, server_cfg, root_.child(0x05000000ULL + h)));
  }
}

// Fault injection (DESIGN.md §9). All hook bundles are bound here: the
// harness is the one layer allowed to touch component fail()/recover()
// hooks directly (fault-hook-discipline lint rule).
void Deployment::arm_faults() {
  if (fault_plan_.empty()) return;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    kv::Server* srv = servers_[i].get();
    injector_.bind_server(
        static_cast<int>(i),
        {[srv] { srv->fail(); }, [srv] { srv->recover(); },
         [srv](double f) { srv->set_service_inflation(f); }});
  }
  injector_.set_link_hook([fabric = &fabric_](int a, int b, bool up) {
    fabric->set_link_state(static_cast<net::NodeId>(a),
                           static_cast<net::NodeId>(b), up);
  });
  core::Controller* ctrl = controller_.get();
  for (auto& op : operators_) {
    core::NetRSOperator* o = op.get();
    const auto id = static_cast<int>(o->id());
    // RSNode failover (§III-C case i): the node loses its selection state,
    // the controller degrades its groups to DRS and re-solves immediately;
    // restore re-solves again so the node can rejoin.
    injector_.bind_rsnode(id, {[ctrl, o] {
                                 o->selector_node().fail();
                                 ctrl->fail_operator(o->id());
                                 ctrl->replan_now();
                               },
                               [ctrl, o] {
                                 ctrl->restore_operator(o->id());
                                 ctrl->replan_now();
                               },
                               nullptr});
    // Accelerator failure: the packet processor itself goes dark
    // (shared-pool accelerators take their whole core group down).
    injector_.bind_accelerator(id,
                               {[o] { o->accelerator().fail(); },
                                [o] { o->accelerator().recover(); },
                                nullptr});
  }
  injector_.arm(fault_plan_);
}

void Deployment::build_clients() {
  const double aggregate = cfg_.aggregate_rate();
  const int hot_count = cfg_.demand_skew > 0.0
                            ? std::max(1, static_cast<int>(
                                              0.2 * cfg_.num_clients + 0.5))
                            : 0;
  const double hot_rate =
      hot_count > 0 ? aggregate * cfg_.demand_skew / hot_count : 0.0;
  const double cold_rate =
      cfg_.num_clients > hot_count
          ? aggregate * (1.0 - cfg_.demand_skew) /
                (hot_count > 0 ? cfg_.num_clients - hot_count
                               : cfg_.num_clients)
          : 0.0;

  kv::ClientConfig client_cfg;
  client_cfg.mode = is_netrs(scheme_) ? kv::ClientMode::kNetRS
                                      : kv::ClientMode::kClientSelect;
  client_cfg.redundancy.enabled =
      scheme_ == Scheme::kCliRSR95 || scheme_ == Scheme::kCliRSR95Cancel;
  client_cfg.redundancy.cancel_on_completion =
      scheme_ == Scheme::kCliRSR95Cancel;
  client_cfg.selector = cfg_.selector;
  client_cfg.selector.c3.concurrency = std::max(1.0, logical_clients(cfg_));
  client_cfg.selector.c3.service_time_prior = cfg_.mean_service_time;

  const auto client_hosts = std::span<const net::HostId>(hosts_).subspan(
      static_cast<std::size_t>(cfg_.num_servers),
      static_cast<std::size_t>(cfg_.num_clients));
  clients_.reserve(client_hosts.size());
  for (int i = 0; i < cfg_.num_clients; ++i) {
    const net::HostId h = client_hosts[static_cast<std::size_t>(i)];
    kv::ClientConfig this_cfg = client_cfg;
    this_cfg.arrival_rate =
        (hot_count > 0 && i < hot_count) ? hot_rate
        : cold_rate > 0.0               ? cold_rate
                                        : aggregate / cfg_.num_clients;
    clients_.push_back(std::make_unique<kv::Client>(
        fabric_, h, this_cfg, ring_, zipf_, root_.child(0x0C000000ULL + h)));
  }
}

int Deployment::reset_active_selectors() {
  if (controller_ == nullptr) return 0;
  const core::PlacementResult& plan = controller_->current_plan();
  int reset = 0;
  for (auto& op : operators_) {
    const bool active =
        std::any_of(plan.assignment.begin(), plan.assignment.end(),
                    [id = op->id()](const auto& a) { return a.second == id; });
    if (active) {
      op->reset_selector();
      ++reset;
    }
  }
  return reset;
}

std::size_t Deployment::in_flight() const {
  std::size_t n = 0;
  for (const auto& c : clients_) n += c->in_flight();
  return n;
}

DeploymentTally Deployment::tally() const {
  DeploymentTally t;
  for (const auto& c : clients_) {
    t.issued += c->issued();
    t.completed += c->completed();
    t.redundant += c->redundant_sent();
    t.cancels += c->cancels_sent();
  }
  t.wire_bytes = fabric_.bytes_sent();
  // Summed over shards (and the global queue) in shard order, so the count
  // is deterministic at any shards/jobs value.
  t.events_fired = shard_group_.events_fired();
  t.fault_fired = injector_.fired();
  t.fault_unbound = injector_.unbound();
  if (controller_ != nullptr) {
    t.rsnodes = controller_->active_rsnodes();
    t.plan_method = controller_->current_plan().method;
    t.plans_deployed = static_cast<int>(controller_->plans_deployed());
    t.drs_groups = controller_->current_plan().drs_groups.size();
    for (const auto& op : operators_) {
      t.max_pending_capacity = std::max(t.max_pending_capacity,
                                        op->selector_node().pending_capacity());
    }
  } else {
    t.rsnodes = cfg_.num_clients;
    t.plan_method = "client";
  }
  return t;
}

sim::AuditSummary Deployment::audit_epilogue() {
  if constexpr (!sim::kAuditEnabled) return {};
  // drive() reads every digest-relevant output before this runs, so the
  // extra drain cannot perturb recorded results — it only lets in-flight
  // link crossings land before the conservation ledger closes. Periodic
  // tasks (fluctuation, controller replan) keep the event queue alive
  // forever, so poll the fabric rather than wait for quiescence; traffic
  // still on the wire at the deadline is recorded as in-flight, not as a
  // leak.
  const sim::Time audit_deadline = shard_group_.now() + sim::seconds(1);
  while (shard_group_.now() < audit_deadline &&
         fabric_.deliveries_in_flight() > 0) {
    shard_group_.run_until(shard_group_.now() + sim::millis(1));
  }
  fabric_.audit_finalize(
      /*expect_drained=*/fabric_.deliveries_in_flight() == 0);
  // Per-shard ledgers merged in shard order (plus the global queue's).
  return fabric_.merged_audit_summary();
}

// --- Harvest -----------------------------------------------------------------

// What one repeat merges: the per-shard completion accumulators, the herd
// sampler, the observer lanes, metric gauges, decision hooks, trace tid
// names, telemetry gauges and the doomed-pick tally. Construction pushes
// the herd sampler, attaches the lanes and hooks every client's
// completions; destruction detaches the lanes.
class Harvest {
 public:
  explicit Harvest(Deployment& d);
  ~Harvest();
  Harvest(const Harvest&) = delete;
  Harvest& operator=(const Harvest&) = delete;

  // The repeat's metrics registry; nullptr unless metering.
  [[nodiscard]] obs::MetricsRegistry* metrics();
  // Merges the completion accumulators and the herd metric into `out`.
  void take_completions(HarvestOutput& out);
  // Moves the observer snapshots, telemetry and doomed picks into `out`.
  void take_records(HarvestOutput& out);

 private:
  struct QueueMoments {  // one server's sampled queue-length moments
    double sum = 0.0, sumsq = 0.0;
    std::uint64_t n = 0;
  };
  struct ShardAccum {  // one shard's completion-path accumulators
    sim::LatencyRecorder latencies_ms;
    sim::LatencyRecorder phase[3];               // pre/during/post-fault
    std::vector<sim::LatencyRecorder> timeline;  // absolute-time buckets
    double forwards_sum = 0.0;
  };

  void start_herd_sampler();
  void attach_observers();
  void hook_completions();
  void register_run_metrics();
  void hook_decisions();
  void name_tids();
  void register_telemetry_gauges();
  [[nodiscard]] double herd_cv() const;

  Deployment& d_;
  std::vector<QueueMoments> moments_;
  std::vector<ShardAccum> accums_;
  std::unique_ptr<obs::ShardObserverSet> observer_;
  obs::ShardedHistogram* latency_hist_ = nullptr;
  bool telemetry_ = false;
};

Harvest::Harvest(Deployment& d)
    : d_(d),
      moments_(d.servers_.size()),
      accums_(static_cast<std::size_t>(d.shard_group_.shards())) {
  start_herd_sampler();
  attach_observers();
  hook_completions();
  if (observer_) {
    register_run_metrics();
    // Flight + decision records apply the same warmup filter as the
    // measured latencies (in the harvest merges), so record counts match
    // the latency sample count exactly.
    observer_->set_measure_from(d_.warmup_end_);
    if (observer_->deciding()) hook_decisions();
    if (observer_->tracing()) name_tids();
  }
  // Engine self-telemetry (opt-in; wall-clock based, so the series is
  // nondeterministic — every simulated output stays byte-identical).
  telemetry_ = !d_.cfg_.shard_telemetry_path.empty();
  if (telemetry_) {
    d_.shard_group_.enable_telemetry(std::max<sim::Duration>(
        1, d_.cfg_.shard_telemetry_bucket));
    if (observer_ && observer_->metering()) register_telemetry_gauges();
  }
}

Harvest::~Harvest() {
  if (!observer_) return;
  sim::ShardGroup& group = d_.shard_group_;
  for (int s = 0; s < group.shards(); ++s) {
    group.shard_sim(s).set_observer(nullptr);
  }
  group.global_sim().set_observer(nullptr);
}

obs::MetricsRegistry* Harvest::metrics() {
  return observer_ && observer_->metering() ? &observer_->metrics() : nullptr;
}

// Herd-behavior instrumentation: sample every server's queue length
// periodically during the measured phase; per-server mean/variance give
// the load-oscillation metric (coefficient of variation).
void Harvest::start_herd_sampler() {
  sim::Simulator& simulator = d_.simulator();
  simulator.every(sim::millis(5), [this, &simulator] {
    if (simulator.now() < d_.warmup_end_) return true;
    const auto& servers = d_.servers_;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const double q = servers[i]->queue_size();
      moments_[i].sum += q;
      moments_[i].sumsq += q * q;
      ++moments_[i].n;
    }
    return simulator.now() < d_.t_end_;
  });
}

// Observation-only: results are identical with or without it. One Observer
// lane per shard — each component records on its own shard's simulator
// with zero cross-shard traffic — plus the coordinator observer for
// global-simulator events; the lane snapshots merge deterministically at
// harvest (DESIGN.md §8.6).
void Harvest::attach_observers() {
  const ExperimentConfig& cfg = d_.cfg_;
  if (!cfg.obs.any()) return;
  sim::ShardGroup& group = d_.shard_group_;
  const int shards = group.shards();
  observer_ = std::make_unique<obs::ShardObserverSet>(cfg.obs, shards);
  for (int s = 0; s < shards; ++s) {
    group.shard_sim(s).set_observer(&observer_->lane(s));
  }
  // At shards == 1 the global simulator IS shard 0, and coordinator() is
  // lane(0) — the second set_observer stores the same pointer.
  group.global_sim().set_observer(&observer_->coordinator());
  if (observer_->metering()) {
    latency_hist_ = observer_->metrics().sharded_histogram(
        "latency_ms", {1, 2, 4, 8, 16, 32, 64, 128, 256}, shards);
  }
}

// Completion-path accumulators, one per shard: the callback runs on the
// client's shard worker, so each thread writes only its own slot; the
// slots merge in shard order after the run. The recorded sample set is
// identical at any shard count (the digest sorts samples, and the integer
// counters are order-independent sums).
void Harvest::hook_completions() {
  const sim::FaultPlan& plan = d_.fault_plan_;
  const bool have_fault = !plan.empty();
  const sim::Time fault_start = plan.window_start();
  const sim::Time fault_end = plan.window_end();
  const sim::Duration tl_bucket = d_.cfg_.timeline_bucket;
  const sim::Time warmup_time = d_.warmup_end_;
  obs::ShardedHistogram* latency_hist = latency_hist_;
  for (const auto& c : d_.clients_) {
    const int lane = d_.fabric_.shard_of(c->node_id());
    ShardAccum* acc = &accums_[static_cast<std::size_t>(lane)];
    c->set_completion_callback(
        [acc, lane, warmup_time, latency_hist, have_fault, fault_start,
         fault_end, tl_bucket](const kv::Client::Completion& comp) {
          if (tl_bucket > 0) {
            // Timeline buckets cover the whole run (warmup included), so
            // the failover panel shows the ramp as well as the event.
            const auto idx =
                static_cast<std::size_t>(comp.completed_at / tl_bucket);
            if (idx >= acc->timeline.size()) acc->timeline.resize(idx + 1);
            acc->timeline[idx].add(sim::to_millis(comp.latency));
          }
          if (comp.completed_at - comp.latency < warmup_time) return;
          acc->latencies_ms.add(sim::to_millis(comp.latency));
          if (latency_hist != nullptr) {
            // Integer-ns bucketing on the caller's shard lane: lanes fold
            // by integer addition at sample time, so the series is
            // byte-identical at any shard count.
            latency_hist->add(lane, comp.latency);
          }
          acc->forwards_sum += comp.forwards;
          if (have_fault) {
            // Phase by completion time against the plan's fault window.
            const int p = comp.completed_at < fault_start  ? 0
                          : comp.completed_at < fault_end ? 1
                                                          : 2;
            acc->phase[p].add(sim::to_millis(comp.latency));
          }
        });
  }
}

/// Herd / load-oscillation metric over the sampled moments: the mean over
/// servers of each server's queue-length coefficient of variation.
/// Servers with < 10 samples or a ~zero mean are excluded. Used both for
/// the end-of-run scalar (the report's herdCV column) and the live
/// `herd.cv` gauge, so the two always agree on the final tick.
double Harvest::herd_cv() const {
  double cv_sum = 0.0;
  int counted = 0;
  for (const QueueMoments& m : moments_) {
    if (m.n < 10) continue;
    const double mean = m.sum / static_cast<double>(m.n);
    const double var =
        std::max(0.0, m.sumsq / static_cast<double>(m.n) - mean * mean);
    if (mean > 1e-9) {
      cv_sum += std::sqrt(var) / mean;
      ++counted;
    }
  }
  return counted > 0 ? cv_sum / counted : 0.0;
}

/// Registers the standard per-repeat metric set (DESIGN.md §8.2) against
/// live component getters. Registration order fixes the column order, so
/// it must be deterministic — and it is: plain index loops only.
void Harvest::register_run_metrics() {
  obs::MetricsRegistry& reg = observer_->metrics();
  const sim::Simulator* simulator = &d_.simulator();
  const auto& servers = d_.servers_;
  const auto& clients = d_.clients_;
  const auto client_sum = [&clients](auto (kv::Client::*get)() const) {
    return [&clients, get] {
      std::uint64_t n = 0;
      for (const auto& c : clients) n += ((*c).*get)();
      return static_cast<double>(n);
    };
  };
  reg.gauge("cli.issued", client_sum(&kv::Client::issued));
  reg.gauge("cli.completed", client_sum(&kv::Client::completed));
  reg.gauge("cli.inflight", client_sum(&kv::Client::in_flight));

  // Per-server depth series are for plotting, not the summary table
  // (their names embed the repeat's random placement).
  for (const auto& s : servers) {
    reg.gauge("kv.qdepth.s" + std::to_string(s->host_id()),
              [srv = s.get()] {
                return static_cast<double>(srv->queue_size());
              },
              /*summarize=*/false);
  }
  reg.gauge("kv.qdepth.mean", [&servers] {
    double sum = 0.0;
    for (const auto& s : servers) sum += s->queue_size();
    return servers.empty() ? 0.0 : sum / static_cast<double>(servers.size());
  });
  reg.gauge("kv.qdepth.max", [&servers] {
    double mx = 0.0;
    for (const auto& s : servers) {
      mx = std::max(mx, static_cast<double>(s->queue_size()));
    }
    return mx;
  });
  // Instantaneous across-server coefficient of variation: the herd /
  // load-oscillation signal (§II) as a time series.
  reg.gauge("kv.qdepth.cv", [&servers] {
    if (servers.empty()) return 0.0;
    double sum = 0.0, sumsq = 0.0;
    for (const auto& s : servers) {
      const double q = s->queue_size();
      sum += q;
      sumsq += q * q;
    }
    const double n = static_cast<double>(servers.size());
    const double mean = sum / n;
    if (mean <= 1e-9) return 0.0;
    const double var = std::max(0.0, sumsq / n - mean * mean);
    return std::sqrt(var) / mean;
  });
  // Cumulative herd metric over the measured phase so far — the same
  // statistic the report's herdCV column shows at the end of the run, now
  // also on the metrics timeline.
  reg.gauge("herd.cv", [this] { return herd_cv(); });

  // Unique accelerator/selector pairs, in a deterministic order: the
  // shared core-group pool first, then every dedicated operator.
  struct Unit {
    std::string tag;
    const core::Accelerator* accel;
    const core::SelectorNode* selector;
  };
  std::vector<Unit> units;
  for (std::size_t g = 0; g < d_.shared_accels_.size(); ++g) {
    units.push_back({"core" + std::to_string(g), d_.shared_accels_[g].get(),
                     d_.shared_selectors_[g].get()});
  }
  for (const auto& op : d_.operators_) {
    if (op->accel_share_id() >= 0) continue;  // in the pool above
    units.push_back({"rs" + std::to_string(op->id()), &op->accelerator(),
                     &op->selector_node()});
  }
  for (const Unit& u : units) {
    reg.gauge("accel.util." + u.tag,
              [a = u.accel, simulator] {
                return a->utilization(simulator->now());
              },
              /*summarize=*/false);
  }
  if (!units.empty()) {
    reg.gauge("accel.util.mean", [units, simulator] {
      double sum = 0.0;
      for (const Unit& u : units) sum += u.accel->utilization(simulator->now());
      return sum / static_cast<double>(units.size());
    });
    reg.gauge("accel.util.max", [units, simulator] {
      double mx = 0.0;
      for (const Unit& u : units) {
        mx = std::max(mx, u.accel->utilization(simulator->now()));
      }
      return mx;
    });
    for (const Unit& u : units) {
      reg.gauge("rs.selected." + u.tag,
                [s = u.selector] {
                  return static_cast<double>(s->requests_selected());
                },
                /*summarize=*/false);
    }
    reg.gauge("rs.selected.total", [units] {
      std::uint64_t n = 0;
      for (const Unit& u : units) n += u.selector->requests_selected();
      return static_cast<double>(n);
    });
  }

  d_.fabric_.register_metrics(reg);
}

void Harvest::hook_decisions() {
  net::Fabric& fabric = d_.fabric_;
  // Seed the decision oracle's journal: every server's t=0 state on its
  // own shard's lane. From here on the servers journal their own
  // transitions (kv::Server::journal_state), and the harvest replay looks
  // decisions up against the merged journal, at any shard count.
  for (const auto& s : d_.servers_) {
    observer_->lane(fabric.shard_of(s->node_id()))
        .decisions()
        .on_server_state(s->host_id(), 0, s->queue_size(), s->parallelism(),
                         s->current_mean());
  }
  // Audit every deciding RSNode: clients (CliRS schemes), the shared
  // core-group selector pool, and each dedicated operator's selector. Each
  // hook records on the component's own shard lane with its own shard's
  // clock — decision hooks fire inside parallel windows, so the global
  // clock would race (and lag).
  const auto make_hook = [this, &fabric](net::NodeId node, std::int32_t tid) {
    obs::DecisionRecorder* rec =
        &observer_->lane(fabric.shard_of(node)).decisions();
    const sim::Simulator* clk = &fabric.simulator_for(node);
    return [rec, tid, clk](const rs::DecisionContext& ctx) {
      rec->on_decision(tid, clk->now(), ctx.candidates, ctx.chosen,
                       ctx.scores, ctx.ages);
    };
  };
  for (const auto& c : d_.clients_) {
    c->set_decision_hook(
        make_hook(c->node_id(), static_cast<std::int32_t>(c->node_id())));
  }
  const auto& shared_accels = d_.shared_accels_;
  const auto& shared_selectors = d_.shared_selectors_;
  for (std::size_t g = 0; g < shared_selectors.size(); ++g) {
    shared_selectors[g]->set_decision_hook(make_hook(
        shared_accels[g]->node_id(), shared_selectors[g]->trace_tid()));
  }
  for (const auto& op : d_.operators_) {
    if (op->accel_share_id() >= 0) continue;  // pool hooked above
    op->selector_node().set_decision_hook(
        make_hook(op->switch_node(), op->selector_node().trace_tid()));
  }
}

void Harvest::name_tids() {
  for (const auto& s : d_.servers_) {
    observer_->set_tid_name(static_cast<std::int32_t>(s->node_id()),
                            "server@h" + std::to_string(s->host_id()));
  }
  for (const auto& c : d_.clients_) {
    observer_->set_tid_name(static_cast<std::int32_t>(c->node_id()),
                            "client@h" + std::to_string(c->host_id()));
  }
  for (const auto& op : d_.operators_) {
    observer_->set_tid_name(static_cast<std::int32_t>(op->switch_node()),
                            "sw" + std::to_string(op->switch_node()));
    observer_->set_tid_name(
        static_cast<std::int32_t>(op->accelerator().node_id()),
        "accel@sw" + std::to_string(op->accelerator().switch_node()));
  }
}

// sim.shard.* gauges ride the metrics CSV only when telemetry was
// explicitly requested: exec/stall are wall-clock values, and the default
// CSV must stay byte-identical at any --shards x --jobs.
void Harvest::register_telemetry_gauges() {
  using Lane = sim::ShardTelemetry::Lane;
  obs::MetricsRegistry& reg = observer_->metrics();
  const sim::ShardGroup* group = &d_.shard_group_;
  const net::Fabric* fab = &d_.fabric_;
  for (int s = 0; s < group->shards(); ++s) {
    const auto lane = static_cast<std::size_t>(s);
    const std::string suffix = ".s" + std::to_string(s);
    const auto lane_field = [group, lane](std::uint64_t Lane::* f) {
      const sim::ShardTelemetry& t = group->telemetry();
      return lane < t.lanes.size() ? static_cast<double>(t.lanes[lane].*f)
                                   : 0.0;
    };
    const std::pair<const char*, std::uint64_t Lane::*> fields[] = {
        {"windows", &Lane::windows},
        {"events", &Lane::events},
        {"exec_ns", &Lane::exec_ns},
        {"stall_ns", &Lane::stall_ns}};
    for (const auto& [name, f] : fields) {
      reg.gauge("sim.shard." + std::string(name) + suffix,
                [lane_field, f] { return lane_field(f); },
                /*summarize=*/false);
    }
    // Wall-clock utilization: execute share of this shard's window time
    // so far (1.0 = never waited for a peer).
    reg.gauge("sim.shard.util" + suffix,
              [lane_field] {
                const double e = lane_field(&Lane::exec_ns);
                const double st = lane_field(&Lane::stall_ns);
                return e + st > 0.0 ? e / (e + st) : 0.0;
              },
              /*summarize=*/false);
    reg.gauge("sim.shard.cross_sends" + suffix,
              [fab, s] { return static_cast<double>(fab->cross_sends(s)); },
              /*summarize=*/false);
    reg.gauge("sim.shard.cross_pending" + suffix,
              [fab, s] {
                return static_cast<double>(fab->cross_pending_depth(s));
              },
              /*summarize=*/false);
  }
}

void Harvest::take_completions(HarvestOutput& out) {
  // Merge the per-shard completion accumulators in shard order.
  for (ShardAccum& acc : accums_) {
    out.latencies_ms.merge(acc.latencies_ms);
    for (int p = 0; p < 3; ++p) out.phase_lat[p].merge(acc.phase[p]);
    if (acc.timeline.size() > out.timeline.size()) {
      out.timeline.resize(acc.timeline.size());
    }
    for (std::size_t i = 0; i < acc.timeline.size(); ++i) {
      out.timeline[i].merge(acc.timeline[i]);
    }
    out.forwards_sum += acc.forwards_sum;
  }
  out.load_oscillation = herd_cv();
}

void Harvest::take_records(HarvestOutput& out) {
  if (telemetry_) out.telemetry = d_.shard_group_.telemetry();
  if (!observer_) return;
  out.trace = observer_->take_trace();
  out.metrics = observer_->take_metrics();
  out.flight = observer_->take_flight();
  out.decisions = observer_->take_decisions();
  if (observer_->tracing()) out.trace_lanes = observer_->lane_trace_counts();
  tally_doomed_picks(d_.fault_plan_, d_.server_hosts(),
                     d_.cfg_.timeline_bucket, out);
}

// --- drive -------------------------------------------------------------------

RunOutput drive(Deployment& d) {
  Harvest h(d);
  sim::ShardGroup& group = d.shard_group_;
  const sim::Time t_end = d.t_end_;
  const sim::Duration interval = d.cfg_.obs.sample_interval;
  for (auto& c : d.clients_) c->start();
  // Metrics sampling is driven from here, between run_until calls, not by a
  // simulator tick: at each grid point T the engine is quiescent with every
  // event <= T-1 executed and none at T, so a sample reads the same state
  // at any --shards x --jobs combination (an in-simulator ticker would
  // interleave unpredictably with same-timestamp events). Gauges that
  // cross shards are safe here for the same reason.
  if (obs::MetricsRegistry* reg = h.metrics(); reg != nullptr && interval > 0) {
    for (sim::Time t = interval; t <= t_end; t += interval) {
      group.run_until(t - 1);
      reg->sample(t);
    }
  }
  group.run_until(t_end);
  for (auto& c : d.clients_) c->stop();
  // Drain in-flight requests (periodic tasks keep the queue alive, so poll
  // the clients rather than waiting for quiescence). Between run_until
  // calls every shard is parked, so the cross-shard reads are safe.
  const sim::Time drain_deadline = t_end + sim::seconds(5);
  while (group.now() < drain_deadline && d.in_flight() > 0) {
    group.run_until(group.now() + sim::millis(1));
  }

  RunOutput out;
  out.deployment = d.tally();
  h.take_completions(out.harvest);
  out.audit = d.audit_epilogue();
  out.events_per_shard = group.events_fired_per_shard();
  h.take_records(out.harvest);
  return out;
}

}  // namespace netrs::harness
