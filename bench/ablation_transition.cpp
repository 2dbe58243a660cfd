// Ablation A7 — the cost of deploying a new Replica Selection Plan.
//
// §II: "the deployment of a new RSP may lead to a temporary latency
// increase. The time it takes for the system to stabilize again depends
// on many factors, including the rate of convergence of the replica
// selection algorithm..." This bench measures that transient directly: a
// paper-scale NetRS-ILP cluster runs in steady state, then at t = 1.5 s
// every active RSNode's selector is reset — exactly the state a *newly
// activated* RSNode starts from — and the per-100ms latency timeline
// shows the spike and the re-convergence time of C3.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#include "kv/client.hpp"
#include "kv/consistent_hash.hpp"
#include "kv/server.hpp"
#include "net/switch.hpp"
#include "netrs/controller.hpp"
#include "netrs/operator.hpp"
#include "rs/factory.hpp"

using namespace netrs;

int main() {
  std::printf("=== Ablation A7 - RSP deployment transient ===\n");
  sim::Simulator sim;
  net::FatTree topo(16);
  net::Fabric fabric(sim, topo, net::FabricConfig{});
  std::vector<std::unique_ptr<net::Switch>> switches;
  for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
    switches.push_back(std::make_unique<net::Switch>(fabric, sw));
    fabric.attach(sw, switches.back().get());
  }

  sim::Rng root(17);
  std::vector<net::HostId> hosts(topo.host_count());
  std::iota(hosts.begin(), hosts.end(), net::HostId{0});
  root.shuffle(hosts);
  const std::vector<net::HostId> server_hosts(hosts.begin(),
                                              hosts.begin() + 100);
  const std::vector<net::HostId> client_hosts(hosts.begin() + 100,
                                              hosts.begin() + 600);

  kv::ConsistentHashRing ring(server_hosts, 3, 16);
  sim::ZipfDistribution zipf(100'000'000, 0.99);
  core::TrafficGroups groups(topo, core::GroupGranularity::kRack);

  auto directory = std::make_shared<core::RsNodeDirectory>(
      topo.switch_count() + 1, net::kInvalidNode);
  for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
    (*directory)[static_cast<core::RsNodeId>(sw + 1)] = sw;
  }
  auto bootstrap = std::make_shared<const core::GroupRidTable>(
      groups.group_count(), core::kRidIllegal);
  std::vector<std::unique_ptr<core::NetRSOperator>> operators;
  for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
    sim::Rng op_rng = root.child(0x7000 + sw);
    operators.push_back(std::make_unique<core::NetRSOperator>(
        fabric, *switches[sw], static_cast<core::RsNodeId>(sw + 1),
        core::AcceleratorConfig{}, directory, ring.groups(),
        [&sim, op_rng]() mutable {
          rs::SelectorConfig cfg;  // C3 with defaults, RSNode-scaled budget
          cfg.c3.concurrency = 7.0;
          cfg.c3.cubic.initial_rate *= 500.0 / 7.0;
          cfg.c3.cubic.burst_tokens *= 500.0 / 7.0;
          return rs::make_selector(cfg, sim, op_rng.child("s"));
        },
        &groups, bootstrap));
  }

  core::ControllerConfig ctrl_cfg;
  ctrl_cfg.mode = core::PlanMode::kIlp;
  ctrl_cfg.replan_interval = sim::millis(100);
  ctrl_cfg.rsp_update_interval = sim::seconds(60);  // one plan, no churn
  std::vector<core::NetRSOperator*> ptrs;
  for (auto& op : operators) ptrs.push_back(op.get());
  core::Controller controller(sim, topo, groups, std::move(ptrs), ctrl_cfg);
  controller.start();

  kv::ServerConfig scfg;  // paper defaults (4 ms, fluctuating, Np = 4)
  std::vector<std::unique_ptr<kv::Server>> servers;
  for (net::HostId h : server_hosts) {
    servers.push_back(
        std::make_unique<kv::Server>(fabric, h, scfg, root.child(h)));
  }

  kv::ClientConfig ccfg;
  ccfg.mode = kv::ClientMode::kNetRS;
  ccfg.arrival_rate = 90000.0 / client_hosts.size();  // 90 % utilization

  constexpr int kBuckets = 30;  // 3 s in 100 ms windows
  std::vector<sim::LatencyRecorder> timeline(kBuckets);
  std::vector<std::unique_ptr<kv::Client>> clients;
  for (net::HostId h : client_hosts) {
    clients.push_back(std::make_unique<kv::Client>(
        fabric, h, ccfg, ring, zipf, root.child(0x8000 + h)));
    clients.back()->set_completion_callback(
        [&](const kv::Client::Completion& c) {
          const auto b =
              static_cast<std::size_t>(sim.now() / sim::millis(100));
          if (b < timeline.size()) timeline[b].add(sim::to_millis(c.latency));
        });
    clients.back()->start();
  }

  // The event under test: at t = 1.5 s every active RSNode restarts with
  // an empty view, as if a brand-new RSP had just been deployed.
  const sim::Time reset_at = sim::millis(1500);
  sim.at(reset_at, [&] {
    int reset = 0;
    for (auto& op : operators) {
      if (controller.current_plan().assignment.empty()) break;
      for (const auto& [g, rid] : controller.current_plan().assignment) {
        (void)g;
        if (rid == op->id()) {
          op->reset_selector();
          ++reset;
          break;
        }
      }
    }
    std::printf("t=1.5s: reset the selectors of %d active RSNodes\n", reset);
  });

  sim.run_until(sim::seconds(3));
  for (auto& c : clients) c->stop();
  sim.run_until(sim.now() + sim::millis(100));

  std::printf("\n%-10s %10s %10s %10s\n", "window", "mean(ms)", "p99(ms)",
              "samples");
  // Sampling is done: finalize each bucket once so the percentile queries
  // below (and the merged summaries) are lookups, not per-call copy-sorts.
  for (auto& bucket : timeline) bucket.finalize();
  for (int b = 2; b < kBuckets; ++b) {  // skip warmup buckets
    if (timeline[b].empty()) continue;
    std::printf("%.1f-%.1fs  %10.3f %10.3f %10zu%s\n", b / 10.0,
                (b + 1) / 10.0, timeline[b].mean(),
                timeline[b].percentile(0.99), timeline[b].count(),
                b == 15 ? "   <- RSP transition" : "");
  }

  // Summarize: steady state = buckets 10-14, transient = 15-17.
  sim::LatencyRecorder steady, transient;
  for (int b = 10; b < 15; ++b) steady.merge(timeline[b]);
  for (int b = 15; b < 18; ++b) transient.merge(timeline[b]);
  steady.finalize();
  transient.finalize();
  std::printf(
      "\nsteady p99 %.3f ms | transient p99 %.3f ms | penalty %.2fx "
      "(plan: %d RSNodes, %s)\n",
      steady.percentile(0.99), transient.percentile(0.99),
      transient.percentile(0.99) / steady.percentile(0.99),
      controller.active_rsnodes(), controller.current_plan().method.c_str());
  return 0;
}
