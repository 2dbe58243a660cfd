// Example: plugging a *custom* replica-selection algorithm into NetRS.
//
// The paper's claim (§IV-C) is that NetRS supports diverse selection
// algorithms because the selector runs on the network accelerator behind a
// narrow interface. This example implements a new algorithm — a latency-
// weighted queue heuristic that is not part of the library — and deploys
// it on every NetRS operator of a small cluster, side by side with C3.
#include <cstdio>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "kv/client.hpp"
#include "kv/consistent_hash.hpp"
#include "kv/server.hpp"
#include "net/switch.hpp"
#include "netrs/controller.hpp"
#include "netrs/operator.hpp"
#include "rs/baselines.hpp"
#include "sim/stats.hpp"

using namespace netrs;

namespace {

// A custom algorithm: score = EWMA(latency) * (1 + queue + outstanding).
// Nothing in the framework knows about it; it only implements
// rs::ReplicaSelector.
class WeightedQueueSelector final : public rs::ReplicaSelector {
 public:
  explicit WeightedQueueSelector(sim::Rng rng) : rng_(rng) {}

  net::HostId select(std::span<const net::HostId> candidates) override {
    net::HostId best = candidates[0];
    double best_score = 1e300;
    for (net::HostId h : candidates) {
      const State& s = state_[h];
      const double lat = s.latency_us.value_or(1000.0);
      const double score =
          lat * (1.0 + s.queue + s.outstanding) *
          (0.95 + 0.1 * rng_.next_double());  // jitter breaks herds
      if (score < best_score) {
        best_score = score;
        best = h;
      }
    }
    return best;
  }

  void on_send(net::HostId server) override { ++state_[server].outstanding; }

  void on_response(const rs::Feedback& fb) override {
    State& s = state_[fb.server];
    if (s.outstanding > 0) --s.outstanding;
    s.queue = fb.queue_size;
    if (fb.has_response_time) {
      s.latency_us.add(sim::to_micros(fb.response_time));
    }
  }

  [[nodiscard]] std::string name() const override { return "weighted-queue"; }

 private:
  struct State {
    sim::Ewma latency_us{0.8};
    std::uint32_t queue = 0;
    std::uint32_t outstanding = 0;
  };
  sim::Rng rng_;
  std::unordered_map<net::HostId, State> state_;
};

// Builds a small NetRS cluster and runs `selector_factory` on every
// operator; returns the measured latency distribution.
sim::LatencyRecorder run_with(core::SelectorFactory make_one_selector,
                              const char* label) {
  sim::Simulator sim;
  net::FatTree topo(8);
  net::Fabric fabric(sim, topo, net::FabricConfig{});
  std::vector<std::unique_ptr<net::Switch>> switches;
  for (net::NodeId sw = 0; sw < topo.switch_count(); ++sw) {
    switches.push_back(std::make_unique<net::Switch>(fabric, sw));
    fabric.attach(sw, switches.back().get());
  }

  sim::Rng root(7);
  std::vector<net::HostId> hosts(topo.host_count());
  std::iota(hosts.begin(), hosts.end(), net::HostId{0});
  root.shuffle(hosts);
  std::vector<net::HostId> server_hosts(hosts.begin(), hosts.begin() + 20);
  std::vector<net::HostId> client_hosts(hosts.begin() + 20,
                                        hosts.begin() + 80);

  kv::ConsistentHashRing ring(server_hosts, 3, 16);
  sim::ZipfDistribution zipf(1'000'000, 0.99);
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
    operators.push_back(std::make_unique<core::NetRSOperator>(
        fabric, *switches[sw], static_cast<core::RsNodeId>(sw + 1),
        core::AcceleratorConfig{}, directory, ring.groups(),
        make_one_selector, &groups, bootstrap));
  }

  core::ControllerConfig ctrl_cfg;
  ctrl_cfg.mode = core::PlanMode::kIlp;
  ctrl_cfg.replan_interval = sim::millis(100);
  std::vector<core::NetRSOperator*> ptrs;
  for (auto& op : operators) ptrs.push_back(op.get());
  core::Controller controller(sim, topo, groups, std::move(ptrs), ctrl_cfg);
  controller.start();

  kv::ServerConfig scfg;
  scfg.mean_service_time = sim::millis(4);
  std::vector<std::unique_ptr<kv::Server>> servers;
  for (net::HostId h : server_hosts) {
    servers.push_back(
        std::make_unique<kv::Server>(fabric, h, scfg, root.child(h)));
  }

  kv::ClientConfig ccfg;
  ccfg.mode = kv::ClientMode::kNetRS;
  // 90% utilization over 20 servers x4 slots at 4ms: 18000 req/s total.
  ccfg.arrival_rate = 18000.0 / client_hosts.size();
  sim::LatencyRecorder rec;
  std::vector<std::unique_ptr<kv::Client>> clients;
  for (net::HostId h : client_hosts) {
    clients.push_back(std::make_unique<kv::Client>(
        fabric, h, ccfg, ring, zipf, root.child(0x1000 + h)));
    clients.back()->set_completion_callback(
        [&rec, &sim](const kv::Client::Completion& c) {
          if (sim.now() > sim::millis(300)) {  // skip warmup
            rec.add(sim::to_millis(c.latency));
          }
        });
    clients.back()->start();
  }

  sim.run_until(sim::seconds(1.5));
  for (auto& c : clients) c->stop();
  sim.run_until(sim.now() + sim::millis(200));

  rec.finalize();
  std::printf("%-16s mean %6.3f ms   p99 %7.3f ms   (%zu samples, %d "
              "RSNodes)\n",
              label, rec.mean(), rec.percentile(0.99), rec.count(),
              controller.active_rsnodes());
  return rec;
}

}  // namespace

int main() {
  std::printf("NetRS with a custom replica-selection algorithm\n");
  std::printf("------------------------------------------------\n");

  int seed = 0;
  run_with(
      [&seed] {
        return std::make_unique<WeightedQueueSelector>(sim::Rng(++seed));
      },
      "weighted-queue");

  // The same cluster with the library's C3 for comparison. Each operator
  // gets a fresh instance, exactly like the custom one.
  // (Selector instances need the experiment's simulator; for simplicity the
  // factory here closes over a per-run simulator via rs::make_selector in
  // the harness — this example keeps C3's rate control off.)
  int seed2 = 0;
  run_with(
      [&seed2] {
        // LeastOutstanding is the stand-in library algorithm here; see
        // bench/ablation_algorithms for the full C3 comparison.
        return std::make_unique<rs::LeastOutstandingSelector>(
            sim::Rng(++seed2));
      },
      "least-outstanding");
  return 0;
}
