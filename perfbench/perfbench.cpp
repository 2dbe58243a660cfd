// Repository benchmark binary (README.md in this directory).
//
// One binary, three subcommands; each prints one JSON object on stdout:
//
//   run    one harness::run_experiment() call of a named workload: host
//          wall time, process CPU and peak RSS, plus the simulated
//          statistics that run.py's correctness checks compare;
//   setup  the same cell at the smallest request count, so the time to
//          build a deployment can be read off by itself;
//   probe  per-call host cost of each layer's public hot function, on
//          inputs shaped like the workload (traced runs only).
//
// run.py starts one process per call, so CPU time and peak RSS belong to
// exactly one experiment. The simulator is driven through public entry
// points only; nothing here changes what it simulates.
//
// Every call into a layer is wrapped in a span (name, start, end, parent)
// kept in memory and printed with the result; run.py merges the spans of a
// workload run into one Chrome trace-event file.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#ifdef PERFBENCH_COUNT_ALLOCS
#include "alloc_shim.hpp"
#endif
#include "harness/experiment.hpp"
#include "kv/app_message.hpp"
#include "kv/consistent_hash.hpp"
#include "net/fabric.hpp"
#include "net/fat_tree.hpp"
#include "netrs/packet_format.hpp"
#include "netrs/placement.hpp"
#include "netrs/selector_node.hpp"
#include "rs/factory.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace netrs;
using Clock = std::chrono::steady_clock;

// --- Workloads ---------------------------------------------------------------

/// One named benchmark cell. `requests` is per repeat.
struct Workload {
  const char* name;
  harness::Scheme scheme;
  int k;
  int servers;
  int clients;
  double utilization;
  std::uint64_t requests;
  int repeats;
};

// The heaviest point of the pinned fig6 cell (bench/macro), with NetRS and
// with client-side selection. Two deployments per experiment give >= 200k
// measured samples after the 15% warmup.
constexpr Workload kWorkloads[] = {
    {"ilp-k8", harness::Scheme::kNetRSIlp, 8, 32, 64, 0.9, 120'000, 2},
    {"clirs-k8", harness::Scheme::kCliRS, 8, 32, 64, 0.9, 120'000, 2},
};

/// Requests per repeat of the setup cell: the smallest run that still
/// builds the whole deployment.
constexpr std::uint64_t kSetupRequests = 2;

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

/// How one experiment runs its workload's cell. The workload itself is
/// serial with obs off; traced runs add the sharded and obs-on variants
/// to measure those layers.
struct Variant {
  std::uint64_t requests = 0;  ///< per repeat; 0 = the workload's
  int shards = 1;
  bool obs = false;         ///< all four obs outputs written to `out_dir`
  bool instrument = false;  ///< shard telemetry + attribution + decisions
  std::string out_dir = ".";
};

/// The workload's experiment config, built from scratch (not
/// default_config()) so NETRS_* environment overrides cannot change it.
harness::ExperimentConfig make_config(const Workload& w, std::uint64_t seed,
                                      const Variant& v) {
  harness::ExperimentConfig cfg;
  cfg.fat_tree_k = w.k;
  cfg.num_servers = w.servers;
  cfg.num_clients = w.clients;
  cfg.utilization = w.utilization;
  cfg.total_requests = v.requests ? v.requests : w.requests;
  cfg.repeats = w.repeats;
  cfg.seed = seed;
  cfg.jobs = 1;
  cfg.shards = v.shards;
  if (v.obs) {
    cfg.obs.trace_path = v.out_dir + "/trace.json";
    cfg.obs.metrics_path = v.out_dir + "/metrics.csv";
    cfg.obs.attribution_path = v.out_dir + "/attribution.csv";
    cfg.obs.decision_path = v.out_dir + "/decisions.csv";
  }
  if (v.instrument) {
    cfg.shard_telemetry_path = v.out_dir + "/shard_telemetry.csv";
    cfg.obs.record_attribution = true;
    cfg.obs.record_decisions = true;
  }
  return cfg;
}

// --- Host accounting ---------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double micros_of(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t.time_since_epoch())
      .count();
}

/// User + system CPU seconds of this process (all threads).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set of this process image, MB. VmHWM, not ru_maxrss:
/// the latter survives exec and so reports the launching process's peak
/// when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 20, '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Current resident set of this process, MB (/proc/self/statm).
double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::optional<std::uint64_t> allocations() {
#ifdef PERFBENCH_COUNT_ALLOCS
  return benchshim::alloc_count();
#else
  return std::nullopt;
#endif
}

// --- Spans -------------------------------------------------------------------

/// In-memory span recorder: one span per call into a layer, nested by
/// scope. Printed once, with the result.
class Spans {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name) {
    spans_.push_back({std::move(name), micros_of(Clock::now()), 0.0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  /// Closes span `id` (the innermost open one).
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = micros_of(Clock::now());
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  /// JSON array of {name, start_us, end_us, parent}; parent -1 is the
  /// process's caller.
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << '[';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? "," : "") << "{\"name\":\"" << s.name
         << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
         << ",\"parent\":" << s.parent << '}';
    }
    os << ']';
    return os.str();
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
  };
  std::vector<Span> spans_;
  int open_ = -1;
};

Spans g_spans;

/// Runs `fn` inside a span named `name`.
template <class F>
auto in_span(const std::string& name, F&& fn) {
  const int id = g_spans.open(name);
  struct Closer {
    int id;
    ~Closer() { g_spans.close(id); }
  } closer{id};
  return fn();
}

// --- JSON output -------------------------------------------------------------

/// A JSON number with all 17 significant digits (0 for NaN/inf).
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Flat JSON object writer; numbers keep all 17 significant digits.
class Json {
 public:
  Json& num(const char* key, double v) {
    key_(key);
    os_ << number(v);
    return *this;
  }
  Json& integer(const char* key, std::uint64_t v) {
    key_(key);
    os_ << v;
    return *this;
  }
  Json& boolean(const char* key, bool v) {
    key_(key);
    os_ << (v ? "true" : "false");
    return *this;
  }
  Json& str(const char* key, std::string_view v) {
    key_(key);
    os_ << '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') os_ << '\\';
      if (static_cast<unsigned char>(c) >= 0x20) os_ << c;
    }
    os_ << '"';
    return *this;
  }
  /// Inserts already-serialized JSON under `key`.
  Json& raw(const char* key, const std::string& json) {
    key_(key);
    os_ << json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return os_.str() + "}"; }

 private:
  void key_(const char* key) {
    os_ << (first_ ? "{" : ",") << '"' << key << "\":";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

std::string u64_array(const std::vector<std::uint64_t>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(v[i]);
  }
  return s + "]";
}

/// Build and host facts recorded with every result, so records from
/// different hosts or builds are never compared.
std::string build_json() {
  return Json()
      .integer("nproc", std::thread::hardware_concurrency())
      .str("compiler", "g++ " __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("counts_allocs", allocations().has_value())
      .done();
}

// --- Subcommand: run ---------------------------------------------------------

double mean_or_zero(const sim::LatencyRecorder& r) {
  return r.empty() ? 0.0 : r.mean();
}

std::string attribution_json(const obs::AttributionSummary& a) {
  Json j;
  j.boolean("enabled", a.enabled).integer("requests", a.requests)
      .integer("via_rs", a.via_rs);
  for (std::size_t c = 0; c < obs::kFlightComponents; ++c) {
    j.num(obs::kFlightComponentNames[c], mean_or_zero(a.components_ms[c]));
  }
  return j.done();
}

std::string telemetry_json(const harness::ExperimentResult& res) {
  std::uint64_t windows = 0;
  std::uint64_t events = 0;
  std::uint64_t exec_ns = 0;
  std::uint64_t stall_ns = 0;
  for (const sim::ShardTelemetry& t : res.shard_telemetry) {
    for (const sim::ShardTelemetry::Lane& lane : t.lanes) {
      windows += lane.windows;
      events += lane.events;
      exec_ns += lane.exec_ns;
      stall_ns += lane.stall_ns;
    }
  }
  return Json()
      .integer("windows", windows)
      .integer("events", events)
      .integer("exec_ns", exec_ns)
      .integer("stall_ns", stall_ns)
      .done();
}

void cmd_run(const Workload& w, std::uint64_t seed, const Variant& v,
             Json& j) {
  const harness::ExperimentConfig cfg = make_config(w, seed, v);
  const std::optional<std::uint64_t> allocs_before = allocations();
  const double cpu_before = cpu_seconds();
  const auto t0 = Clock::now();
  const harness::ExperimentResult res = in_span("harness.run_experiment", [&] {
    return harness::run_experiment(w.scheme, cfg);
  });
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu_before;
  const std::optional<std::uint64_t> allocs_after = allocations();

  const net::FatTree topo(w.k);
  j.str("workload", w.name)
      .integer("seed", seed)
      .integer("repeats", static_cast<std::uint64_t>(cfg.repeats))
      .integer("shards", static_cast<std::uint64_t>(cfg.shards))
      .boolean("netrs", harness::is_netrs(w.scheme))
      .boolean("ilp", w.scheme == harness::Scheme::kNetRSIlp)
      .integer("switches", topo.switch_count())
      .num("wall_s", wall)
      .num("cpu_s", cpu)
      .num("peak_rss_mb", peak_rss_mb())
      .integer("issued", res.issued)
      .integer("completed", res.completed)
      .integer("samples", res.latencies_ms.count())
      .integer("events", res.events_fired)
      .raw("events_per_shard", u64_array(res.events_per_shard))
      .num("hops_per_req", res.avg_forwards)
      .num("p50_ms", res.percentile_ms(0.50))
      .num("p99_ms", res.percentile_ms(0.99))
      .num("herd_cv", res.load_oscillation)
      .integer("rsnodes", static_cast<std::uint64_t>(res.rsnodes))
      .integer("plans", static_cast<std::uint64_t>(res.plans_deployed))
      .str("plan_method", res.plan_method)
      .integer("trace_events", res.trace_events)
      .integer("trace_dropped", res.trace_dropped)
      .raw("attribution", attribution_json(res.attribution))
      .raw("decisions",
           Json()
               .integer("count", res.decisions.decisions)
               .num("staleness_ms", mean_or_zero(res.decisions.staleness_ms))
               .num("regret_ms", mean_or_zero(res.decisions.regret_ms))
               .done())
      .raw("telemetry", telemetry_json(res));
  if (allocs_before && allocs_after) {
    j.integer("allocs", *allocs_after - *allocs_before);
  }
  if (v.obs) {
    j.raw("obs_files", Json()
                           .str("trace", cfg.obs.trace_path)
                           .str("metrics", cfg.obs.metrics_path)
                           .str("attribution", cfg.obs.attribution_path)
                           .str("decisions", cfg.obs.decision_path)
                           .done());
  }
}

// --- Subcommand: setup -------------------------------------------------------

void cmd_setup(const Workload& w, std::uint64_t seed, Json& j) {
  // At this size a repeat may end before any client fires, so nothing is
  // checked: the point is building the deployment.
  Variant v;
  v.requests = kSetupRequests;
  const harness::ExperimentConfig cfg = make_config(w, seed, v);
  const auto t0 = Clock::now();
  in_span("harness.setup",
          [&] { return harness::run_experiment(w.scheme, cfg); });
  j.str("workload", w.name).num("setup_s", seconds_since(t0));
}

// --- Subcommand: probe -------------------------------------------------------

/// A probe's result: host cost per call and how many calls it timed.
struct Probe {
  double per_call = 0.0;  ///< in the probe's unit
  std::uint64_t calls = 0;
  bool ok = false;
};

/// Times repeated calls of `batch` for about `budget_s`, after one untimed
/// warm-up call. `batch` makes some calls to the probed function and
/// returns how many, or 0 when a result was wrong. The cost is the median
/// batch's time per call, in units of `unit_s` seconds (1e-9 for ns).
template <class F>
Probe time_calls(double budget_s, double unit_s, F&& batch) {
  Probe p;
  p.ok = batch() > 0;
  std::vector<double> per_call;
  const auto start = Clock::now();
  while (p.ok && (per_call.size() < 5 || seconds_since(start) < budget_s) &&
         per_call.size() < 1000) {
    const auto t0 = Clock::now();
    const std::uint64_t n = batch();
    const double dt = seconds_since(t0);
    p.ok = n > 0;
    if (!p.ok) break;
    per_call.push_back(dt / static_cast<double>(n) / unit_s);
    p.calls += n;
  }
  if (per_call.empty()) return p;
  std::nth_element(per_call.begin(), per_call.begin() + per_call.size() / 2,
                   per_call.end());
  p.per_call = per_call[per_call.size() / 2];
  return p;
}

/// Server hosts spread evenly over the tree (the workload places them at
/// random; the probes only need the same count and replica-group shape).
std::vector<net::HostId> probe_servers(const Workload& w,
                                       const net::FatTree& topo) {
  std::vector<net::HostId> out;
  for (int i = 0; i < w.servers; ++i) {
    out.push_back(static_cast<net::HostId>(
        static_cast<std::uint64_t>(i) * topo.host_count() /
        static_cast<std::uint64_t>(w.servers)));
  }
  return out;
}

/// Events the workload keeps queued, estimated from its shape: one
/// arrival timer per client and one service slot per server worker plus
/// its fluctuation timer.
std::size_t queue_depth(const Workload& w) {
  const harness::ExperimentConfig cfg;
  return static_cast<std::size_t>(w.clients) +
         static_cast<std::size_t>(w.servers) *
             static_cast<std::size_t>(cfg.server_parallelism + 1);
}

/// sim: Simulator::at + dispatch with `depth` events queued, each firing
/// event scheduling its successor a random delay ahead (hold model).
Probe probe_event(std::size_t depth, std::uint64_t seed, double budget) {
  sim::Simulator sim;
  sim::Rng rng(seed);
  std::uint64_t fired = 0;
  struct Hold {
    sim::Simulator* sim;
    sim::Rng* rng;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      sim->at(sim->now() + 1 + static_cast<sim::Time>(rng->uniform(1'000'000)),
              Hold{*this});
    }
  };
  for (std::size_t i = 0; i < depth; ++i) {
    sim.at(1 + static_cast<sim::Time>(rng.uniform(1'000'000)),
           Hold{&sim, &rng, &fired});
  }
  // The mean gap is 500 us, so each window fires ~20k events.
  const auto window = static_cast<sim::Duration>(
      std::uint64_t{20'000} * 500'000 / std::max<std::size_t>(depth, 1));
  return time_calls(budget, 1e-9, [&]() -> std::uint64_t {
    const std::uint64_t before = fired;
    const std::uint64_t ran = sim.run_until(sim.now() + window);
    const bool ok = ran == fired - before && sim.pending_events() == depth;
    return ok ? ran : 0;
  });
}

/// A node that bounces every packet back over the link it came from.
class Reflector final : public net::Node {
 public:
  Reflector(net::Fabric& fabric, net::NodeId self, std::uint64_t& received)
      : fabric_(fabric), self_(self), received_(received) {
    fabric.attach(self, this);
  }
  void receive(net::Packet pkt, net::NodeId from) override {
    ++received_;
    fabric_.send(self_, from, std::move(pkt));
  }

 private:
  net::Fabric& fabric_;
  net::NodeId self_;
  std::uint64_t& received_;
};

/// net: Fabric::send -> delivery on the workload's tree, one packet in
/// flight per client host, each bouncing over its host <-> ToR link.
Probe probe_hop(const Workload& w, double budget) {
  sim::Simulator sim;
  const net::FatTree topo(w.k);
  net::Fabric fabric(sim, topo, net::FabricConfig{});
  std::uint64_t received = 0;
  std::vector<std::unique_ptr<Reflector>> nodes;
  for (net::NodeId sw : topo.all_switches()) {
    if (topo.tier(sw) == net::Tier::kTor) {
      nodes.push_back(std::make_unique<Reflector>(fabric, sw, received));
    }
  }
  const auto flows = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(w.clients), topo.host_count());
  for (net::HostId h = 0; h < flows; ++h) {
    nodes.push_back(
        std::make_unique<Reflector>(fabric, topo.host_node(h), received));
  }
  for (net::HostId h = 0; h < flows; ++h) {
    core::RequestHeader hdr;
    hdr.rgid = h;
    kv::AppRequest app;
    app.key = h;
    net::Packet pkt;
    pkt.src = h;
    pkt.dst = h;
    pkt.src_port = kv::kClientPort;
    pkt.dst_port = kv::kServerPort;
    pkt.payload = core::encode_request(hdr, kv::encode_app_request(app));
    fabric.send(topo.host_node(h), topo.host_tor(h), std::move(pkt));
  }
  const sim::Duration link = fabric.config().host_link_latency;
  const std::uint64_t rounds = std::max<std::uint64_t>(1, 20'000 / flows);
  return time_calls(budget, 1e-9, [&]() -> std::uint64_t {
    const std::uint64_t before = received;
    for (std::uint64_t r = 0; r < rounds; ++r) sim.run_until(sim.now() + link);
    return received - before == rounds * flows ? rounds * flows : 0;
  });
}

rs::SelectorConfig c3_config() { return rs::SelectorConfig{}; }

/// netrs: SelectorNode construction (its 64K-slot pending ring included),
/// in batches of up to 32 live nodes; also the RSS each node adds.
Probe probe_rsnode_ctor(const core::ReplicaDatabase& db, std::size_t count,
                        std::uint64_t seed, double* mb_per_node) {
  sim::Simulator sim;
  const sim::Rng root(seed);
  std::vector<double> per_ctor_ms;
  *mb_per_node = 0.0;
  Probe p;
  p.ok = true;
  for (std::size_t built = 0; built < count;) {
    const std::size_t n = std::min<std::size_t>(32, count - built);
    std::vector<std::unique_ptr<core::SelectorNode>> nodes;
    nodes.reserve(n);
    const double rss0 = rss_mb();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<core::SelectorNode>(
          sim, db, rs::make_selector(c3_config(), sim, root.child(built + i))));
    }
    per_ctor_ms.push_back(seconds_since(t0) * 1e3 / static_cast<double>(n));
    if (built == 0) *mb_per_node = (rss_mb() - rss0) / static_cast<double>(n);
    for (const auto& node : nodes) {
      p.ok = p.ok && node->requests_selected() == 0;
    }
    built += n;
    p.calls += n;
  }
  std::sort(per_ctor_ms.begin(), per_ctor_ms.end());
  p.per_call = per_ctor_ms[per_ctor_ms.size() / 2];
  return p;
}

/// netrs: SelectorNode::reset_selector (fresh algorithm + cleared ring),
/// what every newly activated RSNode costs on a plan change.
Probe probe_reset(const core::ReplicaDatabase& db, std::uint64_t seed,
                  double budget) {
  sim::Simulator sim;
  const sim::Rng root(seed);
  core::SelectorNode node(sim, db, rs::make_selector(c3_config(), sim, root));
  std::uint64_t incarnation = 0;
  return time_calls(budget, 1e-6, [&]() -> std::uint64_t {
    constexpr std::uint64_t kCalls = 16;
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      node.reset_selector(
          rs::make_selector(c3_config(), sim, root.child(++incarnation)));
    }
    return node.requests_selected() == 0 ? kCalls : 0;
  });
}

/// netrs: SelectorNode::process on a NetRS request (must come back steered
/// to one of its group's replicas) plus the cloned response it absorbs.
Probe probe_process(const core::ReplicaDatabase& db, std::uint64_t seed,
                    double budget) {
  sim::Simulator sim;
  sim::Rng rng(seed);
  core::SelectorNode node(sim, db,
                          rs::make_selector(c3_config(), sim, rng.child(1)));
  std::uint64_t pairs = 0;
  return time_calls(budget, 1e-9, [&]() -> std::uint64_t {
    constexpr std::uint64_t kPairs = 4096;
    bool ok = true;
    for (std::uint64_t i = 0; i < kPairs; ++i) {
      core::RequestHeader hdr;
      hdr.rid = 1;
      hdr.rgid = static_cast<core::ReplicaGroupId>(rng.uniform(db.size()));
      kv::AppRequest app;
      app.client_request_id = ++pairs;
      app.key = pairs;
      net::Packet req;
      req.src = 0;
      req.dst = db[hdr.rgid].front();
      req.src_port = kv::kClientPort;
      req.dst_port = kv::kServerPort;
      req.payload = core::encode_request(hdr, kv::encode_app_request(app));
      std::optional<net::Packet> steered = node.process(std::move(req));
      const auto& group = db[hdr.rgid];
      ok = ok && steered.has_value() &&
           core::peek_magic(steered->payload) ==
               core::magic_f(core::kMagicResponse) &&
           std::find(group.begin(), group.end(), steered->dst) != group.end();
      if (!steered) continue;

      core::ResponseHeader rh;
      rh.rid = 1;
      rh.rv = core::peek_rv(steered->payload);
      rh.status.queue_size = static_cast<std::uint32_t>(rng.uniform(8));
      rh.status.service_time_ns = 4'000'000;
      kv::AppResponse resp;
      resp.client_request_id = app.client_request_id;
      resp.key = app.key;
      net::Packet clone;
      clone.src = steered->dst;
      clone.dst = 0;
      clone.payload =
          core::encode_response(rh, kv::encode_app_response(resp));
      ok = ok && !node.process(std::move(clone)).has_value();
    }
    ok = ok && node.rv_mismatches() == 0 &&
         node.responses_absorbed() == node.requests_selected();
    return ok ? kPairs : 0;
  });
}

/// ilp: the RSP solve on the workload's rack groups and switch operators,
/// with the controller's capacity and extra-hop budget; every plan must
/// pass validate_placement.
Probe probe_solve(const Workload& w, const net::FatTree& topo,
                  std::uint64_t seed, double budget) {
  const harness::ExperimentConfig cfg = make_config(w, seed, Variant{});
  const double aggregate = cfg.aggregate_rate();
  sim::Rng rng(seed);
  core::PlacementProblem problem;
  for (int r = 0; r < topo.racks(); ++r) {
    core::GroupDemand g;
    g.id = static_cast<core::GroupId>(r);
    g.pod = r / topo.tors_per_pod();
    g.rack = r % topo.tors_per_pod();
    const double load =
        aggregate / topo.racks() * (0.8 + 0.4 * rng.next_double());
    g.tier_traffic[0] = load * 0.94;
    g.tier_traffic[1] = load * 0.05;
    g.tier_traffic[2] = load * 0.01;
    problem.groups.push_back(g);
  }
  const double per_request_s =
      sim::to_seconds(cfg.accelerator.request_service_time +
                      cfg.accelerator.response_service_time);
  core::RsNodeId id = 1;
  for (net::NodeId sw : topo.all_switches()) {
    core::OperatorSpec op;
    op.id = id++;
    op.sw = sw;
    const net::SwitchCoord c = topo.coord(sw);
    op.tier = c.tier;
    op.pod = c.pod;
    op.rack = c.idx;
    op.t_max = cfg.utilization_cap * cfg.accelerator.cores / per_request_s;
    problem.operators.push_back(op);
  }
  problem.extra_hop_budget = cfg.extra_hop_fraction * aggregate;
  return time_calls(budget, 1e-3, [&]() -> std::uint64_t {
    const core::PlacementResult plan =
        core::solve_placement(problem, cfg.placement);
    const bool ok =
        !plan.assignment.empty() && core::validate_placement(problem, plan);
    return ok ? 1 : 0;
  });
}

/// rs: one C3 select + on_send + on_response over RF=3 replica groups of
/// the workload's servers.
Probe probe_select(const core::ReplicaDatabase& db, std::uint64_t seed,
                   double budget) {
  sim::Simulator sim;
  sim::Rng rng(seed);
  const std::unique_ptr<rs::ReplicaSelector> c3 =
      rs::make_selector(c3_config(), sim, rng.child(2));
  std::size_t g = 0;
  return time_calls(budget, 1e-9, [&]() -> std::uint64_t {
    constexpr std::uint64_t kCalls = 8192;
    bool ok = true;
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      const auto& group = db[g];
      g = (g + 1) % db.size();
      const net::HostId h = c3->select(group);
      c3->on_send(h);
      rs::Feedback fb;
      fb.server = h;
      fb.response_time = sim::millis(4);
      fb.queue_size = static_cast<std::uint32_t>(rng.uniform(8));
      fb.service_time = sim::millis(4);
      c3->on_response(fb);
      ok = ok && std::find(group.begin(), group.end(), h) != group.end();
    }
    return ok ? kCalls : 0;
  });
}

/// kv: ConsistentHashRing::group_of_key on uniform keys.
Probe probe_ring(const kv::ConsistentHashRing& ring, std::uint64_t seed,
                 double budget) {
  sim::Rng rng(seed);
  return time_calls(budget, 1e-9, [&]() -> std::uint64_t {
    constexpr std::uint64_t kCalls = 16384;
    bool ok = true;
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      ok = ok && ring.group_of_key(rng.next_u64()) < ring.group_count();
    }
    return ok ? kCalls : 0;
  });
}

/// One probe's JSON; the constructor probe adds the RSS per node.
std::string probe_json(const Probe& p, const char* unit,
                       std::optional<double> mb_per_node = std::nullopt) {
  Json j;
  j.num("per_call", p.per_call)
      .str("unit", unit)
      .integer("calls", p.calls)
      .boolean("ok", p.ok);
  if (mb_per_node) j.num("mb_per_node", *mb_per_node);
  return j.done();
}

void cmd_probe(const Workload& w, std::uint64_t seed, double budget,
               Json& j) {
  const net::FatTree topo(w.k);
  const std::vector<net::HostId> servers = probe_servers(w, topo);
  const kv::ConsistentHashRing ring(servers, 3, 16, seed);
  const core::ReplicaDatabase& db = ring.groups();

  Json probes;
  probes.raw("sim.event", probe_json(in_span("probe.sim.event", [&] {
               return probe_event(queue_depth(w), seed, budget);
             }), "ns"));
  probes.raw("net.hop", probe_json(in_span("probe.net.hop", [&] {
               return probe_hop(w, budget);
             }), "ns"));
  double mb_per_node = 0.0;
  const Probe ctor = in_span("probe.netrs.rsnode_ctor", [&] {
    return probe_rsnode_ctor(db, topo.switch_count(), seed, &mb_per_node);
  });
  probes.raw("netrs.rsnode_ctor", probe_json(ctor, "ms", mb_per_node));
  probes.raw("netrs.reset", probe_json(in_span("probe.netrs.reset", [&] {
               return probe_reset(db, seed, budget);
             }), "us"));
  probes.raw("netrs.process", probe_json(in_span("probe.netrs.process", [&] {
               return probe_process(db, seed, budget);
             }), "ns"));
  probes.raw("ilp.solve", probe_json(in_span("probe.ilp.solve", [&] {
               return probe_solve(w, topo, seed, budget);
             }), "ms"));
  probes.raw("rs.select", probe_json(in_span("probe.rs.select", [&] {
               return probe_select(db, seed, budget);
             }), "ns"));
  probes.raw("kv.ring_lookup", probe_json(in_span("probe.kv.ring_lookup", [&] {
               return probe_ring(ring, seed, budget);
             }), "ns"));
  j.str("workload", w.name).raw("probes", probes.done());
}

// --- main --------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run   --workload W --seed S [--requests N] "
               "[--shards N] [--obs 0|1] [--instrument 0|1] [--out DIR]\n"
               "       perfbench setup --workload W --seed S\n"
               "       perfbench probe --workload W --seed S [--budget X]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string workload;
  std::uint64_t seed = 1;
  Variant variant;
  double budget = 0.25;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--requests") {
      variant.requests = std::strtoull(value, nullptr, 10);
    } else if (flag == "--shards") {
      variant.shards = std::max(1, std::atoi(value));
    } else if (flag == "--obs") {
      variant.obs = std::string_view(value) == "1";
    } else if (flag == "--instrument") {
      variant.instrument = std::string_view(value) == "1";
    } else if (flag == "--out") {
      variant.out_dir = value;
    } else if (flag == "--budget") {
      budget = std::atof(value);
    } else {
      return usage();
    }
  }
  try {
    const Workload& w = find_workload(workload);
    Json out;
    const int root = g_spans.open("perfbench." + cmd);
    if (cmd == "run") {
      cmd_run(w, seed, variant, out);
    } else if (cmd == "setup") {
      cmd_setup(w, seed, out);
    } else if (cmd == "probe") {
      cmd_probe(w, seed, budget, out);
    } else {
      return usage();
    }
    g_spans.close(root);
    out.raw("build", build_json()).raw("spans", g_spans.json());
    std::printf("%s\n", out.done().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
