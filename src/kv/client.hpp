// Key-value client / workload generator (paper §V-A).
//
// Open-loop Poisson arrivals; keys drawn from a Zipf(0.99) distribution
// over the keyspace. Two operating modes:
//
//   kClientSelect (CliRS)  — the client is the RSNode: it runs a local
//     ReplicaSelector (C3 by default) fed by piggybacked server status, and
//     optionally issues one redundant request per primary after it has been
//     outstanding longer than the client's streaming 95th-percentile
//     latency estimate (the CliRS-R95 scheme).
//
//   kNetRS — replica selection happens in the network: the client emits a
//     NetRS request (MF = Mreq, RID unset, RGID of the key's replica group)
//     whose destination is a *backup* replica (the Degraded Replica
//     Selection target required by §III-C); the ToR assigns the RSNode.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>

#include "kv/app_message.hpp"
#include "kv/consistent_hash.hpp"
#include "net/host.hpp"
#include "rs/factory.hpp"
#include "sim/affinity.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace netrs::kv {

/// Who performs replica selection (see the file comment).
enum class ClientMode {
  kClientSelect,  ///< Client-side selection (CliRS / CliRS-R95).
  kNetRS,         ///< In-network selection at an RSNode.
};

/// CliRS-R95 duplicate-request policy knobs.
struct NETRS_SHARED_IMMUTABLE RedundancyConfig {
  bool enabled = false;  ///< CliRS-R95 when true (kClientSelect mode only)
  double quantile = 0.95;
  /// Minimum completed requests before duplicates may fire (estimator
  /// warmup; duplicating on a cold estimate would flood the cluster).
  std::uint64_t min_samples = 30;
  /// Cross-server cancellation ("The Tail at Scale"): when the first
  /// response arrives, send cancels for the still-outstanding copies so
  /// servers can drop them from their queues.
  bool cancel_on_completion = false;
};

/// Per-client workload and selection parameters.
struct NETRS_SHARED_IMMUTABLE ClientConfig {
  ClientMode mode = ClientMode::kClientSelect;  ///< Selection scheme.
  double arrival_rate = 100.0;  ///< requests per second (open loop)
  RedundancyConfig redundancy;
  rs::SelectorConfig selector;  ///< local algorithm for kClientSelect
};

/// Key-value client: open-loop workload generator and latency observer
/// (see the file comment for the two operating modes).
class NETRS_SHARD_LOCAL Client final : public net::Host {
 public:
  /// Everything recorded about one finished request.
  struct Completion {
    sim::Duration latency = 0;  ///< First-response latency.
    std::uint64_t key = 0;      ///< Key that was read.
    net::HostId server = net::kInvalidHost;  ///< first responder
    bool redundant_used = false;             ///< a duplicate had been sent
    /// Switch forwarding operations over the whole request+response path
    /// (the paper's hop metric; extra hops to RSNodes show up here).
    std::uint32_t forwards = 0;
    /// Completion time on the client's own shard clock (under sharding the
    /// harness must not read another simulator's now() for warmup cuts).
    sim::Time completed_at = 0;
  };
  /// Invoked once per completed request (first response).
  using CompletionCallback = std::function<void(const Completion&)>;

  /// `zipf` and `ring` are shared, immutable workload state owned by the
  /// harness; they must outlive the client.
  Client(net::Fabric& fabric, net::HostId id, ClientConfig cfg,
         const ConsistentHashRing& ring, const sim::ZipfDistribution& zipf,
         sim::Rng rng);

  /// Begins the open-loop arrival process.
  void start();
  /// Stops generating new requests (in-flight ones still complete).
  void stop() { running_ = false; }

  /// Registers the per-completion observer (the harness's latency sink).
  void set_completion_callback(CompletionCallback cb) {
    on_complete_ = std::move(cb);
  }

  /// Installs the decision-audit hook on the local selector (no-op in
  /// kNetRS mode, where selection happens at an RSNode instead).
  void set_decision_hook(rs::DecisionHook hook) {
    if (selector_) selector_->set_decision_hook(std::move(hook));
  }

  /// Handles a delivered response packet.
  void receive(net::Packet pkt, net::NodeId from) override;

  /// Primary requests issued so far.
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  /// Requests completed (first response received).
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  /// Redundant (R95 duplicate) copies sent.
  [[nodiscard]] std::uint64_t redundant_sent() const { return redundant_; }
  /// Cross-server cancel messages sent.
  [[nodiscard]] std::uint64_t cancels_sent() const { return cancels_; }
  /// Requests currently outstanding.
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }
  /// Streaming p95 latency estimate in microseconds (R95 trigger; tests).
  [[nodiscard]] double p95_estimate_us() const { return p95_.estimate(); }

 private:
  /// Copies of one request on the wire: the primary plus at most one
  /// CliRS-R95 duplicate (`Pending::redundant_sent` gates the second).
  static constexpr std::size_t kMaxCopies = 2;

  /// One copy of a request: the server it went to and when.
  struct Copy {
    net::HostId server = net::kInvalidHost;
    sim::Time sent_at = 0;
  };

  /// An outstanding request. Its copies and responders live inline, so
  /// the map node is the request's only heap allocation.
  struct Pending {
    std::uint64_t key = 0;
    sim::Time first_send = 0;
    std::array<Copy, kMaxCopies> copy{};
    std::array<net::HostId, kMaxCopies> responder{};
    std::uint8_t copies = 0;     ///< Entries of `copy` in use.
    std::uint8_t responses = 0;  ///< Entries of `responder` in use.
    bool completed = false;
    bool redundant_sent = false;

    /// The copies sent so far, in send order.
    [[nodiscard]] std::span<const Copy> sends() const {
      return std::span(copy).first(copies);
    }
    /// The servers that have answered so far, in arrival order.
    [[nodiscard]] std::span<const net::HostId> responders() const {
      return std::span(responder).first(responses);
    }
  };

  void schedule_next_arrival();
  // The next-arrival event: a typed entry bound to this client.
  static void on_arrival(void* client, std::uint32_t unused);
  void issue_request();
  void send_copy(std::uint64_t req_id, Pending& p, net::HostId target,
                 core::ReplicaGroupId rgid, bool redundant);
  void maybe_send_redundant(std::uint64_t req_id);
  void send_cancels(std::uint64_t req_id, const Pending& p);
  void handle_response(net::Packet& pkt);

  ClientConfig cfg_;
  const ConsistentHashRing& ring_;
  const sim::ZipfDistribution& zipf_;
  sim::Rng rng_;
  std::unique_ptr<rs::ReplicaSelector> selector_;  // kClientSelect only
  CompletionCallback on_complete_;

  std::unordered_map<std::uint64_t, Pending> pending_;
  sim::P2Quantile p95_;
  sim::HandlerId arrival_;  // on_arrival, bound on this host's simulator
  bool running_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t redundant_ = 0;
  std::uint64_t cancels_ = 0;
};

}  // namespace netrs::kv
