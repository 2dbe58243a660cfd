// NetRS selector (§IV-C): the application-layer logic running on a network
// accelerator.
//
// For a NetRS request it resolves the RGID against its local replica-group
// database, asks its ReplicaSelector for a target, rewrites the packet
// (destination := chosen server, RV := a fresh tag, MF := f(Mresp)) and
// hands it back to the switch. For a cloned NetRS response it updates the
// selector's local information — measuring the response time by matching
// the echoed RV against its pending table — and absorbs the clone.
//
// The pending table is sized to the requests in flight, not to the 16-bit
// RV space: a power-of-two table indexed by `rv & mask` whose slots carry
// their full RV tag. It starts at kInitialPendingSlots and doubles (up to
// 65536 slots, where `rv & mask == rv`) only when a send would overwrite a
// valid slot holding a different tag. No live entry is ever evicted by
// another tag, so every response gets exactly the verdict and response
// time the RV-indexed 65536-slot table would give it (DESIGN.md §4.7).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "netrs/packet_format.hpp"
#include "rs/selector.hpp"
#include "sim/affinity.hpp"
#include "sim/simulator.hpp"

namespace netrs::core {

/// RGID -> replica candidates. Shared, immutable; owned by the harness
/// (derived from the KV store's consistent-hash ring).
using ReplicaDatabase = std::vector<std::vector<net::HostId>>;

/// The NetRS selector logic behind an accelerator's handler (see the
/// file comment).
class NETRS_SHARD_LOCAL SelectorNode {
 public:
  /// `db` is shared immutable state owned by the harness; `selector` is
  /// this node's private algorithm instance.
  SelectorNode(sim::Simulator& sim, const ReplicaDatabase& db,
               std::unique_ptr<rs::ReplicaSelector> selector);

  /// Accelerator handler: processes one packet, optionally returning a
  /// rebuilt packet to send back to the co-located switch.
  std::optional<net::Packet> process(net::Packet pkt);

  /// Replaces the selection algorithm, dropping all local information —
  /// what happens when an RSP change activates this RSNode afresh (§II:
  /// "newly introduced RSNodes have to build the view from scratch").
  void reset_selector(std::unique_ptr<rs::ReplicaSelector> selector);

  /// Fault hook — reached only through sim::FaultInjector at global-sim
  /// barriers (fault-hook-discipline lint rule). The RSNode lost its
  /// state: every pending RV slot is invalidated (late responses for
  /// them count as rv_mismatches). On recovery the harness rebuilds the
  /// selection algorithm itself via reset_selector() (§II: a re-activated
  /// RSNode starts from scratch).
  void fail();
  /// Pending selections invalidated by fail() (diagnostic).
  [[nodiscard]] std::uint64_t pending_dropped() const {
    return pending_dropped_;
  }
  /// Slots in the pending-RV table (diagnostic): kInitialPendingSlots after
  /// construction, reset_selector() and fail(); grows by doubling with the
  /// requests in flight, never past kMaxPendingSlots.
  [[nodiscard]] std::size_t pending_capacity() const {
    return pending_.size();
  }

  /// Initial (and post-reset) pending-table capacity, in slots.
  static constexpr std::size_t kInitialPendingSlots = 64;
  /// Largest pending-table capacity: one slot per value of the 16-bit RV.
  static constexpr std::size_t kMaxPendingSlots = 65536;

  /// The current selection algorithm (diagnostic/report access).
  [[nodiscard]] const rs::ReplicaSelector& selector() const {
    return *selector_;
  }
  /// Requests rewritten toward a chosen replica.
  [[nodiscard]] std::uint64_t requests_selected() const {
    return requests_selected_;
  }
  /// Cloned responses absorbed into selector state.
  [[nodiscard]] std::uint64_t responses_absorbed() const {
    return responses_absorbed_;
  }
  /// Responses whose RV no longer matched a pending slot (reused tag).
  [[nodiscard]] std::uint64_t rv_mismatches() const { return rv_mismatches_; }

  /// Sets the trace thread id this selector records "rs.select" events
  /// under (its RSNode's switch id). Defaults to -1 (untagged).
  void set_trace_tid(std::int32_t tid) { trace_tid_ = tid; }

  /// The trace thread id (also labels this node's audited decisions).
  [[nodiscard]] std::int32_t trace_tid() const { return trace_tid_; }

  /// Installs the decision-audit hook on the current selector and keeps
  /// it across reset_selector() (an RSP change swaps the algorithm
  /// instance but the node keeps being audited).
  void set_decision_hook(rs::DecisionHook hook) {
    hook_ = std::move(hook);
    selector_->set_decision_hook(hook_);
  }

 private:
  struct PendingSlot {
    sim::Time sent_at = 0;
    net::HostId server = net::kInvalidHost;
    std::uint16_t rv = 0;  // full tag: the slot index keeps only rv & mask
    bool valid = false;
  };
  static_assert(sizeof(PendingSlot) == 16);

  std::optional<net::Packet> handle_request(net::Packet pkt);
  void handle_response(const net::Packet& pkt);
  /// The slot `rv` maps to (it holds `rv` only if its tag says so).
  PendingSlot& slot_for(std::uint16_t rv) {
    return pending_[rv & (pending_.size() - 1)];
  }
  /// Doubles the pending table, re-placing its valid slots.
  void grow_pending();
  /// Empties the pending table back to kInitialPendingSlots.
  void clear_pending();

  sim::Simulator& sim_;
  const ReplicaDatabase& db_;
  std::unique_ptr<rs::ReplicaSelector> selector_;
  rs::DecisionHook hook_;  // reapplied on reset_selector()
  // Pending table indexed by rv & (size - 1); size is a power of two.
  std::vector<PendingSlot> pending_;
  std::uint16_t next_rv_ = 1;
  std::uint64_t requests_selected_ = 0;
  std::uint64_t responses_absorbed_ = 0;
  std::uint64_t rv_mismatches_ = 0;
  std::uint64_t pending_dropped_ = 0;
  std::int32_t trace_tid_ = -1;
};

}  // namespace netrs::core
