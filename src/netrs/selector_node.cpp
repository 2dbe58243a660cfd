#include "netrs/selector_node.hpp"

#include <cassert>
#include <utility>

#include "obs/observer.hpp"

namespace netrs::core {

SelectorNode::SelectorNode(sim::Simulator& sim, const ReplicaDatabase& db,
                           std::unique_ptr<rs::ReplicaSelector> selector)
    : sim_(sim),
      db_(db),
      selector_(std::move(selector)),
      pending_(kInitialPendingSlots) {
  assert(selector_ != nullptr);
}

void SelectorNode::reset_selector(
    std::unique_ptr<rs::ReplicaSelector> selector) {
  assert(selector != nullptr);
  selector_ = std::move(selector);
  selector_->set_decision_hook(hook_);
  clear_pending();
}

void SelectorNode::fail() {
  // netrs-lint: allow(unordered-iteration): pending_ here is the
  // std::vector<PendingSlot> table; the name collides with kv::Client's
  // unordered map in the linter's cross-TU symbol table.
  for (const PendingSlot& slot : pending_) {
    if (slot.valid) ++pending_dropped_;
  }
  clear_pending();
}

void SelectorNode::clear_pending() {
  // A fresh vector, not assign(): a table grown under faults gives its
  // memory back.
  pending_ = std::vector<PendingSlot>(kInitialPendingSlots);
}

void SelectorNode::grow_pending() {
  assert(pending_.size() < kMaxPendingSlots);
  std::vector<PendingSlot> next(pending_.size() * 2);
  const std::size_t mask = next.size() - 1;
  // netrs-lint: allow(unordered-iteration): as in fail().
  for (const PendingSlot& slot : pending_) {
    // Valid slots have distinct rv & (mask / 2), hence distinct rv & mask.
    if (slot.valid) next[slot.rv & mask] = slot;
  }
  pending_ = std::move(next);
}

std::optional<net::Packet> SelectorNode::process(net::Packet pkt) {
  const auto mf = peek_magic(pkt.payload);
  if (!mf.has_value()) return pkt;  // not ours: bounce back unchanged
  switch (classify(*mf)) {
    case PacketKind::kNetRSRequest:
      return handle_request(std::move(pkt));
    case PacketKind::kNetRSResponse:
      handle_response(pkt);
      return std::nullopt;  // clone absorbed
    default:
      return pkt;
  }
}

std::optional<net::Packet> SelectorNode::handle_request(net::Packet pkt) {
  const auto req = decode_request(pkt.payload);
  if (!req.has_value() || req->rgid >= db_.size() || db_[req->rgid].empty()) {
    // Unknown replica group: degrade — relabel so downstream devices treat
    // it as plain traffic heading to the client's backup replica.
    set_magic(pkt.payload, magic_f(kMagicMonitor));
    return pkt;
  }

  const auto& candidates = db_[req->rgid];
  const net::HostId server = selector_->select(candidates);
  selector_->on_send(server);
  ++requests_selected_;

  const std::uint16_t rv = next_rv_++;
  // Grow rather than evict a live entry with another tag; at
  // kMaxPendingSlots the index is the whole tag and this never loops.
  while (slot_for(rv).valid && slot_for(rv).rv != rv) grow_pending();
  slot_for(rv) = PendingSlot{sim_.now(), server, rv, true};
  if (obs::Observer* o = sim_.observer()) {
    o->instant("rs.select", "rs", trace_tid_, sim_.now(),
               pkt.meta.request_id, "server",
               static_cast<std::uint64_t>(server), "rv", rv);
  }

  pkt.dst = server;
  set_rv(pkt.payload, rv);
  // f(Mresp): distinct from Mreq and Mresp, and the server's f^-1 turns it
  // into Mresp on the way back (§IV-C).
  set_magic(pkt.payload, magic_f(kMagicResponse));
  return pkt;
}

void SelectorNode::handle_response(const net::Packet& pkt) {
  const auto resp = decode_response(pkt.payload);
  if (!resp.has_value()) return;
  ++responses_absorbed_;

  rs::Feedback fb;
  fb.server = pkt.src;
  fb.queue_size = resp->status.queue_size;
  fb.service_time = static_cast<sim::Duration>(resp->status.service_time_ns);

  PendingSlot& slot = slot_for(resp->rv);
  if (slot.valid && slot.rv == resp->rv && slot.server == pkt.src) {
    fb.response_time = sim_.now() - slot.sent_at;
    slot.valid = false;
  } else {
    fb.has_response_time = false;
    ++rv_mismatches_;
  }
  selector_->on_response(fb);
}

}  // namespace netrs::core
