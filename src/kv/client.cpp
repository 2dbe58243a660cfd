#include "kv/client.hpp"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "netrs/packet_format.hpp"
#include "obs/observer.hpp"

namespace netrs::kv {

Client::Client(net::Fabric& fabric, net::HostId id, ClientConfig cfg,
               const ConsistentHashRing& ring,
               const sim::ZipfDistribution& zipf, sim::Rng rng)
    : net::Host(fabric, id),
      cfg_(cfg),
      ring_(ring),
      zipf_(zipf),
      rng_(rng),
      p95_(cfg.redundancy.quantile),
      arrival_(simulator().bind(&Client::on_arrival, this)) {
  if (cfg_.mode == ClientMode::kClientSelect) {
    selector_ =
        rs::make_selector(cfg_.selector, simulator(), rng_.child("selector"));
  }
}

void Client::start() {
  if (running_) return;
  running_ = true;
  schedule_next_arrival();
}

void Client::schedule_next_arrival() {
  if (!running_ || cfg_.arrival_rate <= 0.0) return;
  const double mean_gap_s = 1.0 / cfg_.arrival_rate;
  const auto gap =
      static_cast<sim::Duration>(rng_.exponential(mean_gap_s * 1e9));
  simulator().after(gap, arrival_, 0);
}

void Client::on_arrival(void* client, std::uint32_t /*unused*/) {
  auto* self = static_cast<Client*>(client);
  if (!self->running_) return;
  self->issue_request();
  self->schedule_next_arrival();
}

void Client::issue_request() {
  // Zipf rank used directly as the key: the ring hashes it anyway, so rank
  // popularity maps to uniformly scattered replica groups, as with real
  // hashed keys.
  const std::uint64_t key = zipf_(rng_);
  const core::ReplicaGroupId rgid = ring_.group_of_key(key);
  const auto candidates = ring_.replicas(rgid);

  const std::uint64_t req_id =
      (static_cast<std::uint64_t>(host_id()) << 32) | next_seq_++;
  Pending& p = pending_[req_id];
  p.key = key;
  p.first_send = simulator().now();
  ++issued_;

  net::HostId target;
  if (cfg_.mode == ClientMode::kClientSelect) {
    target = selector_->select(candidates);
    selector_->on_send(target);
  } else {
    // NetRS: the destination is only the DRS backup; the RSNode overwrites
    // it. A uniformly random backup spreads degraded load.
    target = candidates[rng_.uniform(candidates.size())];
  }
  send_copy(req_id, p, target, rgid, /*redundant=*/false);

  if (cfg_.mode == ClientMode::kClientSelect && cfg_.redundancy.enabled &&
      p95_.count() >= cfg_.redundancy.min_samples) {
    const auto wait = static_cast<sim::Duration>(p95_.estimate() * 1000.0);
    simulator().after(wait, [this, req_id] { maybe_send_redundant(req_id); });
  }
}

void Client::send_copy(std::uint64_t req_id, Pending& p, net::HostId target,
                       core::ReplicaGroupId rgid, bool redundant) {
  core::RequestHeader rh;
  rh.rid = core::kRidUnset;
  rh.mf = core::kMagicRequest;
  rh.rv = 0;
  rh.rgid = rgid;

  AppRequest ar;
  ar.client_request_id = req_id;
  ar.key = p.key;

  net::Packet pkt;
  pkt.dst = target;
  pkt.src_port = kClientPort;
  pkt.dst_port = kServerPort;
  pkt.payload = core::encode_request(rh, encode_app_request(ar));
  pkt.meta.request_id = req_id;
  pkt.meta.client_send_time = simulator().now();
  pkt.meta.redundant = redundant;

  assert(p.copies < kMaxCopies);
  p.copy[p.copies++] = Copy{target, simulator().now()};
  if (obs::Observer* o = simulator().observer()) {
    o->instant(redundant ? "cli.send.dup" : "cli.send", "cli",
               static_cast<std::int32_t>(node_id()), simulator().now(),
               req_id, "dst", static_cast<std::uint64_t>(target));
  }
  send(std::move(pkt));
}

void Client::maybe_send_redundant(std::uint64_t req_id) {
  auto it = pending_.find(req_id);
  if (it == pending_.end() || it->second.completed ||
      it->second.redundant_sent) {
    return;
  }
  Pending& p = it->second;
  const core::ReplicaGroupId rgid = ring_.group_of_key(p.key);
  const auto candidates = ring_.replicas(rgid);

  // Choose among replicas not already tried.
  std::vector<net::HostId> remaining;
  remaining.reserve(candidates.size());
  for (net::HostId h : candidates) {
    const bool used = std::any_of(p.sends().begin(), p.sends().end(),
                                  [h](const Copy& c) { return c.server == h; });
    if (!used) remaining.push_back(h);
  }
  if (remaining.empty()) return;

  const net::HostId target = selector_->select(remaining);
  selector_->on_send(target);
  p.redundant_sent = true;
  ++redundant_;
  send_copy(req_id, p, target, rgid, /*redundant=*/true);
}

void Client::send_cancels(std::uint64_t req_id, const Pending& p) {
  for (const Copy& c : p.sends()) {
    const net::HostId server = c.server;
    const bool answered =
        std::find(p.responders().begin(), p.responders().end(), server) !=
        p.responders().end();
    if (answered) continue;

    core::RequestHeader rh;
    rh.rid = core::kRidUnset;
    // Plain label (classified kOther): cancels bypass replica selection
    // and ride the default path straight to the targeted server.
    rh.mf = core::magic_f(core::kMagicMonitor);
    rh.rgid = ring_.group_of_key(p.key);

    AppRequest ar;
    ar.client_request_id = req_id;
    ar.key = p.key;
    ar.op = AppOp::kCancel;

    net::Packet pkt;
    pkt.dst = server;
    pkt.src_port = kClientPort;
    pkt.dst_port = kServerPort;
    pkt.payload = core::encode_request(rh, encode_app_request(ar));
    pkt.meta.request_id = req_id;
    pkt.meta.client_send_time = simulator().now();
    ++cancels_;
    if (obs::Observer* o = simulator().observer()) {
      o->instant("cli.cancel", "cli", static_cast<std::int32_t>(node_id()),
                 simulator().now(), req_id, "dst",
                 static_cast<std::uint64_t>(server));
    }
    send(std::move(pkt));
  }
}

void Client::receive(net::Packet pkt, net::NodeId from) {
  (void)from;
  handle_response(pkt);
}

void Client::handle_response(net::Packet& pkt) {
  const auto resp = core::decode_response(pkt.payload);
  if (!resp.has_value() ||
      pkt.payload.size() < core::kResponseHeaderBytes) {
    return;  // stray non-KV traffic: drop
  }
  const auto app =
      decode_app_response(core::response_app_payload(pkt.payload));
  if (!app.has_value()) return;

  auto it = pending_.find(app->client_request_id);
  if (it == pending_.end()) return;  // stray / already fully settled
  Pending& p = it->second;
  // The entry is erased once every copy has answered, so a response that
  // reaches it always has a free responder slot.
  assert(p.responses < p.copies);
  const net::HostId server = pkt.src;
  p.responder[p.responses++] = server;
  // Per-copy response time for selector feedback.
  sim::Time sent_at = p.first_send;
  for (const Copy& c : p.sends()) {
    if (c.server == server) {
      sent_at = c.sent_at;
      break;
    }
  }
  if (selector_) {
    rs::Feedback fb;
    fb.server = server;
    fb.response_time = simulator().now() - sent_at;
    fb.queue_size = resp->status.queue_size;
    fb.service_time =
        static_cast<sim::Duration>(resp->status.service_time_ns);
    selector_->on_response(fb);
  }

  if (!p.completed) {
    p.completed = true;
    ++completed_;
    if (cfg_.redundancy.cancel_on_completion &&
        p.responses < p.copies) {
      send_cancels(app->client_request_id, p);
    }
    const sim::Duration latency = simulator().now() - p.first_send;
    if (obs::Observer* o = simulator().observer()) {
      o->span("request", "cli", static_cast<std::int32_t>(node_id()),
              p.first_send, latency, app->client_request_id, "server",
              static_cast<std::uint64_t>(server), "fwd", pkt.meta.forwards);
      o->flight().on_complete(app->client_request_id, p.first_send, sent_at,
                              server, simulator().now());
    }
    p95_.add(sim::to_micros(latency));
    if (on_complete_) {
      Completion c;
      c.latency = latency;
      c.key = p.key;
      c.server = server;
      c.redundant_used = p.redundant_sent;
      c.forwards = pkt.meta.forwards;
      c.completed_at = simulator().now();
      on_complete_(c);
    }
  }
  if (p.responses >= p.copies) pending_.erase(it);
}

}  // namespace netrs::kv
