#include "netrs/accelerator.hpp"

#include <cassert>
#include <utility>

#include "netrs/packet_format.hpp"
#include "obs/observer.hpp"

namespace netrs::core {

Accelerator::Accelerator(net::Fabric& fabric, net::NodeId co_located_switch,
                         AcceleratorConfig cfg)
    : fabric_(fabric), sim_(fabric.simulator_for(co_located_switch)),
      cfg_(cfg) {
  assert(cfg.cores >= 1);
  service_start_.resize(static_cast<std::size_t>(cfg.cores), 0);
  slot_busy_.resize(static_cast<std::size_t>(cfg.cores), false);
  service_events_.resize(static_cast<std::size_t>(cfg.cores), 0);
  in_service_.resize(static_cast<std::size_t>(cfg.cores));
  primary_switch_ = co_located_switch;
  primary_node_ = attach_switch(co_located_switch);
  station_ledger_.set_name("accelerator@" + std::to_string(co_located_switch));
}

net::NodeId Accelerator::attach_switch(net::NodeId sw) {
  auto it = by_switch_.find(sw);
  if (it != by_switch_.end()) return it->second;
  // A shared accelerator must stay on one shard: every switch it is cabled
  // to has to live in the same core group / pod (the 1.25 us link is far
  // below the cross-shard lookahead window).
  assert(&fabric_.simulator_for(sw) == &sim_ &&
         "accelerator shared across shards");
  const net::NodeId aux = fabric_.attach_auxiliary(this, sw);
  by_switch_.emplace(sw, aux);
  return aux;
}

net::NodeId Accelerator::node_id_for(net::NodeId sw) const {
  const auto it = by_switch_.find(sw);
  assert(it != by_switch_.end() && "switch not cabled to this accelerator");
  return it->second;
}

bool Accelerator::is_request(const net::Packet& pkt) const {
  const auto mf = peek_magic(pkt.payload);
  return mf.has_value() && classify(*mf) == PacketKind::kNetRSRequest;
}

void Accelerator::receive(net::Packet pkt, net::NodeId from) {
  shard_affinity().check("receive");
  if (failed_) {
    // A failed accelerator is dark: the switch's forwarded packet is
    // dropped, so the request it carried never reaches a server and the
    // issuing client's Pending entry stays open (no client timeouts).
    ++rejected_;
    sim_.auditor().on_packet_dropped("accel-down");
    return;
  }
  if constexpr (sim::kAuditEnabled) {
    sim_.auditor().check(
        by_switch_.contains(from), "invalid-forward", [&] {
          return "accelerator received packet src=" +
                 std::to_string(pkt.src) + " from uncabled switch " +
                 std::to_string(from);
        });
  } else {
    assert(by_switch_.contains(from) &&
           "packet from a switch this accelerator is not cabled to");
  }
  Job job{std::move(pkt), from, sim_.now()};
  if (busy_cores_ < cfg_.cores) {
    start_service(std::move(job));
  } else {
    queue_.push_back(std::move(job));
    station_ledger_.on_enqueue(sim_.auditor(), queue_.size());
  }
}

void Accelerator::start_service(Job job) {
  ++busy_cores_;
  station_ledger_.on_service_start(sim_.auditor(), busy_cores_,
                                   cfg_.cores);
  std::size_t slot = slot_busy_.size();
  for (std::size_t s = 0; s < slot_busy_.size(); ++s) {
    if (!slot_busy_[s]) {
      slot = s;
      break;
    }
  }
  if constexpr (sim::kAuditEnabled) {
    sim_.auditor().check(
        slot < slot_busy_.size(), "service-slot-overflow", [&] {
          return "accelerator admitted a job with all " +
                 std::to_string(cfg_.cores) + " core slots busy";
        });
    if (slot >= slot_busy_.size()) return;  // unrecordable; avoid UB
  } else {
    assert(slot < slot_busy_.size() &&
           "busy_cores_ admitted more jobs than cores");
  }
  slot_busy_[slot] = true;
  service_start_[slot] = sim_.now();
  const sim::Duration service = is_request(job.pkt)
                                    ? cfg_.request_service_time
                                    : cfg_.response_service_time;
  // Both spans are known here: the wait ended now and the (deterministic)
  // service ends `service` from now.
  if (obs::Observer* o = sim_.observer()) {
    const sim::Time now = sim_.now();
    const auto tid = static_cast<std::int32_t>(primary_node_);
    if (now > job.enqueued) {
      o->span("accel.queue", "accel", tid, job.enqueued, now - job.enqueued,
              job.pkt.meta.request_id);
    }
    o->span("accel.service", "accel", tid, now, service,
            job.pkt.meta.request_id, "is_req", is_request(job.pkt) ? 1 : 0);
    if (is_request(job.pkt)) {
      o->flight().on_accel(job.pkt.meta.request_id, job.enqueued, now,
                           service);
    }
  }
  // The job parks in its core slot; the completion event captures
  // {this, slot} only, so scheduling never heap-allocates.
  in_service_[slot] = std::move(job);
  service_events_[slot] =
      sim_.after(service, [this, slot] { finish_service(slot); });
}

void Accelerator::finish_service(std::size_t slot) {
  if constexpr (sim::kAuditEnabled) {
    sim_.auditor().check(
        busy_cores_ > 0 && slot_busy_[slot], "service-slot-underflow", [&] {
          return "accelerator completion fired for slot " +
                 std::to_string(slot) + " with busy_cores=" +
                 std::to_string(busy_cores_) + " slot_busy=" +
                 std::to_string(static_cast<int>(slot_busy_[slot]));
        });
  } else {
    assert(busy_cores_ > 0);
    assert(slot_busy_[slot]);
  }
  --busy_cores_;
  station_ledger_.on_service_finish(sim_.auditor(), busy_cores_,
                                    cfg_.cores);
  Job job = std::move(in_service_[slot]);
  // service_start_ was clamped forward by any reset_utilization() that
  // happened mid-service, so this charges only the busy time that falls
  // inside the current window.
  busy_accum_ += sim_.now() - service_start_[slot];
  slot_busy_[slot] = false;
  ++processed_;
  if (handler_) {
    const net::NodeId from = job.from_switch;
    std::optional<net::Packet> out = handler_(std::move(job.pkt));
    if (out.has_value()) {
      fabric_.send(by_switch_.at(from), from, std::move(*out));
    }
  }
  if (!queue_.empty()) {
    Job next = queue_.take_front();
    station_ledger_.on_dequeue(sim_.auditor(), queue_.size());
    start_service(std::move(next));
  }
}

void Accelerator::fail() {
  if (failed_) return;
  failed_ = true;
  sim::Auditor& audit = sim_.auditor();
  // Drop the FIFO queue with ledger + drop-reason accounting.
  while (!queue_.empty()) {
    queue_.pop_front();
    station_ledger_.on_remove(audit, queue_.size());
    audit.on_packet_dropped("accel-crash");
  }
  // Cancel in-flight completions; busy time is charged up to the crash
  // (mirroring the split-at-window accounting in reset_utilization()).
  for (std::size_t slot = 0; slot < slot_busy_.size(); ++slot) {
    if (!slot_busy_[slot]) continue;
    sim_.cancel(service_events_[slot]);
    slot_busy_[slot] = false;
    if (sim_.now() > service_start_[slot]) {
      busy_accum_ += sim_.now() - service_start_[slot];
    }
    in_service_[slot] = Job{};
    --busy_cores_;
    station_ledger_.on_service_finish(audit, busy_cores_, cfg_.cores);
    audit.on_packet_dropped("accel-crash");
  }
}

void Accelerator::recover() { failed_ = false; }

double Accelerator::utilization(sim::Time now) const {
  const sim::Duration span = now - window_start_;
  if (span <= 0) return 0.0;
  sim::Duration busy = busy_accum_;
  for (std::size_t s = 0; s < slot_busy_.size(); ++s) {
    if (slot_busy_[s] && now > service_start_[s]) {
      busy += now - service_start_[s];  // elapsed part of in-flight service
    }
  }
  return static_cast<double>(busy) /
         (static_cast<double>(span) * cfg_.cores);
}

void Accelerator::reset_utilization(sim::Time now) {
  if constexpr (sim::kAuditEnabled) {
    // Busy core-time can never exceed the window's wall time x cores; an
    // overflow here is the PR 1 utilization-accounting bug resurfacing.
    // Checked here (window close) rather than in utilization() so the
    // getter stays a pure const read for samplers.
    const sim::Duration span = now - window_start_;
    if (span > 0) {
      sim::Duration busy = busy_accum_;
      for (std::size_t s = 0; s < slot_busy_.size(); ++s) {
        if (slot_busy_[s] && now > service_start_[s]) {
          busy += now - service_start_[s];
        }
      }
      station_ledger_.check_busy_time(sim_.auditor(), busy,
                                      span, cfg_.cores);
    }
  }
  window_start_ = now;
  busy_accum_ = 0;
  // In-flight services are split at the boundary: the part before `now`
  // was already observable in the old window; only the remainder will be
  // charged (at completion) to the new one.
  for (std::size_t s = 0; s < slot_busy_.size(); ++s) {
    if (slot_busy_[s] && service_start_[s] < now) service_start_[s] = now;
  }
}

}  // namespace netrs::core
