#include "netrs/monitor.hpp"

#include <algorithm>
#include <cassert>

namespace netrs::core {

Monitor::Monitor(const net::FatTree& topo, const TrafficGroups& groups,
                 net::NodeId tor)
    : topo_(topo), groups_(groups) {
  const net::SwitchCoord c = topo.coord(tor);
  assert(c.tier == net::Tier::kTor && "monitors live on ToR switches only");
  local_ = net::SourceMarker{c.pod, c.idx};
  first_group_ = groups.group_of_host(topo.host_id(c.pod, c.idx, 0));
  const GroupId last_group = groups.group_of_host(
      topo.host_id(c.pod, c.idx, topo.hosts_per_rack() - 1));
  counts_.resize(last_group - first_group_ + 1);
}

void Monitor::on_egress(const net::Packet& pkt, net::NodeId next_hop,
                        net::Switch& sw) {
  (void)sw;
  if (!topo_.is_host(next_hop)) return;  // only packets leaving the network
  const auto mf = peek_magic(pkt.payload);
  if (!mf.has_value() || classify(*mf) != PacketKind::kMonitorOnly) return;
  const auto sm = peek_source_marker(pkt.payload);
  if (!sm.has_value()) return;

  int tier = 0;
  if (sm->pod == local_.pod) {
    tier = sm->rack == local_.rack ? 2 : 1;
  }
  const GroupId g = groups_.group_of_host(pkt.dst);
  assert(g >= first_group_ && g - first_group_ < counts_.size());
  counts_[g - first_group_][static_cast<std::size_t>(tier)] += 1;
  ++total_;
}

void Monitor::reset_counts() {
  std::fill(counts_.begin(), counts_.end(), std::array<std::uint64_t, 3>{});
}

}  // namespace netrs::core
