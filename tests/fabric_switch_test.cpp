#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "net/host.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace netrs::net {
namespace {

// A host that records everything it receives.
class SinkHost final : public Host {
 public:
  using Host::Host;
  void receive(Packet pkt, NodeId from) override {
    received.push_back(std::move(pkt));
    froms.push_back(from);
    received_at.push_back(simulator().now());
  }
  void transmit(Packet pkt) { send(std::move(pkt)); }

  std::vector<Packet> received;
  std::vector<NodeId> froms;
  std::vector<sim::Time> received_at;
};

struct Rig {
  sim::Simulator sim;
  FatTree topo{4};
  Fabric fabric{sim, topo, FabricConfig{}};
  std::vector<std::unique_ptr<Switch>> switches;
  std::vector<std::unique_ptr<SinkHost>> hosts;

  Rig() {
    for (NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
    for (HostId h = 0; h < topo.host_count(); ++h) {
      hosts.push_back(std::make_unique<SinkHost>(fabric, h));
    }
  }

  Packet make_packet(HostId src, HostId dst) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.src_port = 9000;
    p.dst_port = 7000;
    p.payload.resize(32);
    return p;
  }
};

TEST(FabricTest, DeliversAcrossRackWithCorrectLatency) {
  Rig rig;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(0, 0, 1);  // same rack: 2 host links
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.sim.run();
  ASSERT_EQ(rig.hosts[dst]->received.size(), 1u);
  // host->ToR (30us) + ToR->host (30us).
  EXPECT_EQ(rig.hosts[dst]->received_at[0], sim::micros(60));
  EXPECT_EQ(rig.hosts[dst]->received[0].meta.forwards, 1u);
}

TEST(FabricTest, DeliversAcrossPodsWithFiveForwards) {
  Rig rig;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(3, 1, 1);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.sim.run();
  ASSERT_EQ(rig.hosts[dst]->received.size(), 1u);
  EXPECT_EQ(rig.hosts[dst]->received[0].meta.forwards, 5u);
  // 2 host links + 4 switch links, all 30us.
  EXPECT_EQ(rig.hosts[dst]->received_at[0], sim::micros(180));
}

TEST(FabricTest, AllPairsDeliver) {
  Rig rig;
  int expected = 0;
  for (HostId src = 0; src < rig.topo.host_count(); src += 3) {
    for (HostId dst = 0; dst < rig.topo.host_count(); dst += 5) {
      if (src == dst) continue;
      rig.hosts[src]->transmit(rig.make_packet(src, dst));
      ++expected;
    }
  }
  rig.sim.run();
  int delivered = 0;
  for (const auto& h : rig.hosts) {
    delivered += static_cast<int>(h->received.size());
  }
  EXPECT_EQ(delivered, expected);
}

TEST(FabricTest, PacketsArriveFromTorPort) {
  Rig rig;
  const HostId src = rig.topo.host_id(1, 0, 0);
  const HostId dst = rig.topo.host_id(1, 1, 1);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.sim.run();
  ASSERT_EQ(rig.hosts[dst]->froms.size(), 1u);
  EXPECT_EQ(rig.hosts[dst]->froms[0], rig.topo.host_tor(dst));
}

TEST(FabricTest, WireSizeAccountsPhantomBytes) {
  Packet p;
  p.payload.resize(24);
  EXPECT_EQ(p.wire_size(), 46u + 24u);
  p.phantom_payload = 1024;
  EXPECT_EQ(p.wire_size(), 46u + 24u + 1024u);
}

TEST(FabricTest, FlowHashStableAndPortSensitive) {
  Packet a;
  a.src = 1;
  a.dst = 2;
  a.src_port = 10;
  a.dst_port = 20;
  Packet b = a;
  EXPECT_EQ(Fabric::flow_hash(a), Fabric::flow_hash(b));
  b.src_port = 11;
  EXPECT_NE(Fabric::flow_hash(a), Fabric::flow_hash(b));
}

// A host that, on the first packet it receives, sends `burst` packets
// before it looks at that packet. The burst parks `burst` packets in the
// delivery pool at once, growing it (and reallocating its slot vector)
// from the slot the packet being handled was delivered from.
class BurstingHost final : public Host {
 public:
  BurstingHost(Fabric& fabric, HostId id, HostId peer, std::size_t burst)
      : Host(fabric, id), peer_(peer), burst_(burst) {}

  void receive(Packet pkt, NodeId from) override {
    (void)from;
    if (handled.empty()) {
      for (std::size_t i = 0; i < burst_; ++i) {
        Packet out;
        out.dst = peer_;
        out.src_port = 1;
        out.dst_port = 2;
        out.payload.assign(pkt.payload.size(), std::byte{0xEE});
        out.meta.request_id = ~std::uint64_t{0};
        send(std::move(out));
      }
      in_flight_after_burst = fabric().deliveries_in_flight();
    }
    handled.push_back(pkt);
  }

  std::vector<Packet> handled;
  std::size_t in_flight_after_burst = 0;

 private:
  HostId peer_;
  std::size_t burst_;
};

TEST(FabricTest, ReceiverSeesIntactPacketAfterPoolGrowth) {
  constexpr std::size_t kBurst = 64;
  // 30 B stays inline; 100 B spills to the payload's heap block.
  for (const std::size_t len : {std::size_t{30}, std::size_t{100}}) {
    SCOPED_TRACE(len);
    sim::Simulator sim;
    const FatTree topo(4);
    Fabric fabric(sim, topo, FabricConfig{});
    std::vector<std::unique_ptr<Switch>> switches;
    for (NodeId sw = 0; sw < topo.switch_count(); ++sw) {
      switches.push_back(std::make_unique<Switch>(fabric, sw));
      fabric.attach(sw, switches.back().get());
    }
    const HostId src = topo.host_id(0, 0, 0);
    const HostId dst = topo.host_id(3, 1, 1);
    SinkHost sender(fabric, src);
    BurstingHost receiver(fabric, dst, src, kBurst);

    Packet pkt;
    pkt.dst = dst;
    pkt.src_port = 4242;
    pkt.dst_port = 7000;
    pkt.phantom_payload = 1000;
    pkt.payload.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      pkt.payload[i] = std::byte(i * 7 + 3);
    }
    pkt.meta.request_id = 0x1234'5678'9ABC'DEF0ULL;
    pkt.meta.client_send_time = 17;
    pkt.meta.redundant = true;
    sender.transmit(std::move(pkt));
    sim.run();

    // The burst was parked while the packet was being handled: the pool
    // held kBurst packets at once, so it grew from its one-slot
    // high-water mark.
    EXPECT_EQ(receiver.in_flight_after_burst, kBurst);
    EXPECT_EQ(sender.received.size(), kBurst);
    ASSERT_EQ(receiver.handled.size(), 1u);
    const Packet& got = receiver.handled[0];
    EXPECT_EQ(got.src, src);
    EXPECT_EQ(got.dst, dst);
    EXPECT_EQ(got.src_port, 4242);
    EXPECT_EQ(got.dst_port, 7000);
    EXPECT_EQ(got.phantom_payload, 1000u);
    EXPECT_EQ(got.meta.request_id, 0x1234'5678'9ABC'DEF0ULL);
    EXPECT_EQ(got.meta.client_send_time, 17);
    EXPECT_EQ(got.meta.forwards, 5u);
    EXPECT_TRUE(got.meta.redundant);
    EXPECT_EQ(got.payload.is_inline(), len <= PayloadBuffer::kInlineCapacity);
    ASSERT_EQ(got.payload.size(), len);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(got.payload[i], std::byte(i * 7 + 3)) << "byte " << i;
    }
  }
}

// Ingress stage behaviors: rewrite + steer + consume.
class CountingStage final : public Switch::IngressStage {
 public:
  Switch::Disposition on_ingress(Packet& pkt, NodeId from,
                                 Switch& sw) override {
    (void)pkt;
    (void)from;
    (void)sw;
    ++seen;
    return Switch::Continue{};
  }
  int seen = 0;
};

TEST(SwitchTest, IngressStagesRunPerPacket) {
  Rig rig;
  CountingStage stage;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(0, 1, 0);
  // Install on the source ToR.
  const NodeId tor = rig.topo.host_tor(src);
  rig.switches[tor]->add_ingress_stage(&stage);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.sim.run();
  EXPECT_EQ(stage.seen, 2);
  EXPECT_EQ(rig.hosts[dst]->received.size(), 2u);
}

// Steers packets toward `target` until they visit it, then marks them done
// (payload byte 0) — the same "relabel at the RSNode" idea NetRS rules use
// to avoid steering loops on the way back down.
class SteeringStage final : public Switch::IngressStage {
 public:
  explicit SteeringStage(NodeId target) : target_(target) {}
  Switch::Disposition on_ingress(Packet& pkt, NodeId from,
                                 Switch& sw) override {
    (void)from;
    if (pkt.payload[0] == std::byte{1}) return Switch::Continue{};
    if (sw.id() == target_) {
      pkt.payload[0] = std::byte{1};
      return Switch::Continue{};
    }
    return Switch::Steer{target_};
  }

 private:
  NodeId target_;
};

TEST(SwitchTest, SteerDetoursThroughTargetSwitch) {
  Rig rig;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(0, 0, 1);  // same rack
  const NodeId core = rig.topo.core_node(0, 0);
  // Steer everything through a core switch from every switch it touches.
  std::vector<std::unique_ptr<SteeringStage>> stages;
  for (auto& sw : rig.switches) {
    stages.push_back(std::make_unique<SteeringStage>(core));
    sw->add_ingress_stage(stages.back().get());
  }
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.sim.run();
  ASSERT_EQ(rig.hosts[dst]->received.size(), 1u);
  // Same-rack default is 1 forward; via the core it is 5 (the paper's
  // extra-hop example: 4 extra forwards for tier-2 traffic via core).
  EXPECT_EQ(rig.hosts[dst]->received[0].meta.forwards, 5u);
}

class ConsumingStage final : public Switch::IngressStage {
 public:
  Switch::Disposition on_ingress(Packet& pkt, NodeId from,
                                 Switch& sw) override {
    (void)pkt;
    (void)from;
    (void)sw;
    ++eaten;
    return Switch::Consumed{};
  }
  int eaten = 0;
};

TEST(SwitchTest, ConsumedPacketsStop) {
  Rig rig;
  ConsumingStage stage;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(2, 0, 0);
  rig.switches[rig.topo.host_tor(src)]->add_ingress_stage(&stage);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.sim.run();
  EXPECT_EQ(stage.eaten, 1);
  EXPECT_TRUE(rig.hosts[dst]->received.empty());
}

class RecordingEgress final : public Switch::EgressStage {
 public:
  void on_egress(const Packet& pkt, NodeId next_hop, Switch& sw) override {
    (void)pkt;
    (void)sw;
    next_hops.push_back(next_hop);
  }
  std::vector<NodeId> next_hops;
};

TEST(SwitchTest, EgressStagesObserveNextHop) {
  Rig rig;
  RecordingEgress egress;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(0, 0, 1);
  const NodeId tor = rig.topo.host_tor(src);
  rig.switches[tor]->add_egress_stage(&egress);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.sim.run();
  ASSERT_EQ(egress.next_hops.size(), 1u);
  EXPECT_EQ(egress.next_hops[0], rig.topo.host_node(dst));
}

TEST(SwitchTest, ForwardCounterAdvances) {
  Rig rig;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(0, 0, 1);
  const NodeId tor = rig.topo.host_tor(src);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.sim.run();
  EXPECT_EQ(rig.switches[tor]->forwards(), 2u);
}

// An auxiliary device (like a NetRS accelerator) that keeps what it gets.
class AuxSink final : public Node {
 public:
  void receive(Packet pkt, NodeId from) override {
    (void)from;
    received.push_back(std::move(pkt));
  }
  std::vector<Packet> received;
};

// The NetRS stage pattern, at scale: a packet tagged kConsume is moved to
// the auxiliary device and consumed (as a request handed to the
// accelerator); one tagged kClone is cloned to it `burst` times — growing
// the delivery pool past a chunk while the packet itself still sits in
// its slot — and then continues (as a response whose clone feeds the
// selector).
class CloneAndConsumeStage final : public Switch::IngressStage {
 public:
  static constexpr std::uint64_t kConsume = 1;
  static constexpr std::uint64_t kClone = 2;

  CloneAndConsumeStage(NodeId aux, std::size_t burst)
      : aux_(aux), burst_(burst) {}

  Switch::Disposition on_ingress(Packet& pkt, NodeId from,
                                 Switch& sw) override {
    (void)from;
    if (pkt.meta.request_id == kConsume) {
      sw.fabric().send(sw.id(), aux_, std::move(pkt));
      return Switch::Consumed{};
    }
    if (pkt.meta.request_id == kClone) {
      for (std::size_t i = 0; i < burst_; ++i) {
        Packet clone = pkt;
        sw.fabric().send(sw.id(), aux_, std::move(clone));
      }
      in_flight_after_burst = sw.fabric().deliveries_in_flight();
    }
    return Switch::Continue{};
  }

  std::size_t in_flight_after_burst = 0;

 private:
  NodeId aux_;
  std::size_t burst_;
};

Packet patterned_packet(HostId dst, std::size_t len, std::uint64_t tag) {
  Packet pkt;
  pkt.dst = dst;
  pkt.src_port = 4242;
  pkt.dst_port = 7000;
  pkt.phantom_payload = 1000;
  pkt.payload.resize(len);
  for (std::size_t i = 0; i < len; ++i) pkt.payload[i] = std::byte(i * 7 + 3);
  pkt.meta.request_id = tag;
  pkt.meta.client_send_time = 17;
  pkt.meta.redundant = true;
  return pkt;
}

void expect_patterned(const Packet& got, HostId src, HostId dst,
                      std::size_t len, std::uint64_t tag,
                      std::uint32_t forwards) {
  EXPECT_EQ(got.src, src);
  EXPECT_EQ(got.dst, dst);
  EXPECT_EQ(got.src_port, 4242);
  EXPECT_EQ(got.dst_port, 7000);
  EXPECT_EQ(got.phantom_payload, 1000u);
  EXPECT_EQ(got.meta.request_id, tag);
  EXPECT_EQ(got.meta.client_send_time, 17);
  EXPECT_EQ(got.meta.forwards, forwards);
  EXPECT_TRUE(got.meta.redundant);
  EXPECT_EQ(got.payload.is_inline(), len <= PayloadBuffer::kInlineCapacity);
  ASSERT_EQ(got.payload.size(), len);
  for (std::size_t i = 0; i < len; ++i) {
    EXPECT_EQ(got.payload[i], std::byte(i * 7 + 3)) << "byte " << i;
  }
}

TEST(SwitchTest, InPlaceRoutedPacketSurvivesStageSendsPastAPoolChunk) {
  constexpr std::size_t kBurst = Fabric::kChunkSlots + 88;
  // 30 B stays inline; 100 B spills to the payload's heap block.
  for (const std::size_t len : {std::size_t{30}, std::size_t{100}}) {
    SCOPED_TRACE(len);
    Rig rig;
    const HostId src = rig.topo.host_id(0, 0, 0);
    const HostId dst = rig.topo.host_id(3, 1, 1);
    // The stage sits on the source ToR, with the device cabled to it.
    const NodeId tor = rig.topo.host_tor(src);
    AuxSink aux;
    const NodeId aux_id = rig.fabric.attach_auxiliary(&aux, tor);
    CloneAndConsumeStage stage(aux_id, kBurst);
    rig.switches[tor]->add_ingress_stage(&stage);

    rig.hosts[src]->transmit(
        patterned_packet(dst, len, CloneAndConsumeStage::kConsume));
    rig.hosts[src]->transmit(
        patterned_packet(dst, len, CloneAndConsumeStage::kClone));
    rig.sim.run();

    // The burst parked kBurst clones while the cloned packet held its own
    // slot and the consumed one was still on the accelerator link: the
    // pool spanned more than one chunk at once.
    EXPECT_EQ(stage.in_flight_after_burst, kBurst + 2);
    EXPECT_EQ(rig.fabric.deliveries_in_flight(), 0u);
    // The packet routed in place reached its host intact: 5 forwards.
    ASSERT_EQ(rig.hosts[dst]->received.size(), 1u);
    expect_patterned(rig.hosts[dst]->received[0], src, dst, len,
                     CloneAndConsumeStage::kClone, 5);
    // The device got the consumed packet first, then every clone; none
    // was forwarded yet.
    ASSERT_EQ(aux.received.size(), kBurst + 1);
    expect_patterned(aux.received[0], src, dst, len,
                     CloneAndConsumeStage::kConsume, 0);
    expect_patterned(aux.received[1], src, dst, len,
                     CloneAndConsumeStage::kClone, 0);
    expect_patterned(aux.received.back(), src, dst, len,
                     CloneAndConsumeStage::kClone, 0);
    // Counted as today: the two host links, the 5 hops of the routed
    // packet, and kBurst + 1 accelerator links.
    EXPECT_EQ(rig.fabric.packets_sent(), 2 + 5 + kBurst + 1);
  }
}

TEST(SwitchTest, InPlaceHopOntoDownLinkDropsLikeSend) {
  Rig rig;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(2, 1, 0);
  const NodeId tor = rig.topo.host_tor(src);
  Packet pkt = rig.make_packet(src, dst);
  // The uplink the ToR's ECMP picks for this flow.
  const NodeId agg =
      rig.topo.next_hop_toward_host(tor, dst, Fabric::flow_hash(pkt));
  rig.fabric.set_link_state(tor, agg, false);

  // Reference: Fabric::send over the down link, from outside any event.
  rig.fabric.send(tor, agg, rig.make_packet(src, dst));
  EXPECT_EQ(rig.fabric.link_drops(), 1u);
  EXPECT_EQ(rig.fabric.packets_sent(), 0u);

  // The same hop taken in place: the ToR routes the delivered packet
  // onto the down link.
  rig.hosts[src]->transmit(std::move(pkt));
  rig.sim.run();
  EXPECT_EQ(rig.fabric.link_drops(), 2u);
  EXPECT_EQ(rig.fabric.packets_sent(), 1u);  // the host link only
  EXPECT_EQ(rig.fabric.bytes_sent(), rig.make_packet(src, dst).wire_size());
  EXPECT_EQ(rig.switches[tor]->forwards(), 1u);
  EXPECT_EQ(rig.fabric.deliveries_in_flight(), 0u);
  EXPECT_TRUE(rig.hosts[dst]->received.empty());

  // Back up, the same flow goes through.
  rig.fabric.set_link_state(tor, agg, true);
  rig.hosts[src]->transmit(rig.make_packet(src, dst));
  rig.sim.run();
  EXPECT_EQ(rig.fabric.link_drops(), 2u);
  ASSERT_EQ(rig.hosts[dst]->received.size(), 1u);
}

TEST(SwitchTest, CrossPodTransitCountsEveryHopOnce) {
  Rig rig;
  const HostId src = rig.topo.host_id(0, 0, 0);
  const HostId dst = rig.topo.host_id(3, 1, 1);
  const Packet probe = rig.make_packet(src, dst);
  constexpr int kPackets = 3;
  for (int i = 0; i < kPackets; ++i) {
    rig.hosts[src]->transmit(rig.make_packet(src, dst));
  }
  rig.sim.run();
  ASSERT_EQ(rig.hosts[dst]->received.size(), std::size_t{kPackets});
  // ToR, agg, core, agg, ToR: each forwards every packet once.
  std::uint64_t forwards = 0;
  int on_path = 0;
  for (const auto& sw : rig.switches) {
    forwards += sw->forwards();
    if (sw->forwards() > 0) {
      EXPECT_EQ(sw->forwards(), std::uint64_t{kPackets});
      ++on_path;
    }
  }
  EXPECT_EQ(on_path, 5);
  EXPECT_EQ(forwards, 5u * kPackets);
  // Six links per packet (two host links, four switch links), each
  // counted once with the packet's wire size.
  EXPECT_EQ(rig.fabric.packets_sent(), 6u * kPackets);
  EXPECT_EQ(rig.fabric.bytes_sent(), 6u * kPackets * probe.wire_size());
  EXPECT_EQ(rig.fabric.deliveries_in_flight(), 0u);
}

TEST(SwitchTest, ReceiveRoutesAndSendsLikeTheFabric) {
  // Switch::receive is route() plus Fabric::send: a packet handed to the
  // source ToR directly takes the same path as one delivered to it.
  Rig rig;
  const HostId src = rig.topo.host_id(1, 0, 0);
  const HostId dst = rig.topo.host_id(2, 1, 1);
  const NodeId tor = rig.topo.host_tor(src);
  Packet pkt = rig.make_packet(src, dst);
  pkt.meta.request_id = 99;
  rig.switches[tor]->receive(std::move(pkt), rig.topo.host_node(src));
  rig.sim.run();
  ASSERT_EQ(rig.hosts[dst]->received.size(), 1u);
  EXPECT_EQ(rig.hosts[dst]->received[0].meta.request_id, 99u);
  EXPECT_EQ(rig.hosts[dst]->received[0].meta.forwards, 5u);
  EXPECT_EQ(rig.hosts[dst]->received_at[0], sim::micros(150));
  EXPECT_EQ(rig.fabric.packets_sent(), 5u);
}

}  // namespace
}  // namespace netrs::net
