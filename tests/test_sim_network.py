"""Tests for the network fabric: delivery, credits, conservation, deadlock."""

import numpy as np
import pytest

from repro.routing.minimal import min_paths
from repro.sim.engine import build_network
from repro.sim.packet import Packet
from repro.sim.params import SimParams
from repro.sim.routing import make_routing
from repro.topology import Dragonfly


def _drain(network, max_cycles=5000):
    """Step until nothing is in flight and all credits returned (or
    fail), then flush the ejections the engine still buffers."""
    for _ in range(max_cycles):
        if network.quiescent():
            network.finalize()
            return network.cycle
        network.step()
    raise AssertionError("network did not drain")


def _send_packets(topo, pairs, params=None, routing="min", policy=None):
    """Inject one packet per (src_node, dst_node) pair at cycle 0."""
    params = params or SimParams(window_cycles=100)
    network = build_network(topo, params, routing)
    ejected = []
    network.on_eject = lambda pkt, cyc: ejected.append((pkt, cyc))
    rng = np.random.default_rng(0)
    algo = make_routing(network, routing, policy=policy, rng=rng)
    network.on_arrival = algo.revise_at
    for src, dst in pairs:
        packet = Packet(src, dst, 0)
        algo.route_packet(packet)
        network.inject(packet)
    _drain(network)
    return network, ejected


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(2, 4, 2, 9)


class TestDeliveryAndLatency:
    def test_single_packet_delivered(self, topo):
        _net, ejected = _send_packets(topo, [(0, topo.num_nodes - 1)])
        assert len(ejected) == 1
        pkt, _ = ejected[0]
        assert pkt.dst_node == topo.num_nodes - 1

    def test_zero_load_latency_matches_hops(self, topo):
        # MIN path latency = injection + per-hop (wire + router) + ejection
        src, dst = 0, topo.num_nodes - 1
        params = SimParams(window_cycles=100)
        (path,) = min_paths(
            topo, topo.switch_of_node(src), topo.switch_of_node(dst)
        )
        wire = sum(
            params.global_latency if s != -1 else params.local_latency
            for s in path.slots
        )
        expected = (
            params.injection_latency  # into the source switch
            + wire
            + path.num_hops * params.router_latency
            + params.injection_latency  # ejection channel
        )
        _net, ejected = _send_packets(topo, [(src, dst)], params=params)
        _pkt, cycle = ejected[0]
        assert cycle == expected

    def test_same_switch_delivery(self, topo):
        # src and dst attached to the same switch: no network hops
        _net, ejected = _send_packets(topo, [(0, 1)])
        pkt, cycle = ejected[0]
        assert pkt.path_hops == 0
        assert cycle <= 4

    def test_conservation_many_packets(self, topo):
        rng = np.random.default_rng(3)
        pairs = []
        for src in range(topo.num_nodes):
            dst = int(rng.integers(topo.num_nodes - 1))
            dst += dst >= src
            pairs.append((src, dst))
        _net, ejected = _send_packets(topo, pairs, routing="ugal-l")
        assert len(ejected) == len(pairs)
        assert sorted(p.src_node for p, _ in ejected) == sorted(
            s for s, _ in pairs
        )


class TestCreditsAndBuffers:
    """The credit and buffer checks read the reference path's own
    structures (``channel.credits``, ``router.queues``)."""

    def test_credits_restored_after_drain(self, topo, reference_engine):
        params = SimParams(window_cycles=100, buffer_size=4)
        pairs = [(n, (n + 17) % topo.num_nodes) for n in range(topo.num_nodes)]
        pairs = [(s, d) for s, d in pairs if d != s]
        network, ejected = _send_packets(
            topo, pairs, params=params, routing="ugal-l"
        )
        assert len(ejected) == len(pairs)
        for channel in network.channels.values():
            assert all(c == params.buffer_size for c in channel.credits)

    def test_credits_never_negative_nor_overflow(self, topo, reference_engine):
        params = SimParams(window_cycles=60, buffer_size=2)
        network = build_network(topo, params, "vlb")
        rng = np.random.default_rng(1)
        algo = make_routing(network, "vlb", rng=rng)
        network.on_eject = lambda pkt, cyc: None
        network.on_arrival = algo.revise_at
        nodes = np.arange(topo.num_nodes)
        for cycle in range(300):
            for src in nodes[rng.random(len(nodes)) < 0.3]:
                dst = int(rng.integers(topo.num_nodes - 1))
                dst += dst >= src
                pkt = Packet(int(src), dst, cycle)
                algo.route_packet(pkt)
                network.inject(pkt)
            network.step()
            for channel in network.channels.values():
                for c in channel.credits:
                    assert 0 <= c <= params.buffer_size
        # input buffers never exceed their capacity
        for router in network.routers:
            for q in router.queues:
                assert len(q) <= params.buffer_size

    def test_tiny_buffers_still_drain(self, topo):
        # stress deadlock freedom with 1-flit buffers and VLB traffic
        params = SimParams(window_cycles=50, buffer_size=1)
        pairs = [
            (n, (n + topo.num_nodes // 2) % topo.num_nodes)
            for n in range(topo.num_nodes)
        ]
        _net, ejected = _send_packets(
            topo, pairs, params=params, routing="vlb"
        )
        assert len(ejected) == len(pairs)


class TestRoutingVariants:
    def test_min_uses_no_vlb(self, topo):
        pairs = [(0, topo.num_nodes - 1)] * 5
        _net, ejected = _send_packets(topo, pairs, routing="min")
        assert all(not p.used_vlb for p, _ in ejected)
        assert all(p.path_hops <= 3 for p, _ in ejected)

    def test_vlb_uses_two_global_hops(self, topo):
        pairs = [(0, topo.num_nodes - 1)] * 5
        _net, ejected = _send_packets(topo, pairs, routing="vlb")
        assert all(p.used_vlb for p, _ in ejected)
        assert all(4 <= p.path_hops <= 6 for p, _ in ejected)

    def test_t_variant_requires_policy(self, topo):
        params = SimParams()
        network = build_network(topo, params, "t-ugal-l")
        with pytest.raises(ValueError, match="needs a custom policy"):
            make_routing(network, "t-ugal-l")

    def test_unknown_variant_rejected(self, topo):
        network = build_network(topo, SimParams(), "ugal-l")
        with pytest.raises(ValueError, match="unknown routing variant"):
            make_routing(network, "warp")

    def test_par_revision_switches_to_vlb(self):
        # Saturate the direct links so PAR revises some MIN decisions.
        topo = Dragonfly(2, 4, 2, 9)
        params = SimParams(window_cycles=150)
        network = build_network(topo, params, "par")
        rng = np.random.default_rng(0)
        algo = make_routing(network, "par", rng=rng)
        network.on_eject = lambda pkt, cyc: None
        network.on_arrival = algo.revise_at
        shift = topo.a * topo.p * 2  # two groups ahead
        for cycle in range(400):
            for node in range(topo.num_nodes):
                if rng.random() < 0.3:
                    pkt = Packet(
                        node, (node + shift) % topo.num_nodes, cycle
                    )
                    algo.route_packet(pkt)
                    network.inject(pkt)
            network.step()
        assert algo.par_revised > 0


class TestPortMapping:
    def test_every_channel_has_valid_ports(self, topo):
        network = build_network(topo, SimParams(), "ugal-l")
        for (u, v, slot), ch in network.channels.items():
            assert ch.src_router == u and ch.dst_router == v
            assert 0 <= ch.dst_port < topo.radix

    def test_channel_count(self, topo):
        network = build_network(topo, SimParams(), "ugal-l")
        expected = topo.g * topo.a * (topo.a - 1) + 2 * len(topo.global_links)
        assert len(network.channels) == expected
