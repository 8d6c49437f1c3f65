"""Routing decision state: candidate rows, queue estimates.

The T- variants (T-UGAL-L, T-UGAL-G, T-PAR) are the same decision
procedures with a restricted VLB :class:`~repro.routing.pathset.PathPolicy`
-- exactly the paper's framing: "T-UGAL only changes the set of candidate
paths for UGAL".

:class:`RoutingAlgorithm` owns everything a decision *uses* -- per-pair
MIN candidates, the rng, queue-state reads, decision counters -- while each variant's decision *procedure* (how MIN, VLB, UGAL-L,
UGAL-G, and PAR choose and revise) lives in a
:class:`~repro.sim.strategies.RoutingStrategy` looked up in
``repro.spec``'s ``ROUTING_REGISTRY``.  Adding a variant is a
registration, not an edit to this file.

Candidates are integer rows of the topology's interned
:class:`~repro.routing.table.RouteTable` (hops, channel indices, VC
ladder by slot shape) plus this network's channel objects for them; no
:class:`~repro.routing.paths.Path` is built per packet.  One
``route_packets`` call works in two phases: every random pick of the
batch, strictly in packet order, from a
:class:`~repro.sim.draws.DrawStream`; then the strategy's decision over
the whole batch against one read of the channel loads.

That per-packet procedure (``route_packet`` / ``route_packets`` /
``revise_at``, over a wheel :class:`~repro.sim.network.Network`) is the
definition.  On a packet-lane run the algorithm is also the run's whole
routing object: :meth:`RoutingAlgorithm.traffic` says what to inject,
:meth:`RoutingAlgorithm.run` generates, routes and queues each cycle's
packets and steps the network, and :meth:`RoutingAlgorithm.counts` is
what the injection did.  The array lane's
:class:`~repro.sim.array.lane.RouteLane` has the same surface and makes
the same decisions -- same draws, same order -- in the native kernel; this module knows nothing of it.  See "Route
tables and draw order" and "The run loop" in ``docs/simulator.md``.
"""

from __future__ import annotations

from functools import cached_property
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.routing.pathset import AllVlbPolicy, PathPolicy
from repro.routing.table import route_table
from repro.sim.draws import DrawStream
from repro.sim.network import Network, SimChannel
from repro.sim.packet import Packet
from repro.traffic.patterns import NO_TRAFFIC, TrafficPattern

__all__ = [
    "Candidate",
    "Pick",
    "RoutingAlgorithm",
    "ROUTING_VARIANTS",
    "make_routing",
]

ROUTING_VARIANTS = ("min", "vlb", "ugal-l", "ugal-g", "par")


class Candidate(NamedTuple):
    """A prepared route: the table's integer row plus this network's
    view of it.  ``route`` and ``vcs`` are shared between all packets
    that take the candidate and are never mutated."""

    hops: int
    chans: Tuple[int, ...]  # channel indices (table order == network order)
    shape: str  # 'l'/'g' per hop; keys the VC ladders
    route: List[SimChannel]
    vcs: List[int]


# one packet's draws: its MIN and VLB candidates (VLB ``None`` when the
# strategy draws none or the policy offers none) plus the extra
# candidates of each kind that min_candidates / vlb_candidates > 1 add
Pick = Tuple[
    Packet,
    Candidate,
    Optional[Candidate],
    Sequence[Candidate],
    Sequence[Candidate],
]


class RoutingAlgorithm:
    """Per-packet route selection bound to a wheel ``Network`` and a
    VLB policy -- and, given :meth:`traffic`, a packet-lane run's
    injection and cycle loop (:meth:`run`)."""

    def __init__(
        self,
        network: Network,
        variant: str,
        policy: Optional[PathPolicy] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        # lazy import: the spec layer sits above sim and imports this
        # module, so the reverse edge must not exist at import time
        from repro.spec.builtins import strategy_for

        self.strategy = strategy_for(variant)
        self.network = network
        self.topo = network.topo
        self.variant = variant
        self.policy = policy if policy is not None else AllVlbPolicy()
        # fixed fallback seed: an OS-entropy default here would make any
        # caller that forgets to pass the SimParams-derived rng silently
        # nonreproducible
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.threshold = network.params.ugal_threshold
        self.vc_scheme = network.params.vc_scheme
        self.num_vcs = network.num_vcs
        # decision counters (reported by the engine)
        self.min_chosen = 0
        self.vlb_chosen = 0
        self.par_revised = 0

        self.table = route_table(self.topo)
        self._ladders = self.table.ladders(self.vc_scheme, self.num_vcs)
        self._nsw = self.topo.num_switches
        self._same_switch = Candidate(0, (), "", [], [])
        # per-pair MIN candidates, keyed src * num_switches + dst
        self._min_cache: Dict[int, List[Candidate]] = {}
        # pairs (same key) the policy cannot serve: they draw no more
        self._no_vlb_path: Set[int] = set()
        # sparse-policy reservoirs (PathPolicy.sample): they depend on
        # the rng that filled them, so they live with this run
        self.reservoirs: dict = {}
        # what traffic() set and run() injected
        self.load = 0.0
        self.max_source_queue = 0
        self.pattern: Optional[TrafficPattern] = None
        self.injected = 0
        self.stalled = 0

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    @cached_property
    def _channels(self) -> List[SimChannel]:
        """Table channel index -> this network's channel object, for
        the per-packet procedure (the network lays its channels out in
        the table's order)."""
        channels = self.network.channels
        return [channels[key] for key in self.table.channel_keys]

    @cached_property
    def _switch_of(self) -> List[int]:
        """Node -> its switch, for the per-packet procedure."""
        topo = self.topo
        return [topo.switch_of_node(n) for n in range(topo.num_nodes)]

    def _candidate(self, chans: Tuple[int, ...], shape: str) -> Candidate:
        channels = self._channels
        return Candidate(
            len(chans),
            chans,
            shape,
            [channels[c] for c in chans],
            self._ladders[shape],
        )

    def pick_min(self, src_sw: int, dst_sw: int, draws) -> Candidate:
        """One random MIN candidate (no draw for single-path pairs).

        ``draws`` is anything with ``integers(n)``: the generator itself
        or a :class:`~repro.sim.draws.DrawStream` over it.
        """
        key = src_sw * self._nsw + dst_sw
        entries = self._min_cache.get(key)
        if entries is None:
            entries = self._min_cache[key] = [
                self._candidate(leg.chans, leg.shape)
                for leg in self.table.min_legs(src_sw, dst_sw)
            ]
        if len(entries) == 1:
            return entries[0]
        return entries[draws.integers(len(entries))]

    def pick_vlb(self, src_sw: int, dst_sw: int, draws) -> Optional[Candidate]:
        """One uniform VLB candidate of the policy, drawn fresh; ``None``
        if the policy offers none (remembered: such a pair draws no
        more)."""
        key = src_sw * self._nsw + dst_sw
        if key in self._no_vlb_path:
            return None
        desc = self.policy.sample(
            self.topo, src_sw, dst_sw, draws, self.reservoirs
        )
        if desc is None:
            self._no_vlb_path.add(key)
            return None
        first, second = self.table.vlb_legs(src_sw, dst_sw, desc)
        return self._candidate(
            first.chans + second.chans, first.shape + second.shape
        )

    def revised_route(
        self, packet: Packet, vlb: Candidate
    ) -> Tuple[List[SimChannel], List[int]]:
        """(route, vcs) of ``packet`` re-routed over ``vlb`` from its
        current hop: the hops taken so far keep their VCs, the VLB
        fragment rides PAR's revised ladder from there."""
        hop = packet.hop
        ladders = self.table.ladders(
            self.vc_scheme, self.num_vcs, revised=True, hop_offset=hop
        )
        return (
            packet.route[:hop] + vlb.route,
            packet.vcs[:hop] + ladders[vlb.shape],
        )

    # ------------------------------------------------------------------
    # Queue estimates
    # ------------------------------------------------------------------
    def load_reader(self) -> Callable[[int], int]:
        """``channel index -> load_metric``, asked of the channel."""
        channels = self._channels
        return lambda index: channels[index].load_metric()

    # ------------------------------------------------------------------
    # Decisions (delegated to the registered strategy)
    # ------------------------------------------------------------------
    def route_packet(self, packet: Packet) -> None:
        """Fill in route/vcs for a packet at its source switch."""
        self._route((packet,), self.rng)

    def route_packets(self, packets: Sequence[Packet]) -> None:
        """Route a batch of freshly created packets, in order.

        Batch-friendly hook for the engines: one call per injection
        cycle instead of one per packet.  The RNG draw order is pinned
        -- every pick is drawn strictly in packet order, so the draws
        (and the no-VLB-path marks they leave) happen in exactly the
        order a per-packet loop would produce, and the
        :class:`~repro.sim.draws.DrawStream` leaves the generator in the
        state scalar draws would have.  Decisions only read channel
        ``load_metric`` state, never source-queue occupancy, and consume
        no randomness, so drawing for the whole batch, then deciding the
        whole batch, then injecting it is bit-identical to interleaving
        draw/decide/inject per packet.
        """
        with DrawStream(self.rng, chunk=max(64, 8 * len(packets))) as draws:
            self._route(packets, draws)

    def _route(self, packets: Sequence[Packet], draws) -> None:
        strategy = self.strategy
        params = self.network.params
        extra_min = extra_vlb = 0
        if strategy.multi_candidate:
            extra_min = params.min_candidates - 1
            extra_vlb = params.vlb_candidates - 1
        draws_vlb = strategy.draws_vlb
        switch_of = self._switch_of
        pick_min = self.pick_min
        pick_vlb = self.pick_vlb
        picks: List[Pick] = []
        no_extras: Sequence[Candidate] = ()
        for packet in packets:
            src_sw = switch_of[packet.src_node]
            dst_sw = switch_of[packet.dst_node]
            if src_sw == dst_sw:
                self._apply(packet, self._same_switch, False)
                continue
            min_pick = pick_min(src_sw, dst_sw, draws)
            vlb_pick = pick_vlb(src_sw, dst_sw, draws) if draws_vlb else None
            more_min = more_vlb = no_extras
            if vlb_pick is not None and (extra_min or extra_vlb):
                # the original UGAL allows "a small number" of candidates
                # of each kind; pairs without a VLB path draw no extras
                more_min = [
                    pick_min(src_sw, dst_sw, draws) for _ in range(extra_min)
                ]
                maybe = [
                    pick_vlb(src_sw, dst_sw, draws) for _ in range(extra_vlb)
                ]
                more_vlb = [c for c in maybe if c is not None]
            picks.append((packet, min_pick, vlb_pick, more_min, more_vlb))
        if picks:
            strategy.decide(self, picks)

    def revise_at(self, packet: Packet, router_idx: int) -> None:
        """Mid-route revision hook (PAR's second-hop re-decision).

        Called by the network when a revisable packet reaches the second
        switch of its source group; non-revising strategies ignore it.
        """
        packet.revisable = False
        self.strategy.revise(self, packet, router_idx)

    # ------------------------------------------------------------------
    # The packet lane: trace events, or one Bernoulli draw per node
    # ------------------------------------------------------------------
    def traffic(
        self,
        load: float,
        max_source_queue: int,
        pattern: TrafficPattern,
    ) -> None:
        """What :meth:`run` injects: ``pattern``'s events when it is a
        scheduled trace, else each node with probability ``load`` per
        cycle to ``pattern``'s ``sample_destinations`` -- unless its
        source queue already holds ``max_source_queue`` packets."""
        self.load = load
        self.max_source_queue = max_source_queue
        self.pattern = pattern

    def run(self, until: int) -> None:
        """Run the network to cycle ``until``, cycle by cycle: generate,
        route and queue the cycle's packets (:meth:`inject`), then
        ``step``.  PAR's arrival hook is attached only meanwhile, so no
        network <-> routing reference cycle outlives the call."""
        net = self.network
        net.on_arrival = self.revise_at
        try:
            for cycle in range(net.cycle, until):
                self.inject(cycle)
                net.step()
        finally:
            net.on_arrival = None

    def inject(self, cycle: int) -> None:
        """Generate, route and queue the packets of ``cycle``, packet by
        packet (the reference of the kernel loop's injection phases)."""
        pattern = self.pattern
        if getattr(pattern, "scheduled", False):
            self._inject_scheduled(cycle)
        elif self.load > 0.0:
            rng = self.rng
            nodes = self.topo.num_nodes
            srcs = np.flatnonzero(rng.random(nodes) < self.load)
            if srcs.size:
                dests = pattern.sample_destinations(srcs, rng)
                self._inject_routed(cycle, srcs, dests)

    def _inject_scheduled(self, cycle: int) -> None:
        net = self.network
        cap = self.max_source_queue
        for src, dst in self.pattern.injections_at(cycle):
            if src == dst:
                continue
            if net.source_queue_len(src) >= cap:
                self.stalled += 1
                continue
            packet = Packet(src, int(dst), cycle)
            self.route_packet(packet)
            net.inject(packet)
            self.injected += 1

    def _inject_routed(self, cycle: int, srcs: np.ndarray, dests) -> None:
        """Create, route all, then inject all.

        Routing reads only channel load_metric state (never source
        queues), each node draws at most one packet per cycle, and
        route_packets preserves sequence order, so this is bit-identical
        to a per-packet route/inject interleave.
        """
        net = self.network
        cap = self.max_source_queue
        batch = []
        for src, dst in zip(srcs.tolist(), dests.tolist()):
            if dst == NO_TRAFFIC:
                continue
            if net.source_queue_len(src) >= cap:
                self.stalled += 1
                continue
            batch.append(Packet(src, int(dst), cycle))
        if batch:
            self.injected += len(batch)
            self.route_packets(batch)
            for packet in batch:
                net.inject(packet)

    def counts(self) -> Dict[str, int]:
        """What the injection did, by metric name."""
        return {
            "engine.packets_injected": self.injected,
            "engine.inject_stalls": self.stalled,
        }

    # ------------------------------------------------------------------
    def _apply(
        self, packet: Packet, entry: Candidate, used_vlb: bool
    ) -> None:
        packet.route = entry.route
        packet.vcs = entry.vcs
        packet.path_hops = entry.hops
        packet.used_vlb = used_vlb
        if used_vlb:
            self.vlb_chosen += 1
        else:
            self.min_chosen += 1


def make_routing(
    network: Network,
    variant: str,
    policy: Optional[PathPolicy] = None,
    rng: Optional[np.random.Generator] = None,
) -> RoutingAlgorithm:
    """Factory accepting both plain and ``t-`` prefixed variant names.

    T- prefixes are validated against the registry: only variants that
    accept a custom policy have a T- form, and a T- form without a policy
    is an error (the same error the CLI and ``RunSpec`` raise).
    """
    from repro.spec.builtins import resolve_routing

    base, _custom = resolve_routing(variant, has_policy=policy is not None)
    return RoutingAlgorithm(network, base, policy=policy, rng=rng)
