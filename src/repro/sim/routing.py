"""Routing decision state: candidate rows, caches, queue estimates.

The T- variants (T-UGAL-L, T-UGAL-G, T-PAR) are the same decision
procedures with a restricted VLB :class:`~repro.routing.pathset.PathPolicy`
-- exactly the paper's framing: "T-UGAL only changes the set of candidate
paths for UGAL".

:class:`RoutingAlgorithm` owns everything a decision *uses* -- per-pair
MIN/VLB candidate caches, the rng, queue-state reads, decision counters
-- while each variant's decision *procedure* (how MIN, VLB, UGAL-L,
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
``revise_at``) is the definition.  Where the five built-in strategies
meet a policy whose membership test exists as data,
:meth:`RoutingAlgorithm.compile` moves the same procedure -- same draws,
same order, same candidate cache -- into the native kernel
(:class:`~repro.sim.array.lane.RouteLane`), where
:class:`~repro.sim.engine.Run` drives it whole windows at a time
(``advance``); ``route_nodes`` / ``revise_arrivals`` are the one-cycle
forms of the same calls.  See "Route tables and draw order" and "The run
loop" in ``docs/simulator.md``.
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
    Tuple,
    Union,
)

import numpy as np

from repro.routing.pathset import AllVlbPolicy, PathPolicy, policy_program
from repro.routing.table import route_table
from repro.sim.array.lane import RouteLane
from repro.sim.array.native import RC_MIN, RC_REVISED, RC_VLB, RK_PAR
from repro.sim.draws import DrawStream
from repro.sim.network import Network, SimChannel
from repro.sim.packet import Packet
from repro.sim.strategies import (
    MinimalStrategy,
    ParStrategy,
    UgalGlobalStrategy,
    UgalLocalStrategy,
    ValiantStrategy,
)

__all__ = [
    "Candidate",
    "Pick",
    "RoutingAlgorithm",
    "ROUTING_VARIANTS",
    "make_routing",
]

ROUTING_VARIANTS = ("min", "vlb", "ugal-l", "ugal-g", "par")

# the decision procedures kernel.c implements (its RK_* ids), by exact
# type: a subclass with its own cost or revision rule stays in Python
_KERNEL_STRATEGIES = {
    MinimalStrategy: 0,
    ValiantStrategy: 1,
    UgalLocalStrategy: 2,
    UgalGlobalStrategy: 3,
    ParStrategy: RK_PAR,
}


class Candidate(NamedTuple):
    """A prepared route: the table's integer row plus this network's
    view of it.  ``route`` and ``vcs`` are shared between all packets
    that take the candidate and are never mutated."""

    hops: int
    chans: Tuple[int, ...]  # channel indices (table order == network order)
    shape: str  # 'l'/'g' per hop; keys the VC ladders
    route: List[SimChannel]
    vcs: List[int]
    ref: int  # Network.route_handle of (chans, vcs)


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


class _NoVlbPath:
    """Typed cache sentinel: a pair with no VLB path under the policy."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<no VLB path>"


_NO_VLB_PATH = _NoVlbPath()


class RoutingAlgorithm:
    """Per-packet route selection bound to a network and a VLB policy."""

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
        self._same_switch = Candidate(0, (), "", [], [], 0)
        # per-pair MIN candidates, keyed src * num_switches + dst
        self._min_cache: Dict[int, List[Candidate]] = {}
        # per-pair VLB candidate cache; once `_vlb_cache_cap` candidates
        # were drawn for a pair, further draws reuse them uniformly;
        # _NO_VLB_PATH marks pairs the policy cannot serve
        self._vlb_cache: Dict[int, Union[List[Candidate], _NoVlbPath]] = {}
        self._vlb_cache_cap = network.params.vlb_cache_per_pair
        # PAR-revised (route, vcs, handle) by channel-index row, so equal
        # revisions share one route object and one network handle
        self._revised: Dict[
            Tuple[int, ...], Tuple[List[SimChannel], List[int], int]
        ] = {}
        # kernel-side decisions, once compile() succeeded
        self.lane: Optional[RouteLane] = None

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    @cached_property
    def _channels(self) -> List[SimChannel]:
        """Table channel index -> this network's channel object, for
        the per-packet procedure (networks lay their channels out in the
        table's order, so the table's indices double as rows of the
        engine's load snapshot)."""
        channels = self.network.channels
        return [channels[key] for key in self.table.channel_keys]

    @cached_property
    def _switch_of(self) -> List[int]:
        """Node -> its switch, for the per-packet procedure."""
        topo = self.topo
        return [topo.switch_of_node(n) for n in range(topo.num_nodes)]

    def _candidate(self, chans: Tuple[int, ...], shape: str) -> Candidate:
        channels = self._channels
        vcs = self._ladders[shape]
        return Candidate(
            len(chans),
            chans,
            shape,
            [channels[c] for c in chans],
            vcs,
            self.network.route_handle(chans, vcs),
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
        """One random VLB candidate, ``None`` if the policy offers none.

        Uses the per-pair candidate cache: the first ``_vlb_cache_cap``
        draws are genuine uniform samples from the policy (and are
        memoized in draw order); later draws reuse them uniformly.
        """
        key = src_sw * self._nsw + dst_sw
        cache = self._vlb_cache.get(key)
        if isinstance(cache, _NoVlbPath):
            return None  # pair has no VLB path under this policy
        if cache is None:
            cache = self._vlb_cache[key] = []
        cap = self._vlb_cache_cap
        if cap <= 0 or len(cache) < cap:
            desc = self.policy.sample(self.topo, src_sw, dst_sw, draws)
            if desc is None:
                if not cache:
                    self._vlb_cache[key] = _NO_VLB_PATH
                    return None
                return cache[draws.integers(len(cache))]
            first, second = self.table.vlb_legs(src_sw, dst_sw, desc)
            entry = self._candidate(
                first.chans + second.chans, first.shape + second.shape
            )
            if cap > 0:
                cache.append(entry)
            return entry
        return cache[draws.integers(len(cache))]

    def revised_route(
        self, packet: Packet, vlb: Candidate
    ) -> Tuple[List[SimChannel], List[int], int]:
        """(route, vcs, handle) of ``packet`` re-routed over ``vlb`` from
        its current hop, on the next VC level; interned per distinct
        row."""
        hop = packet.hop
        chans = tuple([ch.index for ch in packet.route[:hop]]) + vlb.chans
        return self._revised_entry(chans, packet.vcs[:hop], vlb.shape)

    def _revised_entry(
        self, chans: Tuple[int, ...], taken_vcs: List[int], shape: str
    ) -> Tuple[List[SimChannel], List[int], int]:
        """The interned revised route over channel row ``chans``: the
        hops taken so far keep ``taken_vcs``, the VLB fragment of
        ``shape`` rides PAR's revised ladder from there."""
        entry = self._revised.get(chans)
        if entry is None:
            ladders = self.table.ladders(
                self.vc_scheme,
                self.num_vcs,
                revised=True,
                hop_offset=len(taken_vcs),
            )
            vcs = taken_vcs + ladders[shape]
            channels = self._channels
            entry = self._revised[chans] = (
                [channels[c] for c in chans],
                vcs,
                self.network.route_handle(chans, vcs),
            )
        return entry

    # ------------------------------------------------------------------
    # Queue estimates
    # ------------------------------------------------------------------
    def load_reader(self, decisions: int) -> Callable[[int], int]:
        """``channel index -> load_metric`` for one batch of decisions.

        Channel state does not change while a batch is being routed, so
        when the batch is large enough to pay for it the loads of all
        channels are read from the engine's arrays at once; otherwise
        (and on engines without such arrays) each read asks the channel.
        """
        channels = self._channels
        if decisions >= 8 + len(channels) // 64:
            loads = self.network.load_snapshot()
            if loads is not None:
                return loads.__getitem__
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
        (and the VLB candidate-cache mutations they cause) happen in
        exactly the order a per-packet loop would produce, and the
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
    # The same decisions as kernel calls (array-level entries)
    # ------------------------------------------------------------------
    def compile(self) -> bool:
        """Move this algorithm's decisions into the routing kernel.

        True when ``advance`` / ``route_nodes`` / ``revise_arrivals``
        are available from here on: the network runs natively, the
        strategy is one of
        the five the kernel implements, and the policy's membership test
        exists as data (:func:`~repro.routing.pathset.policy_program`).
        Building the lane composes the topology's flattened tables
        (milliseconds, once per topology and process).
        """
        if self.lane is not None:
            return True
        kind = _KERNEL_STRATEGIES.get(type(self.strategy))
        if kind is None or self.network.backend != "native":
            return False
        program = policy_program(self.policy, self.table)
        if program is None:
            return False
        try:
            image = self.table.min_image(self.vc_scheme, self.num_vcs)
        except ValueError:
            # too few VCs for a MIN path: the per-packet procedure
            # raises that where it always did
            return False
        self.lane = RouteLane(
            self.network, self.table, image, self.policy, program, kind,
            self.rng,
        )
        return True

    def _compiled(self) -> RouteLane:
        if self.lane is None:
            raise RuntimeError(
                "advance / route_nodes / revise_arrivals need a "
                "successful compile()"
            )
        return self.lane

    def _absorb(self) -> None:
        """Move the kernel's decision counts since the last call into
        ``min_chosen`` / ``vlb_chosen`` / ``par_revised``."""
        cnt = self._compiled().ctx.cnt
        self.min_chosen += cnt[RC_MIN]
        self.vlb_chosen += cnt[RC_VLB]
        self.par_revised += cnt[RC_REVISED]
        cnt[RC_MIN] = cnt[RC_VLB] = cnt[RC_REVISED] = 0

    def advance(self, until: int) -> None:
        """Run the network to cycle ``until`` in the kernel: each cycle's
        injection (the traffic given to ``lane.traffic``), decisions,
        queueing, PAR revisions and step.  Needs :meth:`compile`.  Draws,
        candidate-cache updates and the generator's end state are those
        of the per-packet procedure driven cycle by cycle."""
        self._compiled().run(until)
        self._absorb()

    def route_nodes(
        self, cycle: int, srcs: np.ndarray, dests: np.ndarray
    ) -> np.ndarray:
        """``route_packets`` over arrays: one cycle's (source node,
        destination node) pairs in, their injection records
        (``kernel.c`` ``SE_*`` columns, for ``inject_batch``) out.
        The one-cycle form of :meth:`advance`'s decisions."""
        records = self._compiled().route(cycle, srcs, dests)
        self._absorb()
        return records

    def revise_arrivals(self, bucket: int) -> None:
        """``revise_at`` for every revisable hop-1 arrival of one
        delivery bucket, in delivery order, re-routing in the network's
        arrays (its ``on_arrival_batch`` hook).  The one-cycle form of
        :meth:`advance`'s revisions."""
        self._compiled().revise(bucket)
        self._absorb()

    # ------------------------------------------------------------------
    def _apply(
        self, packet: Packet, entry: Candidate, used_vlb: bool
    ) -> None:
        packet.route = entry.route
        packet.vcs = entry.vcs
        packet.route_ref = entry.ref
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
