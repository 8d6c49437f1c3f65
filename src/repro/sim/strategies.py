"""Routing decision strategies: the variant-specific half of UGAL routing.

:class:`~repro.sim.routing.RoutingAlgorithm` owns the state a decision
needs -- candidate rows, queue-state reads, decision counters -- and
draws every packet's MIN/VLB candidates; the *decision procedure* of each
variant (MIN, VLB, UGAL-L, UGAL-G, PAR) lives here as a registered
strategy object that decides a whole batch of drawn picks at once.
Adding a routing variant means registering a new strategy in
``ROUTING_REGISTRY`` (see :mod:`repro.spec.builtins`), not editing branch
chains in the algorithm.

The class attributes ``draws_vlb`` / ``multi_candidate`` tell the
algorithm which candidates to draw, in the order the original monolithic
implementation drew them, so same-seed simulations are bit-identical to
the pre-split code (its values are the ``PINNED`` entries of
``tests/test_routing_parity_matrix.py``).  The five strategies here are
also implemented, draw for draw, by the routing kernel
(``route_span`` / ``revise_span`` in
``sim/array/kernel.c``); the classes below are the definition the kernel
is tested against, and a subclass that changes a rule is routed by its
Python.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.packet import Packet
    from repro.sim.routing import Candidate, Pick, RoutingAlgorithm

__all__ = [
    "MinimalStrategy",
    "ParStrategy",
    "RoutingStrategy",
    "UgalGlobalStrategy",
    "UgalLocalStrategy",
    "ValiantStrategy",
]


class RoutingStrategy:
    """Per-variant route selection; stateless, shared across algorithms."""

    name: str = ""
    # does a decision need a VLB candidate at all?
    draws_vlb: bool = True
    # does it honour SimParams.min_candidates / vlb_candidates?
    multi_candidate: bool = False

    def decide(
        self, algo: "RoutingAlgorithm", picks: Sequence["Pick"]
    ) -> None:
        """Choose a route for every drawn pick (packets at their source
        switches, source != destination switch), in order."""
        raise NotImplementedError

    def revise(
        self, algo: "RoutingAlgorithm", packet: "Packet", router_idx: int
    ) -> None:
        """Mid-route revision hook (PAR only); default is a no-op."""
        return None


class MinimalStrategy(RoutingStrategy):
    """Always a random MIN path."""

    name = "min"
    draws_vlb = False

    def decide(
        self, algo: "RoutingAlgorithm", picks: Sequence["Pick"]
    ) -> None:
        for packet, min_pick, _vlb, _more_min, _more_vlb in picks:
            algo._apply(packet, min_pick, False)


class ValiantStrategy(RoutingStrategy):
    """Always a random VLB path (falling back to MIN when the policy
    offers none for the pair)."""

    name = "vlb"

    def decide(
        self, algo: "RoutingAlgorithm", picks: Sequence["Pick"]
    ) -> None:
        # the MIN candidate is drawn first (same rng order as UGAL) and
        # used only as the no-VLB fallback
        for packet, min_pick, vlb_pick, _more_min, _more_vlb in picks:
            if vlb_pick is None:
                algo._apply(packet, min_pick, False)
            else:
                algo._apply(packet, vlb_pick, True)


class UgalStrategy(RoutingStrategy):
    """The common UGAL recipe: draw MIN and VLB candidates, estimate each
    path's delay from queue state, pick the smaller (MIN wins ties plus
    the threshold ``T``).  Subclasses choose the delay estimate."""

    multi_candidate = True

    def cost(self, load: Callable[[int], int], entry: "Candidate") -> int:
        """Estimated delay of a candidate path; ``load`` maps a channel
        index to its current ``load_metric``."""
        raise NotImplementedError

    def on_min_chosen(self, packet: "Packet", min_pick: "Candidate") -> None:
        """Hook invoked when the MIN candidate wins (PAR arms revision)."""
        return None

    def decide(
        self, algo: "RoutingAlgorithm", picks: Sequence["Pick"]
    ) -> None:
        load = algo.load_reader()
        cost = self.cost
        threshold = algo.threshold
        for packet, min_pick, vlb_pick, more_min, more_vlb in picks:
            if vlb_pick is None:
                algo._apply(packet, min_pick, False)
                continue
            # keep the cheapest candidate of each kind, first drawn
            # winning ties
            cost_min = cost(load, min_pick)
            for other in more_min:
                other_cost = cost(load, other)
                if other_cost < cost_min:
                    min_pick, cost_min = other, other_cost
            cost_vlb = cost(load, vlb_pick)
            for other in more_vlb:
                other_cost = cost(load, other)
                if other_cost < cost_vlb:
                    vlb_pick, cost_vlb = other, other_cost
            if cost_min <= cost_vlb + threshold:
                algo._apply(packet, min_pick, False)
                self.on_min_chosen(packet, min_pick)
            else:
                algo._apply(packet, vlb_pick, True)


class UgalLocalStrategy(UgalStrategy):
    """UGAL-L: delay = (local queue of the first channel) x (path length)."""

    name = "ugal-l"

    def cost(self, load: Callable[[int], int], entry: "Candidate") -> int:
        return load(entry.chans[0]) * entry.hops


class UgalGlobalStrategy(UgalStrategy):
    """UGAL-G: delay = total queue along the whole path (idealized)."""

    name = "ugal-g"

    def cost(self, load: Callable[[int], int], entry: "Candidate") -> int:
        return sum(map(load, entry.chans))


class ParStrategy(UgalLocalStrategy):
    """PAR: UGAL-L at the source, with one possible revision at the second
    switch of the source group (one extra VC level absorbs the hop)."""

    name = "par"

    def on_min_chosen(self, packet: "Packet", min_pick: "Candidate") -> None:
        if min_pick.hops >= 2 and min_pick.shape[0] == "l":
            packet.revisable = True

    def revise(
        self, algo: "RoutingAlgorithm", packet: "Packet", router_idx: int
    ) -> None:
        """Re-decide MIN-vs-VLB from ``router_idx``.

        The remaining MIN route competes with a fresh VLB path from here;
        if VLB wins, the remaining route is rewritten using the next VC
        level.  One packet per call, so draws stay scalar.
        """
        dst_sw = algo.topo.switch_of_node(packet.dst_node)
        if router_idx == dst_sw:
            return
        vlb = algo.pick_vlb(router_idx, dst_sw, algo.rng)
        if vlb is None:
            return
        hop = packet.hop
        remaining_hops = len(packet.route) - hop
        cost_min = (
            packet.route[hop].load_metric() * remaining_hops
            if remaining_hops
            else 0
        )
        cost_vlb = vlb.route[0].load_metric() * vlb.hops
        if cost_vlb + algo.threshold < cost_min:
            packet.route, packet.vcs = algo.revised_route(packet, vlb)
            packet.path_hops = hop + vlb.hops
            packet.used_vlb = True
            algo.par_revised += 1
