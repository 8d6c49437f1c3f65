"""The dragonfly topology ``dfly(p, a, h, g)``.

Follows the paper's notation:

* ``p`` -- compute nodes (terminals) per switch,
* ``a`` -- switches per group (fully connected intra-group),
* ``h`` -- global ports per switch,
* ``g`` -- number of groups, ``2 <= g <= a*h + 1``.

Identifiers are flat integers:

* switch id  ``sw = group * a + local_index``  (``0 .. g*a - 1``)
* node id    ``n  = sw * p + k``               (``0 .. g*a*p - 1``)

The balanced, maximum-size dragonfly of Kim et al. is recovered with
``a = 2p = 2h`` and ``g = a*h + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.topology.arrangements import ARRANGEMENTS, GlobalLinkSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

    from repro.routing.pathset import PathPolicy
    from repro.traffic.patterns import TrafficPattern

__all__ = ["Dragonfly", "GlobalLink"]


@dataclass(frozen=True)
class GlobalLink:
    """One bidirectional global link between two switches.

    ``slot`` is the link's index among the links connecting the same ordered
    group pair (0-based); it is the ``r`` used by VLB path descriptors.
    """

    switch_a: int
    switch_b: int
    group_a: int
    group_b: int
    slot: int

    def endpoint_in(self, group: int) -> int:
        """Return the endpoint switch that lies in ``group``."""
        if group == self.group_a:
            return self.switch_a
        if group == self.group_b:
            return self.switch_b
        raise ValueError(f"link {self} does not touch group {group}")

    def other_end(self, switch: int) -> int:
        """Return the endpoint opposite to ``switch``."""
        if switch == self.switch_a:
            return self.switch_b
        if switch == self.switch_b:
            return self.switch_a
        raise ValueError(f"switch {switch} is not an endpoint of {self}")


@dataclass
class Dragonfly:
    """A ``dfly(p, a, h, g)`` topology with a chosen global arrangement.

    The constructor materializes the global link tables; intra-group links
    are implicit (complete graph) and queried through helpers.
    """

    p: int
    a: int
    h: int
    g: int
    arrangement: str = "absolute"

    # Derived tables, built in __post_init__.
    global_links: List[GlobalLink] = field(init=False, repr=False)
    _pair_links: Dict[Tuple[int, int], List[GlobalLink]] = field(
        init=False, repr=False
    )
    _switch_links: List[List[GlobalLink]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if min(self.p, self.a, self.h, self.g) < 1:
            raise ValueError("p, a, h, g must all be positive")
        if self.g > self.a * self.h + 1:
            raise ValueError(
                f"g={self.g} exceeds the maximum {self.a * self.h + 1} groups "
                f"supported by a*h={self.a * self.h} global ports per group"
            )
        try:
            arrange = ARRANGEMENTS[self.arrangement]
        except KeyError:
            raise ValueError(
                f"unknown arrangement {self.arrangement!r}; "
                f"choose from {sorted(ARRANGEMENTS)}"
            ) from None

        specs: List[GlobalLinkSpec] = (
            arrange(self.a, self.h, self.g) if self.g > 1 else []
        )
        links: List[GlobalLink] = []
        pair_links: Dict[Tuple[int, int], List[GlobalLink]] = {}
        switch_links: List[List[GlobalLink]] = [
            [] for _ in range(self.num_switches)
        ]
        slot_counter: Dict[Tuple[int, int], int] = {}
        for spec in specs:
            gi, qi, gj, qj = spec
            sa = gi * self.a + qi // self.h
            sb = gj * self.a + qj // self.h
            key = (gi, gj)
            slot = slot_counter.get(key, 0)
            slot_counter[key] = slot + 1
            link = GlobalLink(sa, sb, gi, gj, slot)
            links.append(link)
            pair_links.setdefault(key, []).append(link)
            switch_links[sa].append(link)
            switch_links[sb].append(link)

        object.__setattr__(self, "global_links", links)
        object.__setattr__(self, "_pair_links", pair_links)
        object.__setattr__(self, "_switch_links", switch_links)

    # ------------------------------------------------------------------
    # Sizes and identifiers
    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return self.g

    @property
    def num_switches(self) -> int:
        return self.g * self.a

    @property
    def num_nodes(self) -> int:
        return self.g * self.a * self.p

    @property
    def local_degree(self) -> int:
        """Intra-group links per switch (``a-1``: fully connected)."""
        return self.a - 1

    @property
    def radix(self) -> int:
        """Ports per switch: ``p`` terminal + local + ``h`` global."""
        return self.p + self.local_degree + self.h

    @property
    def links_per_group_pair(self) -> int:
        """Global links between each pair of groups (uniform by design)."""
        if self.g <= 1:
            return 0
        return (self.a * self.h) // (self.g - 1)

    def group_of(self, switch: int) -> int:
        return switch // self.a

    def local_index(self, switch: int) -> int:
        return switch % self.a

    def switch_id(self, group: int, local: int) -> int:
        return group * self.a + local

    def switch_of_node(self, node: int) -> int:
        return node // self.p

    def node_id(self, switch: int, k: int) -> int:
        return switch * self.p + k

    def nodes_of_switch(self, switch: int) -> range:
        return range(switch * self.p, (switch + 1) * self.p)

    def switches_in_group(self, group: int) -> range:
        return range(group * self.a, (group + 1) * self.a)

    # ------------------------------------------------------------------
    # Connectivity queries
    # ------------------------------------------------------------------
    def local_neighbors(self, switch: int) -> List[int]:
        """All other switches in the same group (complete intra-group graph)."""
        group = self.group_of(switch)
        return [s for s in self.switches_in_group(group) if s != switch]

    def local_adjacent(self, u: int, v: int) -> bool:
        """Is there a direct intra-group link between ``u`` and ``v``?"""
        return u != v and self.group_of(u) == self.group_of(v)

    def local_route(self, u: int, v: int) -> List[int]:
        """Intermediate switches on the canonical intra-group route.

        Empty for a fully connected group (direct link); subclasses with a
        sparser intra-group topology (e.g. the Cascade 2D all-to-all)
        return the dimension-ordered intermediates.
        """
        if self.group_of(u) != self.group_of(v):
            raise ValueError(f"{u} and {v} are not in the same group")
        return []

    def local_hops(self, u: int, v: int) -> int:
        """Intra-group hop count between two switches of one group."""
        if u == v:
            return 0
        return len(self.local_route(u, v)) + 1

    @property
    def max_local_hops(self) -> int:
        """Worst-case intra-group distance (1 for fully connected)."""
        return 1

    def links_between_groups(self, ga: int, gb: int) -> List[GlobalLink]:
        """Global links between two distinct groups, in slot order."""
        if ga == gb:
            raise ValueError("a group has no global links to itself")
        key = (ga, gb) if ga < gb else (gb, ga)
        return self._pair_links.get(key, [])

    def global_links_of_switch(self, switch: int) -> List[GlobalLink]:
        """Global links with ``switch`` as one endpoint."""
        return self._switch_links[switch]

    def global_neighbors(self, switch: int) -> List[int]:
        """Peer switches across this switch's global links."""
        return [ln.other_end(switch) for ln in self._switch_links[switch]]

    def connected_groups(self, group: int) -> List[int]:
        """Groups reachable from ``group`` via a direct global link."""
        return [
            other
            for other in range(self.g)
            if other != group and self.links_between_groups(group, other)
        ]

    # ------------------------------------------------------------------
    # Per-topology Algorithm-1 / verification hooks (Topology protocol)
    # ------------------------------------------------------------------
    @property
    def deadlock_vc_scheme(self) -> Optional[str]:
        """VC scheme whose CDG analysis certifies this topology's path
        sets deadlock-free, or ``None`` to certify under the simulation
        VC scheme.  Dragonfly path sets rely on the Won et al. / per-hop
        VC ladders, so the simulation scheme is the right certificate.
        """
        return None

    def tvlb_datapoints(
        self, step: float = 0.25, seed: int = 0
    ) -> List["PathPolicy"]:
        """Algorithm 1's Step-1 candidate grid for this topology.

        Dragonflies sweep the paper's Table-1 hop-class grid; topologies
        with a different path-length structure override this with their
        own candidate family.
        """
        # lazy import: repro.core sits above the topology layer
        from repro.core.datapoints import table1_datapoints

        return list(table1_datapoints(step=step, seed=seed))

    def baseline_policy(self) -> Optional["PathPolicy"]:
        """The conventional-routing candidate Algorithm 1 always scores
        alongside the restricted sets (``None`` = no extra baseline --
        the grid's largest set already is the conventional one)."""
        # lazy import: repro.routing sits above the topology layer
        from repro.routing.pathset import AllVlbPolicy

        return AllVlbPolicy()

    def adversary_suite(
        self, *, num_type2: int = 20, seed: int = 0
    ) -> Tuple[List["TrafficPattern"], List["TrafficPattern"]]:
        """The adversarial pattern suites Algorithm 1 trains against.

        Dragonflies use the paper's Section-3.3.1 suites verbatim: every
        combined group/switch shift (TYPE_1) and ``num_type2`` seeded
        group+switch permutations (TYPE_2).  Topologies with a different
        worst-case structure override this with their own suites;
        ``repro.adversary`` *searches* beyond whatever this hook returns.
        """
        # lazy import: repro.traffic sits above the topology layer
        from repro.traffic.adversarial import type_1_set, type_2_set

        return (
            list(type_1_set(self)),
            list(type_2_set(self, count=num_type2, seed=seed)),
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.Graph:
        """Switch-level graph with ``kind`` edge attributes (local/global)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_switches))
        for u in range(self.num_switches):
            for v in self.local_neighbors(u):
                if u < v:
                    graph.add_edge(u, v, kind="local")
        # parallel global links collapse to one edge with a multiplicity
        for link in self.global_links:
            u, v = link.switch_a, link.switch_b
            if graph.has_edge(u, v) and graph[u][v].get("kind") == "global":
                graph[u][v]["multiplicity"] += 1
            else:
                graph.add_edge(u, v, kind="global", multiplicity=1)
        return graph

    def describe(self) -> Dict[str, int]:
        """Table-2 style summary row for this topology."""
        return {
            "PEs": self.num_nodes,
            "switches": self.num_switches,
            "groups": self.num_groups,
            "links_per_group_pair": self.links_per_group_pair,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"dfly(p={self.p}, a={self.a}, h={self.h}, g={self.g})"
