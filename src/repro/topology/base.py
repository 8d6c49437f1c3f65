"""The structural ``Topology`` protocol every registered topology satisfies.

The rest of the package -- path enumeration (:mod:`repro.routing`), the LP
model (:mod:`repro.model`), the simulator (:mod:`repro.sim`), static
verification (:mod:`repro.verify`) and Algorithm 1 (:mod:`repro.core`) --
talks to topologies exclusively through this surface: flat switch/node
identifiers, group structure, the ``local_*`` intra-group hooks, the global
link tables, and the four *policy hooks* that make Algorithm 1
topology-custom (candidate grid, deadlock-certification VC scheme,
baseline policy, adversarial suite).

:class:`~repro.topology.dragonfly.Dragonfly` is the canonical
implementation; :class:`~repro.topology.cascade.CascadeDragonfly` varies
the intra-group structure and :class:`~repro.topology.fullmesh.FullMesh`
degenerates the group to a single switch.  New topologies subclass one of
these (or implement the protocol directly) and register a codec entry in
``repro.spec``'s ``TOPOLOGY_REGISTRY`` -- see ``docs/topologies.md``.

The protocol is structural (:class:`typing.Protocol`): no inheritance
relationship is required, so this module stays import-cycle-free.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.pathset import PathPolicy
    from repro.topology.dragonfly import GlobalLink
    from repro.traffic.patterns import TrafficPattern

__all__ = ["Topology"]


@runtime_checkable
class Topology(Protocol):
    """What every layer of the package may assume about a topology."""

    # --- parameters (the ``dfly`` vocabulary all layers share) ---
    p: int  # terminals per switch
    a: int  # switches per group
    h: int  # global ports per switch
    g: int  # number of groups
    arrangement: str
    global_links: List["GlobalLink"]

    # --- sizes and identifiers ---
    @property
    def num_groups(self) -> int: ...

    @property
    def num_switches(self) -> int: ...

    @property
    def num_nodes(self) -> int: ...

    @property
    def links_per_group_pair(self) -> int: ...

    @property
    def max_local_hops(self) -> int: ...

    def group_of(self, switch: int) -> int: ...

    def local_index(self, switch: int) -> int: ...

    def switch_id(self, group: int, local: int) -> int: ...

    def switch_of_node(self, node: int) -> int: ...

    def node_id(self, switch: int, k: int) -> int: ...

    def switches_in_group(self, group: int) -> range: ...

    # --- connectivity ---
    def local_neighbors(self, switch: int) -> List[int]: ...

    def local_adjacent(self, u: int, v: int) -> bool: ...

    def local_route(self, u: int, v: int) -> List[int]: ...

    def local_hops(self, u: int, v: int) -> int: ...

    def links_between_groups(self, ga: int, gb: int) -> List["GlobalLink"]: ...

    def global_links_of_switch(self, switch: int) -> List["GlobalLink"]: ...

    def global_neighbors(self, switch: int) -> List[int]: ...

    def connected_groups(self, group: int) -> List[int]: ...

    # --- per-topology Algorithm-1 / verification hooks ---
    @property
    def deadlock_vc_scheme(self) -> Optional[str]: ...

    def tvlb_datapoints(
        self, step: float = 0.25, seed: int = 0
    ) -> List["PathPolicy"]: ...

    def baseline_policy(self) -> Optional["PathPolicy"]: ...

    def adversary_suite(
        self, *, num_type2: int = 20, seed: int = 0
    ) -> Tuple[List["TrafficPattern"], List["TrafficPattern"]]: ...

    # --- reporting ---
    def describe(self) -> Dict[str, int]: ...
