"""Core traffic pattern classes.

Patterns are bound to a topology at construction.  The two consumer-facing
methods are:

* :meth:`TrafficPattern.sample_destinations` -- vectorized per-packet
  destination draw for a batch of source nodes (simulator hot path);
* :meth:`TrafficPattern.demand_matrix` -- expected switch-to-switch traffic
  per unit node injection rate (LP model input).

A pattern whose ``sample_destinations`` is a fixed map, uniform draws, or
a mix of the two also says so as data
(:meth:`TrafficPattern.destination_program`), which lets the simulator's
cycle loop draw its destinations inside the native kernel.
"""

from __future__ import annotations

import abc
import hashlib
from typing import NamedTuple, Optional

import numpy as np
from numpy.typing import ArrayLike

from repro.topology.base import Topology

__all__ = [
    "NO_TRAFFIC",
    "DestinationProgram",
    "TrafficPattern",
    "destination_program",
    "UniformRandom",
    "Shift",
    "RandomPermutation",
    "GroupSwitchPermutation",
    "DiscoveredPermutation",
    "permutation_matrix",
]

NO_TRAFFIC = -1  # destination sentinel: the node does not inject


def permutation_matrix(topo: Topology, dest: np.ndarray) -> np.ndarray:
    """Switch-level demand matrix of a fixed node->node destination map.

    ``D[s, d]`` is the number of nodes on switch ``s`` whose destination
    lives on switch ``d``, per unit injection rate.  :data:`NO_TRAFFIC`
    entries and fixed points (a node mapped to itself) contribute
    nothing -- the single audited implementation of that rule, shared by
    every fixed pattern and by the ``repro.adversary`` search core.
    """
    n_sw = topo.num_switches
    demand = np.zeros((n_sw, n_sw))
    for node, dst in enumerate(dest):
        if dst == NO_TRAFFIC or dst == node:
            continue
        demand[topo.switch_of_node(node), topo.switch_of_node(int(dst))] += 1.0
    return demand


class DestinationProgram(NamedTuple):
    """``sample_destinations`` as data, draw for draw.

    For source nodes ``srcs`` (ascending) the destinations are
    ``fixed[srcs]`` (:data:`NO_TRAFFIC` everywhere when ``fixed`` is
    ``None``); then one ``rng.random()`` coin per source, when
    ``ur_probability`` is not ``None``; then, for every source that
    ``ur_mask`` names or whose coin fell below ``ur_probability``, in
    order, a uniform draw among the *other* nodes
    (``d = rng.integers(0, n - 1)``, ``d + (d >= src)``).
    """

    fixed: Optional[np.ndarray] = None  # [num_nodes] node or NO_TRAFFIC
    ur_mask: Optional[np.ndarray] = None  # [num_nodes] bool
    ur_probability: Optional[float] = None


def destination_program(
    pattern: "TrafficPattern",
) -> Optional[DestinationProgram]:
    """``pattern``'s destination program, or ``None`` when its
    destinations only exist as Python.

    A program is trusted only if the class that supplies
    ``destination_program`` is also the one whose ``sample_destinations``
    the pattern actually runs: a subclass that overrides the sampler
    without describing it again is asked in Python, every cycle, instead
    of being silently replaced by its parent's program.
    """
    cls = type(pattern)
    owner = next(
        c for c in cls.__mro__ if "destination_program" in vars(c)
    )
    if cls.sample_destinations is not owner.sample_destinations:
        return None
    return pattern.destination_program()


class TrafficPattern(abc.ABC):
    """Destination distribution for every source compute node."""

    def __init__(self, topo: Topology) -> None:
        self.topo = topo

    @abc.abstractmethod
    def sample_destinations(
        self, srcs: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Destination node for each source node in ``srcs``.

        Entries may be :data:`NO_TRAFFIC` for nodes that never inject under
        this pattern (e.g. permutation fixed points).
        """

    @abc.abstractmethod
    def describe(self) -> str:
        """Short label used in reports (e.g. ``shift(2,0)``)."""

    def destination_program(self) -> Optional[DestinationProgram]:
        """:meth:`sample_destinations` as data for the simulator's
        native cycle loop, or ``None`` (the default) when it can only be
        asked in Python -- the loop then comes back for it every cycle,
        with the same results.

        Read through :func:`destination_program`, which also checks that
        the program still describes the class it is asked of.
        """
        return None

    def demand_matrix(self) -> np.ndarray:
        """Switch-to-switch expected packets/cycle at unit injection rate.

        ``D[s, d]`` is the mean number of packets per cycle from switch
        ``s`` to switch ``d`` when every node injects 1 packet/cycle.
        The default estimates it from the per-node destination law; fixed
        (deterministic) patterns override with the exact matrix.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define a demand matrix"
        )

    def live_fraction(self) -> float:
        """Fraction of nodes that ever inject (1.0 unless overridden)."""
        return 1.0


class _FixedPattern(TrafficPattern):
    """A pattern defined by a fixed node->node destination map."""

    def __init__(self, topo: Topology) -> None:
        super().__init__(topo)
        self._dest = self._build_dest_map()
        if self._dest.shape != (topo.num_nodes,):
            raise AssertionError("destination map has wrong shape")

    @abc.abstractmethod
    def _build_dest_map(self) -> np.ndarray:
        """Array mapping every node to its destination (or NO_TRAFFIC)."""

    @property
    def dest_map(self) -> np.ndarray:
        """The fixed node->destination array (read-only view)."""
        view = self._dest.view()
        view.flags.writeable = False
        return view

    def sample_destinations(self, srcs, rng):
        return self._dest[srcs]

    def destination_program(self) -> Optional[DestinationProgram]:
        return DestinationProgram(fixed=self._dest)

    def live_fraction(self) -> float:
        return float(np.mean(self._dest != NO_TRAFFIC))

    def demand_matrix(self) -> np.ndarray:
        return permutation_matrix(self.topo, self._dest)


class UniformRandom(TrafficPattern):
    """UR: each packet picks a destination uniformly among all other nodes."""

    def sample_destinations(self, srcs, rng):
        n = self.topo.num_nodes
        dests = rng.integers(0, n - 1, size=len(srcs))
        # shift up to skip the source itself (uniform over the other n-1)
        dests = dests + (dests >= srcs)
        return dests

    def destination_program(self) -> Optional[DestinationProgram]:
        n = self.topo.num_nodes
        if n < 2:
            return None  # nobody else to send to: the sampler raises
        return DestinationProgram(ur_mask=np.ones(n, dtype=bool))

    def demand_matrix(self) -> np.ndarray:
        topo = self.topo
        n_sw = topo.num_switches
        n = topo.num_nodes
        p = topo.p
        # p source nodes x p destination nodes, each with prob 1/(n-1)
        demand = np.full((n_sw, n_sw), p * p / (n - 1))
        # same-switch traffic never enters the network
        np.fill_diagonal(demand, 0.0)
        return demand

    def describe(self) -> str:
        return "UR"


class Shift(_FixedPattern):
    """``shift(dg, ds)``: node ``(g_i, s_j, n_k)`` sends to
    ``(g_{(i+dg) mod g}, s_{(j+ds) mod a}, n_k)`` (Section 3.3.1).

    ``shift(k, 0)`` is the paper's ADV pattern: all nodes of switch ``j``
    in each group send to the nodes of switch ``j`` in the group ``k``
    ahead, saturating the direct links between the two groups.
    """

    def __init__(self, topo: Topology, dg: int, ds: int = 0) -> None:
        if not (0 <= dg < topo.g and 0 <= ds < topo.a):
            raise ValueError(
                f"shift offsets ({dg},{ds}) out of range for g={topo.g}, "
                f"a={topo.a}"
            )
        self.dg = dg
        self.ds = ds
        super().__init__(topo)

    def _build_dest_map(self) -> np.ndarray:
        topo = self.topo
        nodes = np.arange(topo.num_nodes)
        k = nodes % topo.p
        sw = nodes // topo.p
        s = sw % topo.a
        g = sw // topo.a
        g2 = (g + self.dg) % topo.g
        s2 = (s + self.ds) % topo.a
        dest = (g2 * topo.a + s2) * topo.p + k
        dest[dest == nodes] = NO_TRAFFIC  # shift(0,0): self-send, no traffic
        return dest

    def describe(self) -> str:
        return f"shift({self.dg},{self.ds})"


class RandomPermutation(_FixedPattern):
    """A uniformly random node-level permutation (fixed per instance).

    Fixed points (a node mapped to itself) do not inject -- the paper's
    "each node sending to and receiving from at most one destination".
    """

    def __init__(self, topo: Topology, seed: int = 0) -> None:
        self.seed = seed
        super().__init__(topo)

    def _build_dest_map(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        dest = rng.permutation(self.topo.num_nodes)
        dest[dest == np.arange(self.topo.num_nodes)] = NO_TRAFFIC
        return dest

    def describe(self) -> str:
        return f"permutation(seed={self.seed})"


class GroupSwitchPermutation(_FixedPattern):
    """A TYPE_2 adversarial pattern (Section 3.3.1).

    A random *derangement* at the group level (every group sends to a
    different group, like the paper's example cycle ``0 -> 2 -> 1 -> 0``),
    then an independent random switch-level permutation for each
    group-level edge.  Node ``(g, s, k)`` maps to
    ``(perm_G(g), perm_g(s), k)``.
    """

    def __init__(self, topo: Topology, seed: int = 0) -> None:
        if topo.g < 2:
            raise ValueError("TYPE_2 patterns need at least 2 groups")
        self.seed = seed
        super().__init__(topo)

    @staticmethod
    def _derangement(n: int, rng: np.random.Generator) -> np.ndarray:
        """Random permutation of ``0..n-1`` with no fixed point."""
        if n == 2:
            return np.array([1, 0])
        while True:
            perm = rng.permutation(n)
            if not np.any(perm == np.arange(n)):
                return perm

    def _build_dest_map(self) -> np.ndarray:
        topo = self.topo
        rng = np.random.default_rng(self.seed)
        self.group_perm = self._derangement(topo.g, rng)
        self.switch_perms = {
            g: rng.permutation(topo.a) for g in range(topo.g)
        }
        nodes = np.arange(topo.num_nodes)
        k = nodes % topo.p
        sw = nodes // topo.p
        s = sw % topo.a
        g = sw // topo.a
        g2 = self.group_perm[g]
        s2 = np.empty_like(s)
        for grp in range(topo.g):
            mask = g == grp
            s2[mask] = self.switch_perms[grp][s[mask]]
        return (g2 * topo.a + s2) * topo.p + k

    def describe(self) -> str:
        return f"type2(seed={self.seed})"


class DiscoveredPermutation(_FixedPattern):
    """A fixed destination map found by ``repro.adversary`` search.

    Identity is the destination map itself -- not the strategy, seed, or
    budget that found it -- so two searches landing on the same map share
    one spec, one fingerprint, and one cache entry (provenance lives in
    the :class:`~repro.adversary.report.AdversaryReport` instead).  The
    map must be a *partial permutation*: every live destination distinct,
    in range, and not the source.  Self-sends are normalized to
    :data:`NO_TRAFFIC` at construction so equivalent maps canonicalize
    to the same spec.
    """

    def __init__(self, topo: Topology, dest: ArrayLike) -> None:
        arr = np.asarray(dest, dtype=np.int64).copy()
        if arr.shape != (topo.num_nodes,):
            raise ValueError(
                f"destination map has shape {arr.shape}, expected "
                f"({topo.num_nodes},)"
            )
        if np.any((arr < NO_TRAFFIC) | (arr >= topo.num_nodes)):
            raise ValueError(
                "destination entries must be NO_TRAFFIC or a node id in "
                f"[0, {topo.num_nodes})"
            )
        arr[arr == np.arange(topo.num_nodes)] = NO_TRAFFIC
        live = arr[arr != NO_TRAFFIC]
        if len(np.unique(live)) != len(live):
            raise ValueError(
                "destination map is not a partial permutation: a node "
                "receives from more than one source"
            )
        self._given = arr
        super().__init__(topo)

    def _build_dest_map(self) -> np.ndarray:
        return self._given

    def digest(self) -> str:
        """Short content digest of the destination map (report label)."""
        blob = ",".join(str(int(d)) for d in self._dest)
        return hashlib.sha256(blob.encode()).hexdigest()[:8]

    def describe(self) -> str:
        return f"discovered({self.digest()})"
