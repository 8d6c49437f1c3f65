"""Full-mesh topology: every switch directly linked to every other.

A full mesh of ``n`` switches is the degenerate dragonfly with one switch
per group: ``dfly(p, a=1, h=n-1, g=n)``.  Each ordered switch pair has
exactly one global link (``links_per_group_pair == 1``), MIN paths are the
single direct hop, and a VLB path is ``src -> mid -> dst`` -- two global
hops with no local hops at all.  Expressing it this way means every layer
built on the :class:`~repro.topology.base.Topology` surface (path
enumeration, the LP model, the simulator, CDG verification, Algorithm 1)
works unchanged.

What *is* custom is the deadlock story, following Cano et al. (HOTI'25,
"deadlock-free non-minimal routing without virtual channels"): instead of
a VC ladder, restrict VLB to intermediates larger than both endpoints
(:class:`~repro.routing.pathset.OrderedVlbPolicy`).  Every channel
dependency then goes from a lower-endpoint channel to a higher-endpoint
one, so the channel dependency graph is acyclic with a *single* VC --
certified by ``repro.verify`` under the analysis-only ``"none"`` scheme
(see :attr:`FullMesh.deadlock_vc_scheme`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.topology.dragonfly import Dragonfly

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.pathset import PathPolicy
    from repro.traffic.patterns import TrafficPattern

__all__ = ["FullMesh"]


class FullMesh(Dragonfly):
    """``n`` switches, one bidirectional link per switch pair.

    ``FullMesh(n, p)`` is constructed as ``dfly(p, 1, n-1, n)``; the
    ``n`` and ``p`` parameters are the whole identity (the registry codec
    serializes exactly those two).
    """

    def __init__(self, n: int, p: int = 1, arrangement: str = "absolute") -> None:
        if n < 2:
            raise ValueError("a full mesh needs at least 2 switches")
        super().__init__(p=p, a=1, h=n - 1, g=n, arrangement=arrangement)

    @property
    def n(self) -> int:
        """Number of switches (alias of ``g``: one switch per group)."""
        return self.g

    # ------------------------------------------------------------------
    # Algorithm-1 / verification hooks
    # ------------------------------------------------------------------
    @property
    def deadlock_vc_scheme(self) -> Optional[str]:
        """One shared VC suffices: the ordered-intermediate restriction
        makes the CDG acyclic without VC protection, so certification
        runs under the analysis-only ``"none"`` scheme."""
        return "none"

    def tvlb_datapoints(
        self, step: float = 0.25, seed: int = 0
    ) -> List["PathPolicy"]:
        """Fraction ladder over the ordered-intermediate VLB family.

        The hop-class grid is meaningless here (every VLB path has
        exactly 2 hops); the tunable axis is *how many* deadlock-free
        ordered intermediates each pair keeps.
        """
        from repro.routing.pathset import OrderedVlbPolicy

        if not 0.0 < step <= 1.0:
            raise ValueError("step must be in (0, 1]")
        fractions: List[float] = []
        f = step
        while f < 1.0 - 1e-9:
            fractions.append(round(f, 10))
            f += step
        fractions.append(1.0)
        return [
            OrderedVlbPolicy(fraction=frac, seed=seed) for frac in fractions
        ]

    def baseline_policy(self) -> Optional["PathPolicy"]:
        """No unrestricted baseline: the full VLB set deadlocks under a
        single VC (``mid`` ordering is what breaks the cycles), so the
        largest competing set is the fraction-1.0 ordered policy already
        on the grid."""
        return None

    def adversary_suite(
        self, *, num_type2: int = 20, seed: int = 0
    ) -> Tuple[List["TrafficPattern"], List["TrafficPattern"]]:
        """Native full-mesh suite: switch shifts + seeded derangements.

        The paper's TYPE_1 construction degenerates cleanly here (one
        switch per group, so a group shift *is* a switch shift): each
        ``shift(d, 0)`` saturates the single direct link of every
        ``(s, s+d)`` switch pair, the full mesh's worst case under MIN.
        The TYPE_2 axis keeps the seeded switch-level derangement family,
        built through the registry so the seeds stay spec-visible.
        """
        # lazy import: repro.traffic/repro.spec sit above topology
        from repro.spec import PatternSpec
        from repro.traffic.patterns import Shift

        shifts: List["TrafficPattern"] = [
            Shift(self, d, 0) for d in range(1, self.n)
        ]
        perms: List["TrafficPattern"] = [
            PatternSpec.make("type2", seed=seed + i).build(self)
            for i in range(num_type2)
        ]
        return shifts, perms

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"full-mesh(n={self.n}, p={self.p})"
