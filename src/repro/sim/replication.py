"""Multi-seed replication: mean and standard error across runs.

The paper runs every random-seed-dependent experiment 8-20 times and
reports the mean with the standard error of the mean; these helpers do the
same for single points and whole latency curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.routing.pathset import PathPolicy
from repro.sim.params import SimParams
from repro.sim.sweep import _executor
from repro.topology.dragonfly import Dragonfly
from repro.traffic.patterns import TrafficPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.executor import SweepExecutor

__all__ = ["Replicated", "replicate", "replicated_curve"]


@dataclass
class Replicated:
    """Mean +- standard error of one metric over seeds."""

    mean: float
    sem: float
    n: int
    values: List[float]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4g} +- {self.sem:.2g} (n={self.n})"


def _aggregate(values: Sequence[float]) -> Replicated:
    arr = np.asarray(values, dtype=float)
    sem = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return Replicated(float(arr.mean()), sem, len(arr), list(values))


def replicate(
    topo,
    pattern_factory: Optional[Callable[[int], TrafficPattern]] = None,
    load: Optional[float] = None,
    *,
    routing: str = "ugal-l",
    policy: Optional[PathPolicy] = None,
    params: Optional[SimParams] = None,
    seeds: Sequence[int] = range(8),
    executor: Optional["SweepExecutor"] = None,
) -> Dict[str, Replicated]:
    """Run one load point under several seeds.

    ``pattern_factory(seed)`` builds the traffic pattern per run, so
    seed-dependent patterns (permutations, MIXED node selections) vary
    along with the injection process.  Returns mean+-sem for latency,
    accepted rate, hops, and VLB fraction.

    Alternatively pass a single :class:`repro.spec.RunSpec` as the first
    argument: its pattern is re-seeded per replication seed (when the
    pattern kind is seed-bearing) exactly like a factory would.

    The per-seed runs are one batch of ``executor`` (default: a
    cache-less ``SweepExecutor(jobs=1)``, every run on the calling
    thread); patterns are materialized up front, in the calling thread.
    """
    if pattern_factory is None and load is None:
        from repro.spec import RunSpec

        if not isinstance(topo, RunSpec):
            raise TypeError(
                "replicate() needs (topo, pattern_factory, load, ...) or "
                "a RunSpec"
            )
        spec = topo
        topo = spec.topology.build()
        load = spec.load
        routing = spec.routing
        policy = spec.policy.build() if spec.policy is not None else None
        params = spec.params
        pattern_factory = (
            lambda s: spec.pattern.with_seed(s).build(topo)
        )
    elif pattern_factory is None or load is None:
        raise TypeError("replicate() needs both pattern_factory and load")
    from repro.perf.executor import SimTask

    results = _executor(executor).run(
        [
            SimTask(
                topo,
                pattern_factory(seed),
                load,
                routing=routing,
                policy=policy,
                params=params,
                seed=seed,
            )
            for seed in seeds
        ]
    )
    finite = [r for r in results if np.isfinite(r.avg_latency)]
    return {
        "latency": _aggregate([r.avg_latency for r in finite] or [np.inf]),
        "accepted": _aggregate([r.accepted_rate for r in results]),
        "hops": _aggregate([r.avg_hops for r in finite] or [0.0]),
        "vlb_fraction": _aggregate(
            [r.vlb_fraction for r in finite] or [0.0]
        ),
    }


def replicated_curve(
    topo: Dragonfly,
    pattern_factory: Callable[[int], TrafficPattern],
    loads: Sequence[float],
    **kwargs,
) -> List[Tuple[float, Dict[str, Replicated]]]:
    """A latency curve with per-point mean+-sem over seeds."""
    return [
        (load, replicate(topo, pattern_factory, load, **kwargs))
        for load in loads
    ]
