"""Step-1 coarse-grain sweep: modeled throughput over the Table-1 grid.

For every datapoint the LP model is solved for every pattern in the
adversarial suite and the mean (with standard error) is recorded -- the
data behind Figures 4 and 5 of the paper.

Every ``(datapoint, pattern)`` combination goes through
:class:`~repro.perf.executor.SweepExecutor` as a spec-fingerprinted
:class:`~repro.perf.executor.ModelTask`: structural work is factored and
amortized by :class:`~repro.model.fastpath.FastModel`, and an
executor-attached :class:`~repro.perf.cache.SimCache` serves repeated
points from disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.obs.log import get_logger
from repro.routing.pathset import HopClassPolicy
from repro.topology.dragonfly import Dragonfly
from repro.traffic.patterns import TrafficPattern

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.perf.executor import SweepExecutor

__all__ = ["SweepPoint", "step1_sweep", "best_point", "candidate_vicinity"]

_log = get_logger("model.sweep")


@dataclass
class SweepPoint:
    """Mean modeled throughput of one datapoint over the pattern suite."""

    policy: HopClassPolicy
    label: str
    mean_throughput: float
    sem: float
    per_pattern: List[float]


def step1_sweep(
    topo: Dragonfly,
    patterns: Sequence[TrafficPattern],
    datapoints: Sequence[HopClassPolicy],
    *,
    mode: str = "uniform",
    executor: Optional["SweepExecutor"] = None,
    seed: int = 0,
) -> List[SweepPoint]:
    """Model every (datapoint, pattern) combination; one row per datapoint.

    ``executor`` (optional) fans the solves out across worker processes
    and consults its attached result cache; without one, solves run
    serially in-process but still share per-topology structural state
    (the executor module's per-process solver memo).  ``seed`` is part
    of every task's spec, and so of its cache key; no modeled value
    depends on it.
    """
    from repro.perf.executor import ModelTask, run_model_task

    _log.info(
        "step1_sweep: %d datapoints x %d patterns (%s)",
        len(datapoints),
        len(patterns),
        "executor" if executor is not None else "in-process",
    )
    tasks = [
        ModelTask(
            topo=topo,
            pattern=pattern,
            policy=policy,
            mode=mode,
            seed=seed,
        )
        for policy in datapoints
        for pattern in patterns
    ]
    if executor is not None:
        results = executor.run_models(tasks)
    else:
        results = [run_model_task(t) for t in tasks]

    points: List[SweepPoint] = []
    num_patterns = len(patterns)
    for i, policy in enumerate(datapoints):
        values = [
            r.throughput
            for r in results[i * num_patterns : (i + 1) * num_patterns]
        ]
        points.append(_make_point(policy, values))
    _log.info("step1_sweep: %d points done", len(points))
    return points


def _make_point(
    policy: HopClassPolicy, values: List[float]
) -> SweepPoint:
    arr = np.asarray(values)
    sem = (
        float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    )
    return SweepPoint(
        policy=policy,
        label=policy.describe(),
        mean_throughput=float(arr.mean()),
        sem=sem,
        per_pattern=values,
    )


def best_point(points: Sequence[SweepPoint]) -> SweepPoint:
    """The datapoint with the highest mean modeled throughput."""
    return max(points, key=lambda pt: pt.mean_throughput)


def candidate_vicinity(
    points: Sequence[SweepPoint], rel_tol: float = 0.02
) -> List[SweepPoint]:
    """Datapoints within ``rel_tol`` of the best mean -- Step 2's candidates."""
    best = best_point(points)
    floor = best.mean_throughput * (1.0 - rel_tol)
    return [pt for pt in points if pt.mean_throughput >= floor]
