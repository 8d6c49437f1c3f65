"""Load sweeps: latency-vs-load curves and saturation throughput.

Mirrors the paper's measurement procedure: simulate a ladder of injection
rates, report the latency curve, and take the last rate before the average
latency crosses the saturation threshold (500 cycles) as the network
throughput.

A :class:`~repro.perf.executor.SweepExecutor` computes every point here,
in :func:`repro.sim.replicate` and in Algorithm 1's Step-2 scoring: the
caller's, else a cache-less ``SweepExecutor(jobs=1)`` on the calling
thread.  :func:`run_ladders` is the one early-stop rule: a ladder ends
after its first saturated point, so ``jobs=1`` computes no point past it
and ``jobs=J`` at most ``J - 1`` per ladder.  Results never depend on
``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.routing.pathset import PathPolicy
from repro.sim.params import SimParams
from repro.sim.stats import SimResult
from repro.topology.dragonfly import Dragonfly
from repro.traffic.patterns import TrafficPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.executor import SimTask, SweepExecutor

__all__ = ["LoadSweep", "latency_vs_load", "run_ladders", "saturation_throughput"]


@dataclass
class LoadSweep:
    """A latency curve: one SimResult per offered load."""

    routing: str
    policy_label: str
    results: List[SimResult] = field(default_factory=list)

    @property
    def loads(self) -> List[float]:
        return [r.offered_load for r in self.results]

    @property
    def latencies(self) -> List[float]:
        return [r.avg_latency for r in self.results]

    def saturation_throughput(self) -> float:
        """Highest accepted rate among non-saturated points (0 if none)."""
        ok = [r for r in self.results if not r.saturated]
        return max((r.accepted_rate for r in ok), default=0.0)

    def rows(self) -> List[tuple]:
        return [
            (r.offered_load, r.avg_latency, r.accepted_rate, r.saturated)
            for r in self.results
        ]


def _executor(executor: Optional["SweepExecutor"]) -> "SweepExecutor":
    """``executor``, or the cache-less ``SweepExecutor(jobs=1)`` a call
    that passed none computes its points on (``$REPRO_JOBS`` does not
    reach it)."""
    from repro.perf.executor import SweepExecutor

    return executor or SweepExecutor(jobs=1)


def run_ladders(
    ladders: Sequence[Sequence["SimTask"]],
    executor: Optional["SweepExecutor"] = None,
    stop_after_saturation: bool = True,
) -> List[List[SimResult]]:
    """The results of each ladder (tasks in rising load), computed by
    ``executor``.

    With ``stop_after_saturation``, a ladder ends after its first
    saturated point: each batch takes the next points rung by rung across
    the ladders still running, at most ``executor.jobs`` of them, and a
    point of a batch past its ladder's first saturated one is dropped.
    Without it, every point goes in one batch.  Either way the result
    lists depend on nothing but the tasks.
    """
    executor = _executor(executor)
    size = executor.jobs if stop_after_saturation else None
    results: List[List[SimResult]] = [[] for _ in ladders]
    todo = [list(ladder) for ladder in ladders]  # each one's points to run
    while any(todo):
        # the next points, rung by rung across the ladders still running
        picked = [
            (i, rest[k])
            for k in range(max(map(len, todo)))
            for i, rest in enumerate(todo)
            if k < len(rest)
        ][:size]
        batch = executor.run([task for _i, task in picked])
        for (i, _task), result in zip(picked, batch):
            if todo[i]:  # else it ended at an earlier point of this batch
                results[i].append(result)
                del todo[i][0]
                if stop_after_saturation and result.saturated:
                    todo[i] = []
    return results


def latency_vs_load(
    topo,
    pattern: Optional[TrafficPattern] = None,
    loads: Optional[Sequence[float]] = None,
    *,
    routing: str = "ugal-l",
    policy: Optional[PathPolicy] = None,
    params: Optional[SimParams] = None,
    seed: int = 0,
    stop_after_saturation: bool = True,
    executor: Optional["SweepExecutor"] = None,
) -> LoadSweep:
    """The latency curve of ``loads`` in order: one ladder of
    :func:`run_ladders`, by default ending after its first saturated
    point.

    Accepts either live objects -- ``latency_vs_load(topo, pattern,
    loads, ...)`` -- or a single declarative
    :class:`repro.spec.SweepSpec` as the first argument.
    """
    if pattern is None and loads is None:
        from repro.spec import SweepSpec

        if not isinstance(topo, SweepSpec):
            raise TypeError(
                "latency_vs_load() needs (topo, pattern, loads, ...) or "
                "a SweepSpec"
            )
        spec = topo
        topo = spec.topology.build()
        pattern = spec.pattern.build(topo)
        loads = spec.loads
        routing = spec.routing
        policy = spec.policy.build() if spec.policy is not None else None
        params = spec.params
        seed = spec.seed
    elif pattern is None or loads is None:
        raise TypeError("latency_vs_load() needs both pattern and loads")
    from repro.perf.executor import SimTask

    run = dict(routing=routing, policy=policy, params=params, seed=seed)
    ladder = [SimTask(topo, pattern, load, **run) for load in loads]
    return LoadSweep(
        routing=routing,
        policy_label=policy.describe() if policy is not None else "all VLB",
        results=run_ladders([ladder], executor, stop_after_saturation)[0],
    )


def saturation_throughput(
    topo: Dragonfly,
    pattern: TrafficPattern,
    *,
    routing: str = "ugal-l",
    policy: Optional[PathPolicy] = None,
    params: Optional[SimParams] = None,
    seed: int = 0,
    lo: float = 0.02,
    hi: float = 1.0,
    tol: float = 0.02,
    max_iters: int = 8,
    executor: Optional["SweepExecutor"] = None,
    sections: Optional[int] = None,
) -> float:
    """Section search for the saturation injection rate.

    Returns the highest accepted rate observed at a non-saturated load
    (the paper's "last injection rate before saturation").

    Each round computes ``sections`` evenly spaced interior probes as one
    batch of ``executor`` (default: the executor's job count, capped at
    8), shrinking the bracket by ``1/(sections+1)`` per round -- fewer
    rounds of wall-clock for the same tolerance.  The search is
    deterministic for a fixed ``sections`` value; ``sections=1``, the
    default without an executor, is the classic bisection.
    """
    from repro.perf.executor import SimTask

    executor = _executor(executor)
    run = dict(routing=routing, policy=policy, params=params, seed=seed)

    def run_batch(points: Sequence[float]) -> List[SimResult]:
        return executor.run([SimTask(topo, pattern, load, **run) for load in points])

    if sections is None:
        sections = min(executor.jobs, 8)
    sections = max(1, sections)

    low_res, hi_res = run_batch([lo, hi])
    if low_res.saturated:
        return 0.0
    best = low_res.accepted_rate
    if not hi_res.saturated:
        return hi_res.accepted_rate
    low, high = lo, hi
    for _ in range(max_iters):
        if high - low <= tol:
            break
        step = (high - low) / (sections + 1)
        probes = [low + step * (k + 1) for k in range(sections)]
        probe_res = run_batch(probes)
        # narrow to the interval between the last non-saturated probe (or
        # `low`) and the first saturated probe (or `high`); accepted rates
        # beyond the first saturated probe are disregarded, matching the
        # bisection's "last rate before saturation" semantics
        new_low, new_high = low, high
        for load, res in zip(probes, probe_res):
            if res.saturated:
                new_high = load
                break
            new_low = load
            best = max(best, res.accepted_rate)
        low, high = new_low, new_high
    return best
