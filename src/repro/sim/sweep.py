"""Load sweeps: latency-vs-load curves and saturation throughput.

Mirrors the paper's measurement procedure: simulate a ladder of injection
rates, report the latency curve, and take the last rate before the average
latency crosses the saturation threshold (500 cycles) as the network
throughput.

Both entry points accept an optional
:class:`~repro.perf.executor.SweepExecutor`: the ladder's points (and the
section search's per-round probes) are independent simulations, so they
fan out across the executor's threads and/or short-circuit through the
on-disk result cache.  The parallel ladder returns results bit-identical
to the serial path; packet-lane points run on the threads too but do not
speed up with ``jobs``.  Without an executor the points run one after
another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence


from repro.routing.pathset import PathPolicy
from repro.sim.engine import simulate
from repro.sim.params import SimParams
from repro.sim.stats import SimResult
from repro.topology.dragonfly import Dragonfly
from repro.traffic.patterns import TrafficPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.executor import SweepExecutor

__all__ = ["LoadSweep", "latency_vs_load", "saturation_throughput"]


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
    """Simulate each load in order; optionally stop once saturated.

    Accepts either live objects -- ``latency_vs_load(topo, pattern,
    loads, ...)`` -- or a single declarative
    :class:`repro.spec.SweepSpec` as the first argument.

    With an ``executor``, every point of the ladder runs concurrently and
    the curve is truncated after the first saturated point, so the result
    list is identical to the serial path (which stops simulating there).
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
    sweep = LoadSweep(
        routing=routing,
        policy_label=policy.describe() if policy is not None else "all VLB",
    )
    if executor is not None:
        from repro.perf.executor import SimTask

        results = executor.run(
            [
                SimTask(
                    topo,
                    pattern,
                    load,
                    routing=routing,
                    policy=policy,
                    params=params,
                    seed=seed,
                )
                for load in loads
            ]
        )
        for result in results:
            sweep.results.append(result)
            if stop_after_saturation and result.saturated:
                break
        return sweep
    for load in loads:
        result = simulate(
            topo,
            pattern,
            load,
            routing=routing,
            policy=policy,
            params=params,
            seed=seed,
        )
        sweep.results.append(result)
        if stop_after_saturation and result.saturated:
            break
    return sweep


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

    Serially this is the classic bisection (one probe per iteration).
    With an ``executor``, each iteration probes ``sections`` evenly spaced
    interior loads concurrently (default: the executor's job count,
    capped at 8), shrinking the bracket by ``1/(sections+1)`` per round --
    fewer rounds of wall-clock for the same tolerance.  The search is
    deterministic for a fixed ``sections`` value; ``sections=1``
    reproduces the serial bisection probe-for-probe.
    """

    def run_batch(points: Sequence[float]) -> List[SimResult]:
        if executor is not None:
            from repro.perf.executor import SimTask

            return executor.run(
                [
                    SimTask(
                        topo,
                        pattern,
                        load,
                        routing=routing,
                        policy=policy,
                        params=params,
                        seed=seed,
                    )
                    for load in points
                ]
            )
        return [
            simulate(
                topo,
                pattern,
                load,
                routing=routing,
                policy=policy,
                params=params,
                seed=seed,
            )
            for load in points
        ]

    if sections is None:
        sections = min(executor.jobs, 8) if executor is not None else 1
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
