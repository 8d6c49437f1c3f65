"""Algorithm 1: compute the custom T-VLB path set for a topology.

The two-step procedure of Section 3.3:

* **Step 1 (coarse grain)** -- model the throughput of every Table-1
  datapoint against the adversarial suites (TYPE_1 shifts + TYPE_2
  group/switch permutations) with the LP model, and keep the datapoints in
  the vicinity of the best as candidates.  Our LP is a pure capacity model,
  so `all VLB` is always on the frontier and the vicinity is ordered by
  average VLB path length (T-UGAL property 2: "as small as possible") --
  shorter candidate sets that model within ``vicinity_tol`` of the best
  are preferred for Step 2.
* **Step 2 (finalize)** -- expand the candidates with the deterministic
  strategic 5-hop choices where applicable, check and adjust local/global
  load balance (removing paths), then rank every adjusted candidate by
  *simulated* throughput on TYPE_2 patterns and return the winner.

The returned policy plugs straight into the simulator's ``t-ugal-l`` /
``t-ugal-g`` / ``t-par`` routing variants.  On topologies with one link
per group pair (e.g. ``dfly(4,8,4,33)``) the procedure selects the full
VLB set, reproducing the paper's "T-UGAL converges with UGAL" result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.balance import BalanceReport, balance_adjust
from repro.model.sweep import SweepPoint, candidate_vicinity, step1_sweep
from repro.routing.pathset import (
    AllVlbPolicy,
    HopClassPolicy,
    PathPolicy,
    StrategicFiveHopPolicy,
    candidate_weights,
)
from repro.routing.table import route_table
from repro.sim.params import SimParams
from repro.sim.sweep import LoadSweep, run_ladders
from repro.topology.dragonfly import Dragonfly
from repro.traffic.adversarial import type_1_set, type_2_set
from repro.traffic.patterns import Shift

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.executor import SweepExecutor
    from repro.traffic.patterns import TrafficPattern
    from repro.verify.report import VerifyReport

__all__ = [
    "CandidateEval",
    "TvlbResult",
    "compute_tvlb",
    "simulation_evaluator",
    "model_evaluator",
]

Evaluator = Callable[[PathPolicy, str], float]


@dataclass
class CandidateEval:
    """One Step-2 candidate after balance adjustment and evaluation."""

    label: str
    policy: PathPolicy
    balance: Optional[BalanceReport]
    score: float


@dataclass
class TvlbResult:
    """Everything Algorithm 1 produced, including the audit trail."""

    policy: PathPolicy  # the T-VLB set (use with t-ugal-* routing)
    label: str
    sweep: List[SweepPoint]
    candidates: List[CandidateEval]
    converged_to_ugal: bool  # True when the full VLB set won
    # static verification of the winning set (None when verify=False)
    verify_report: Optional["VerifyReport"] = None

    def describe(self) -> str:
        return self.label


def _mean_vlb_hops(
    topo: Dragonfly, policy: PathPolicy, sample_pairs: Sequence[Tuple[int, int]]
) -> float:
    """Mean over the sample pairs that keep a VLB path of the pair's
    :meth:`~repro.routing.pathset.PathPolicy.average_hops`."""
    table = route_table(topo)
    src, dst = np.array(sample_pairs, np.int64).reshape(-1, 2).T
    cand = table.vlb_candidates(src, dst)
    weight = candidate_weights(policy, table, cand)
    slots = table.min_slots()
    hops = slots.hops[cand.leg1] + slots.hops[cand.leg2]
    total = np.bincount(cand.pair, weight * hops, len(src))
    count = np.bincount(cand.pair, weight, len(src))
    kept = count > 0
    return float(np.mean(total[kept] / count[kept])) if kept.any() else float("inf")


def model_evaluator(
    topo: Dragonfly,
    *,
    num_patterns: int = 3,
    seed: int = 0,
) -> Evaluator:
    """Cheap Step-2 scoring via the uniform-selection LP.

    A fallback for very large topologies where simulation-based ranking is
    too slow: the uniform-mode LP models UGAL's random candidate draw and
    therefore penalizes badly balanced restricted sets, though it cannot
    credit the queueing benefits of shorter paths the way simulation does.
    A balanced candidate is scored on its exact set (its policy blocks);
    an unadjusted Table-1 candidate on its class expectation.  Solves go
    through the process's shared solver of ``topo``, so the pair blocks
    and pattern skeletons Step 1 built are reused, not rebuilt.
    """
    from repro.perf.executor import solver_for

    demands = [
        pattern.demand_matrix()
        for pattern in type_2_set(topo, count=num_patterns, seed=seed + 500)
    ]
    model = solver_for(topo)

    def evaluate(policy: PathPolicy, label: str) -> float:
        scores = [
            model.solve(demand, policy=policy, mode="uniform").throughput
            for demand in demands
        ]
        return float(np.mean(scores))

    return evaluate


def simulation_evaluator(
    topo: Dragonfly,
    *,
    routing: str = "ugal-l",
    params: Optional[SimParams] = None,
    num_patterns: int = 5,
    loads: Sequence[float] = (0.15, 0.25, 0.35, 0.45),
    seed: int = 0,
    executor: Optional["SweepExecutor"] = None,
) -> Evaluator:
    """Step-2 scoring: mean simulated saturation throughput on TYPE_2
    patterns (the paper simulates 5 of them and averages).

    A candidate's evaluation is one ladder of ``loads`` per pattern, run
    together through :func:`repro.sim.sweep.run_ladders` on ``executor``
    (default: a cache-less ``SweepExecutor(jobs=1)``): each ladder ends
    after its first saturated point, the patterns' points share the
    executor's threads, and repeated points (e.g. the ``all VLB``
    candidate re-scored across Algorithm 1 runs) come from its result
    cache.  Scores do not depend on the executor.
    """
    from repro.perf.executor import SimTask

    params = params if params is not None else SimParams(window_cycles=300)
    patterns = type_2_set(topo, count=num_patterns, seed=seed + 1000)

    def evaluate(policy: PathPolicy, label: str) -> float:
        conventional = isinstance(policy, AllVlbPolicy)
        variant = routing if conventional else f"t-{routing}"
        run_policy = None if conventional else policy
        run = dict(routing=variant, policy=run_policy, params=params, seed=seed)
        ladders = run_ladders(
            [
                [SimTask(topo, pattern, load, **run) for load in loads]
                for pattern in patterns
            ],
            executor,
        )
        scores = [
            LoadSweep(variant, label, results).saturation_throughput()
            for results in ladders
        ]
        return float(np.mean(scores))

    return evaluate


def compute_tvlb(
    topo: Dragonfly,
    *,
    routing: str = "ugal-l",
    step: float = 0.25,
    num_type1: Optional[int] = 6,
    num_type2: int = 3,
    vicinity_tol: float = 0.15,
    max_candidates: int = 3,
    evaluator: Optional[Evaluator] = None,
    sim_params: Optional[SimParams] = None,
    balance: bool = True,
    verify: bool = True,
    seed: int = 0,
    datapoints: Optional[Sequence[PathPolicy]] = None,
    executor: Optional["SweepExecutor"] = None,
    extra_adversaries: Optional[Sequence["TrafficPattern"]] = None,
) -> TvlbResult:
    """Run Algorithm 1 and return the T-VLB policy for ``topo``.

    Defaults are scaled for interactive runs: a coarser Table-1 grid
    (``step=0.25``), a subsample of the TYPE_1 suite (``num_type1``
    patterns; ``None`` = all ``(g-1)*a``), and a short simulation-based
    Step-2 evaluation.  Paper-scale behaviour: ``step=0.1``,
    ``num_type1=None``, ``num_type2=20``, and a ``simulation_evaluator``
    built from ``SimParams.paper()``.

    Unless ``verify=False``, the winning path set is statically verified
    (``repro.verify``: deadlock-freedom certification under PAR plus the
    path-set lint) before being returned; a failed verification raises
    ``RuntimeError`` so a broken set can never reach the simulator.

    Step 1 solves the LP through the one
    :class:`~repro.model.fastpath.FastModel` pipeline on every topology,
    on threads of this process sharing one solver; an ``executor`` sets
    their number (its ``jobs``; without one, one thread per available
    CPU), computes the Step-2 simulation points on the same threads
    (:func:`simulation_evaluator`), and serves both from its result
    cache.
    Step 2's balance check reads the same pair blocks
    (:mod:`repro.core.balance`) over 4 ``shift(1,0)`` pairs drawn from
    ``seed``.

    The per-topology hooks of the :class:`~repro.topology.base.Topology`
    protocol shape the run: ``tvlb_datapoints`` supplies the Step-1
    candidate grid (Table 1 on dragonflies, the ordered-intermediate
    fraction ladder on full meshes), ``baseline_policy`` the
    always-competing conventional set, and ``deadlock_vc_scheme`` the VC
    scheme the final verification certifies under.

    ``extra_adversaries`` appends further patterns (e.g. discovered by
    ``repro.adversary`` search) to the Step-1 training suite; the
    suite itself comes from the topology's ``adversary_suite`` hook.
    """
    rng = np.random.default_rng(seed)

    # ---- adversarial suites (Section 3.3.1, via the topology hook) ----
    suite = getattr(topo, "adversary_suite", None)
    if suite is not None:
        t1, t2 = suite(num_type2=num_type2, seed=seed)
    else:  # bare protocol stand-ins in tests
        t1 = list(type_1_set(topo))
        t2 = list(type_2_set(topo, count=num_type2, seed=seed))
    if num_type1 is not None and num_type1 < len(t1):
        idx = rng.choice(len(t1), size=num_type1, replace=False)
        t1 = [t1[i] for i in sorted(idx)]
    patterns = t1 + t2 + list(extra_adversaries or [])

    # ---- Step 1: coarse-grain model sweep over the candidate grid ----
    # (the topology's `tvlb_datapoints` hook: Table 1 on dragonflies;
    # pass a custom `datapoints` grid for variations like
    # CascadeDragonfly where VLB paths reach `max_vlb_hops(topo)`)
    grid = (
        list(datapoints)
        if datapoints is not None
        else topo.tvlb_datapoints(step=step, seed=seed)
    )
    sweep = step1_sweep(
        topo,
        patterns,
        grid,
        mode="free",
        executor=executor,
        seed=seed,
    )
    vicinity = candidate_vicinity(sweep, rel_tol=vicinity_tol)

    # shortest-average-length first (T-UGAL property 2)
    shift_pairs = [
        (s, d)
        for s, d in zip(*np.nonzero(Shift(topo, 1, 0).demand_matrix()))
    ]
    sample_pairs = [
        shift_pairs[i]
        for i in rng.choice(
            len(shift_pairs), size=min(4, len(shift_pairs)), replace=False
        )
    ]
    vicinity = sorted(
        vicinity,
        key=lambda pt: _mean_vlb_hops(topo, pt.policy, sample_pairs),
    )[:max_candidates]

    candidates: List[Tuple[str, PathPolicy]] = [
        (pt.label, pt.policy) for pt in vicinity
    ]

    # ---- Step 2: expand with the deterministic strategic choices ----
    if any(
        isinstance(pol, HopClassPolicy)
        and pol.full_hops == 4
        and 0.0 < pol.extra_fraction < 1.0
        for _lbl, pol in candidates
    ):
        for order in ("2+3", "3+2"):
            strategic = StrategicFiveHopPolicy(order)
            candidates.append((strategic.describe(), strategic))

    # the topology's conventional set always competes; if it wins, T-UGAL
    # converges with UGAL (the paper's g=33 outcome).  Topologies whose
    # unrestricted set is not deadlock-safe (FullMesh under one VC)
    # return None here -- their grid already tops out at the largest
    # admissible set.
    baseline = topo.baseline_policy()
    if baseline is not None and not any(
        isinstance(pol, type(baseline)) or lbl == baseline.describe()
        for lbl, pol in candidates
    ):
        candidates.append((baseline.describe(), baseline))

    # ---- balance analysis + adjustment ----
    evaluated: List[CandidateEval] = []
    if evaluator is None:
        evaluator = simulation_evaluator(
            topo, routing=routing, params=sim_params, seed=seed,
            num_patterns=min(num_type2, 5) or 2,
            executor=executor,
        )
    for label, policy in candidates:
        report: Optional[BalanceReport] = None
        adjusted = policy
        if balance and not isinstance(policy, AllVlbPolicy):
            adjusted, report = balance_adjust(topo, policy, sample_pairs)
            if report.adjusted:
                label = f"{label} (balanced)"
        score = evaluator(adjusted, label)
        evaluated.append(CandidateEval(label, adjusted, report, score))

    best = max(evaluated, key=lambda c: c.score)
    converged = isinstance(best.policy, AllVlbPolicy)

    # ---- finalize: assert the winner is statically sound ----
    verify_report: Optional["VerifyReport"] = None
    if verify:
        from repro.verify import verify_config

        # the topology's own certification scheme wins (e.g. FullMesh's
        # one-VC "none"); dragonflies certify under the simulation scheme
        scheme = topo.deadlock_vc_scheme or (
            sim_params or SimParams()
        ).vc_scheme
        # verify under PAR: its dependency set (revised fragments, one VC
        # level up) is a superset of every UGAL variant's
        verify_report = verify_config(
            topo, best.policy, scheme=scheme, routing="par", seed=seed
        )
        if not verify_report.passed:
            raise RuntimeError(
                "Algorithm 1 selected a T-VLB set that fails static "
                f"verification:\n{verify_report.to_text()}"
            )
    return TvlbResult(
        policy=best.policy,
        label=best.label,
        sweep=sweep,
        candidates=evaluated,
        converged_to_ugal=converged,
        verify_report=verify_report,
    )
