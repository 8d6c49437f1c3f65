"""Ablation studies for the design choices called out in DESIGN.md.

Not figures from the paper, but experiments that justify pieces of the
reproduction:

* ``abl_strategic``  -- does the deterministic strategic 2+3 5-hop choice
  differ from a random 50% 5-hop subset (and from the 3+2 order)?
* ``abl_balance``    -- does the Step-2 load-balance adjustment change the
  candidate set / help the simulated performance?
* ``abl_monotonic``  -- how much does the paper's LP monotonicity fix
  reduce the over-estimation for sets with few long paths?
* ``algorithm1``     -- the full Algorithm-1 pipeline on a small dense
  topology, with its audit trail.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.figures import (
    DEFAULT_SCALE, Scale, Variant, curve_suite, run_suite,
)
from repro.experiments.report import FigureResult, render_table
from repro.routing.pathset import (
    AllVlbPolicy,
    HopClassPolicy,
    StrategicFiveHopPolicy,
)
from repro.sim import SimParams
from repro.topology import Dragonfly, default_dragonfly
from repro.traffic import Shift

__all__ = ["abl_strategic", "abl_balance", "abl_monotonic", "algorithm1"]


def _policy_rows(
    name: str, topo: Dragonfly, pattern: object, loads: Sequence[float],
    variants: List[Variant], scale: Scale,
) -> List[list]:
    """[label, latency at the first load, saturation] of each variant,
    averaged over ``scale.seeds`` seeds of the one fixed ``pattern``."""
    suite = curve_suite(
        name, topo, lambda t, seed: pattern, loads, variants,
        seeds=range(scale.seeds),
    )
    return [
        [
            label,
            float(np.mean([s.results[0].avg_latency for s in per_seed])),
            float(np.mean([s.saturation_throughput() for s in per_seed])),
        ]
        for label, per_seed in run_suite(suite).items()
    ]


def abl_strategic(scale: Scale = DEFAULT_SCALE) -> FigureResult:
    """Strategic 2+3 vs 3+2 vs random 50% 5-hop on dfly(4,8,4,9)."""
    topo = default_dragonfly()
    params = SimParams(window_cycles=scale.window)
    rows = _policy_rows(
        "abl_strategic", topo, Shift(topo, 2, 0), (0.1, 0.2, 0.3, 0.4),
        [
            ("strategic 2+3", "t-ugal-l", StrategicFiveHopPolicy("2+3"), params),
            ("strategic 3+2", "t-ugal-l", StrategicFiveHopPolicy("3+2"), params),
            ("random 50% 5-hop", "t-ugal-l", HopClassPolicy(4, 0.5), params),
        ],
        scale,
    )
    return FigureResult(
        "abl_strategic",
        "strategic vs random 5-hop selection (T-UGAL-L, shift(2,0), g=9)",
        render_table(["policy", "latency@0.1", "saturation"], rows),
        data={label: sat for label, _, sat in rows},
    )


def abl_balance(scale: Scale = DEFAULT_SCALE) -> FigureResult:
    """Effect of the Step-2 load-balance adjustment on dfly(4,8,4,9)."""
    from repro.core.balance import balance_adjust

    topo = default_dragonfly()
    params = SimParams(window_cycles=scale.window)
    pattern = Shift(topo, 1, 0)
    base = StrategicFiveHopPolicy("2+3")
    pairs = [
        (s, d) for s, d in zip(*np.nonzero(pattern.demand_matrix()))
    ][: topo.a * 2]
    adjusted, report = balance_adjust(topo, base, pairs)
    data: Dict[str, float] = {
        "removed_descriptors": float(report.removed_descriptors),
        "global_hot_channels": float(len(report.global_hot_channels)),
        "max_over_mean_local": report.max_over_mean_local,
    }
    rows = _policy_rows(
        "abl_balance", topo, pattern, (0.1, 0.25, 0.4),
        [
            ("unadjusted", "t-ugal-l", base, params),
            ("balanced", "t-ugal-l", adjusted, params),
        ],
        scale,
    )
    data.update((label, sat) for label, _, sat in rows)
    text = render_table(["policy", "latency@0.1", "saturation"], rows)
    text += (
        f"\n\nbalance report: {report.removed_descriptors} descriptors "
        f"removed, {len(report.global_hot_channels)} hot channels, "
        f"local max/mean {report.max_over_mean_local:.2f}"
    )
    return FigureResult(
        "abl_balance",
        "load-balance adjustment on/off (T-UGAL-L, shift(1,0), g=9)",
        text,
        data=data,
    )


def abl_monotonic() -> FigureResult:
    """LP model: monotonicity fix vs unconstrained vs uniform split."""
    from repro.model.fastpath import FastModel

    topo = default_dragonfly()
    model = FastModel(topo)
    demand = Shift(topo, 2, 0).demand_matrix()
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for pol in (
        HopClassPolicy(4, 0.3),
        HopClassPolicy(4, 0.6),
        HopClassPolicy(5),
        AllVlbPolicy(),
    ):
        free = model.solve(
            demand, policy=pol, mode="free", monotonic=False
        ).throughput
        mono = model.solve(demand, policy=pol, mode="free").throughput
        uniform = model.solve(demand, policy=pol, mode="uniform").throughput
        rows.append([pol.describe(), free, mono, uniform])
        data[pol.describe()] = {
            "free": free, "monotonic": mono, "uniform": uniform
        }
    return FigureResult(
        "abl_monotonic",
        "LP model variants on shift(2,0), dfly(4,8,4,9)",
        render_table(
            ["candidate set", "free (Model 3)", "+monotonic fix",
             "uniform split"],
            rows,
        ),
        data=data,
    )


def algorithm1(scale: Scale = DEFAULT_SCALE) -> FigureResult:
    """Full Algorithm-1 pipeline on dfly(2,4,2,3) with audit trail."""
    from repro.core.algorithm import compute_tvlb

    topo = Dragonfly(2, 4, 2, 3)
    res = compute_tvlb(
        topo,
        sim_params=SimParams(window_cycles=max(150, scale.window // 2)),
        seed=1,
    )
    sweep_rows = [
        [pt.label, pt.mean_throughput, pt.sem] for pt in res.sweep
    ]
    cand_rows = [[c.label, c.score] for c in res.candidates]
    text = (
        "Step 1 modeled sweep:\n"
        + render_table(["data point", "mean thr", "sem"], sweep_rows)
        + "\n\nStep 2 simulated candidates:\n"
        + render_table(["candidate", "sim throughput"], cand_rows)
        + f"\n\nchosen T-VLB: {res.label}"
        + f"\nconverged to conventional UGAL: {res.converged_to_ugal}"
    )
    scores = [c.score for c in res.candidates if c.score > 0]
    spread = max(scores) / min(scores) if scores else float("inf")
    return FigureResult(
        "algorithm1",
        f"Algorithm 1 on {topo}",
        text,
        data={
            "chosen": res.label,
            "converged": res.converged_to_ugal,
            "num_candidates": len(res.candidates),
            # best/worst candidate score ratio: ~1.0 means the restricted
            # sets match the full VLB set (sufficient path diversity)
            "scores_within": spread,
        },
    )
