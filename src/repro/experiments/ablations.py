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

import os
from typing import Dict

import numpy as np

from repro.core import balance_adjust, compute_tvlb
from repro.experiments.figures import run_suite
from repro.experiments.report import FigureResult, render_table
from repro.model import FastModel
from repro.routing.pathset import (
    AllVlbPolicy,
    HopClassPolicy,
    StrategicFiveHopPolicy,
)
from repro.sim import SimParams
from repro.spec import PatternSpec, PolicySpec, SuiteSpec, SweepSpec, TopologySpec
from repro.topology import Dragonfly, default_dragonfly
from repro.traffic import Shift

__all__ = ["abl_strategic", "abl_balance", "abl_monotonic", "algorithm1"]


def _window() -> int:
    return int(os.environ.get("REPRO_WINDOW", "300"))


def abl_strategic() -> FigureResult:
    """Strategic 2+3 vs 3+2 vs random 50% 5-hop on dfly(4,8,4,9)."""
    topo = default_dragonfly()
    params = SimParams(window_cycles=_window())
    pattern = Shift(topo, 2, 0)
    loads = (0.1, 0.2, 0.3, 0.4)
    policies = [
        ("strategic 2+3", StrategicFiveHopPolicy("2+3")),
        ("strategic 3+2", StrategicFiveHopPolicy("3+2")),
        ("random 50% 5-hop", HopClassPolicy(4, 0.5)),
    ]
    suite = SuiteSpec("abl_strategic", tuple(
        SweepSpec(
            topology=TopologySpec.of(topo),
            pattern=PatternSpec.of(pattern),
            loads=loads,
            routing="t-ugal-l",
            policy=PolicySpec.of(pol),
            params=params,
            seed=0,
            label=label,
        )
        for label, pol in policies
    ))
    rows = []
    data: Dict[str, float] = {}
    for label, sweeps in run_suite(suite).items():
        sweep = sweeps[0]
        sat = sweep.saturation_throughput()
        low = sweep.results[0].avg_latency
        rows.append([label, low, sat])
        data[label] = sat
    return FigureResult(
        "abl_strategic",
        "strategic vs random 5-hop selection (T-UGAL-L, shift(2,0), g=9)",
        render_table(["policy", "latency@0.1", "saturation"], rows),
        data=data,
    )


def abl_balance() -> FigureResult:
    """Effect of the Step-2 load-balance adjustment on dfly(4,8,4,9)."""
    topo = default_dragonfly()
    params = SimParams(window_cycles=_window())
    pattern = Shift(topo, 1, 0)
    loads = (0.1, 0.25, 0.4)
    base = StrategicFiveHopPolicy("2+3")
    pairs = [
        (s, d) for s, d in zip(*np.nonzero(pattern.demand_matrix()))
    ][: topo.a * 2]
    adjusted, report = balance_adjust(topo, base, pairs)
    rows = []
    data: Dict[str, float] = {
        "removed_descriptors": float(report.removed_descriptors),
        "global_hot_channels": float(len(report.global_hot_channels)),
        "max_over_mean_local": report.max_over_mean_local,
    }
    suite = SuiteSpec("abl_balance", tuple(
        SweepSpec(
            topology=TopologySpec.of(topo),
            pattern=PatternSpec.of(pattern),
            loads=loads,
            routing="t-ugal-l",
            policy=PolicySpec.of(pol),
            params=params,
            seed=0,
            label=label,
        )
        for label, pol in (("unadjusted", base), ("balanced", adjusted))
    ))
    for label, sweeps in run_suite(suite).items():
        sweep = sweeps[0]
        sat = sweep.saturation_throughput()
        rows.append([label, sweep.results[0].avg_latency, sat])
        data[label] = sat
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


def algorithm1() -> FigureResult:
    """Full Algorithm-1 pipeline on dfly(2,4,2,3) with audit trail."""
    topo = Dragonfly(2, 4, 2, 3)
    res = compute_tvlb(
        topo,
        sim_params=SimParams(window_cycles=max(150, _window() // 2)),
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
