"""Simulator validation against the seminal dragonfly results.

The paper's artifact appendix describes validating their BookSim setup by
reproducing results from Kim et al., "Technology-Driven, Highly-Scalable
Dragonfly Topology" (ISCA '08).  We do the same for our simulator on a
maximum-size balanced dragonfly (one global link per group pair, a=2p=2h):

* **uniform random traffic**: MIN has the lowest latency and saturates
  near the injection limit; VLB pays double the path length (about half
  the throughput, roughly twice the zero-load latency); UGAL tracks MIN.
* **adversarial shift traffic**: MIN collapses to ``m/(a*p)`` (all traffic
  of a group squeezed through the direct links); VLB spreads the load and
  sustains several times more; UGAL tracks VLB.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.figures import DEFAULT_SCALE, Scale
from repro.experiments.report import FigureResult, render_table
from repro.model.bounds import min_only_shift_bound
from repro.sim import SimParams, latency_vs_load
from repro.topology import Dragonfly
from repro.traffic import Shift, UniformRandom

__all__ = ["validate_uniform", "validate_adversarial"]


def _run(topo, pattern, loads, routing, scale: Scale) -> Dict:
    sweep = latency_vs_load(
        topo, pattern, loads, routing=routing,
        params=SimParams(window_cycles=scale.window), seed=3,
    )
    first = sweep.results[0]
    return {
        "low_load_latency": first.avg_latency,
        "saturation": sweep.saturation_throughput(),
    }


def validate_uniform(
    topo: Dragonfly = None, scale: Scale = DEFAULT_SCALE
) -> FigureResult:
    """MIN / VLB / UGAL-L under uniform random traffic (Kim et al. Fig 7)."""
    topo = topo or Dragonfly(2, 4, 2, 9)
    pattern = UniformRandom(topo)
    loads = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    rows = []
    data = {}
    for routing in ("min", "ugal-l", "vlb"):
        res = _run(topo, pattern, loads, routing, scale)
        rows.append([routing.upper(), res["low_load_latency"],
                     res["saturation"]])
        data[routing] = res
    return FigureResult(
        "validation_ur",
        f"uniform random validation on {topo}",
        render_table(["scheme", "latency@0.1", "saturation"], rows),
        data=data,
    )


def validate_adversarial(
    topo: Dragonfly = None, scale: Scale = DEFAULT_SCALE
) -> FigureResult:
    """MIN / VLB / UGAL-L under adversarial shift (Kim et al. Fig 8)."""
    topo = topo or Dragonfly(2, 4, 2, 9)
    pattern = Shift(topo, 1, 0)
    loads = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
    rows = []
    data = {"min_bound": min_only_shift_bound(topo)}
    for routing in ("min", "ugal-l", "vlb"):
        res = _run(topo, pattern, loads, routing, scale)
        rows.append([routing.upper(), res["low_load_latency"],
                     res["saturation"]])
        data[routing] = res
    text = render_table(["scheme", "latency@0.05", "saturation"], rows)
    text += (
        f"\n\nanalytic MIN bound: {data['min_bound']:.4f} "
        f"(direct links / group demand)"
    )
    return FigureResult(
        "validation_adv",
        f"adversarial shift validation on {topo}",
        text,
        data=data,
    )
