"""Experiment runners: one function per table/figure of the paper.

Each runner returns a :class:`FigureResult` whose ``text`` renders the
paper-style rows/series; the benchmark harness under ``benchmarks/`` calls
these and ``EXPERIMENTS.md`` records paper-vs-measured values.

A runner is a function of its arguments: how much it simulates is the
:class:`Scale` it is given (``DEFAULT_SCALE``: 300-cycle windows, one
seed), never the environment; ``Scale(window=10000, seeds=8)`` is the
paper's scale.
"""

from repro.experiments.report import FigureResult, render_curves, render_table
from repro.experiments.figures import (
    DEFAULT_SCALE, FIGURES, Scale, run_figure, tvlb_policy_for,
)

__all__ = [
    "DEFAULT_SCALE",
    "FigureResult",
    "render_table",
    "render_curves",
    "FIGURES",
    "Scale",
    "run_figure",
    "tvlb_policy_for",
]
