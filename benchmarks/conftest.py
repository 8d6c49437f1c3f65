"""Shared helpers for the benchmark harness.

Every bench regenerates one table/figure of the paper via
``repro.experiments.run_figure`` and prints the paper-style rows.
``pytest-benchmark`` times the run (rounds=1: these are experiment
regenerations, not micro-benchmarks).

Scaling: the ``scale`` fixture reads ``REPRO_WINDOW`` (default 300),
``REPRO_SEEDS`` (default 1), ``REPRO_WINDOW_LARGE`` (default 120) and
``REPRO_LARGE_LOADS`` (default ``0.05,0.15,0.3``) into the
:class:`~repro.experiments.Scale` every bench passes on, to trade time for
fidelity; the paper's scale is ``REPRO_WINDOW=10000 REPRO_SEEDS=8``.
The library itself reads no environment variable; ``python -m repro
figure`` takes the same four values as ``--window``, ``--seeds``,
``--window-large`` and ``--large-loads``.
"""

import os

import pytest

from repro.experiments import DEFAULT_SCALE, Scale, run_figure


@pytest.fixture(scope="session")
def scale() -> Scale:
    env = os.environ.get
    loads = env("REPRO_LARGE_LOADS")
    return Scale(
        window=int(env("REPRO_WINDOW", DEFAULT_SCALE.window)),
        window_large=int(env("REPRO_WINDOW_LARGE", DEFAULT_SCALE.window_large)),
        seeds=int(env("REPRO_SEEDS", DEFAULT_SCALE.seeds)),
        large_loads=(
            tuple(float(x) for x in loads.split(","))
            if loads else DEFAULT_SCALE.large_loads
        ),
    )


def regen(benchmark, figure: str, scale: Scale):
    """Run one figure at ``scale`` under pytest-benchmark; print its text."""
    result = benchmark.pedantic(
        run_figure, args=(figure, scale), rounds=1, iterations=1
    )
    print()
    print(result)
    return result
