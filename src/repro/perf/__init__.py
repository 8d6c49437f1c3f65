"""Execution-performance layer: parallel sweeps and the result cache.

* :mod:`repro.perf.executor` -- :class:`SweepExecutor`, a process-pool
  fan-out for batches of independent ``simulate()`` points with a serial
  fallback and deterministic result ordering;
* :mod:`repro.perf.planner` -- :class:`BatchPlanner`, which groups
  compatible cache-miss payloads into multi-run ``simulate_batch``
  units (bit-identical per run; purely a scheduling decision);
* :mod:`repro.perf.cache` -- :class:`SimCache`, the content-addressed
  on-disk ``SimResult`` store with versioned invalidation.

Speed itself is measured outside the package, by ``python3 bench/run.py``
(the workloads and metrics ``BENCHMARK.json`` declares).
"""

from repro.perf.cache import (
    CACHE_VERSION,
    SimCache,
    default_cache_dir,
    model_fingerprint,
)
from repro.perf.executor import (
    ModelTask,
    SimTask,
    SweepExecutor,
    default_jobs,
    run_model_task,
    run_task,
)
from repro.perf.planner import BatchPlanner, BatchUnit

__all__ = [
    "BatchPlanner",
    "BatchUnit",
    "CACHE_VERSION",
    "ModelTask",
    "SimCache",
    "SimTask",
    "SweepExecutor",
    "default_cache_dir",
    "default_jobs",
    "model_fingerprint",
    "run_model_task",
    "run_task",
]
