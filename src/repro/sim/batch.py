"""Batched multi-run driver: B compatible runs as one unit of work.

``simulate_batch([spec, ...])`` produces, for every :class:`RunSpec` in
the batch, a result **bit-identical** to ``simulate(spec)`` -- batching
is a scheduling change, never an algorithm change.  Each member is the
same :class:`~repro.sim.engine.Run` that ``simulate()`` drives (set-up,
``Run.advance``, result packaging: one definition), and the members run
one after another on one shared topology, one network alive at a time.
A batch is the unit the :class:`~repro.perf.planner.BatchPlanner` sizes
for the executor -- one task, one topology build, one worker round trip
for B runs -- not a kernel path (``docs/performance.md``, "What the
lockstep was worth", has the history).

Runs may differ in seed, load, pattern, and measurement params.  Each
run gets its own :class:`RunManifest`, is cached individually under its
own RunSpec fingerprint by the executor, and is announced through
``on_result`` / tracer events as it completes.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs import Tracer
from repro.sim.array import load_kernel
from repro.sim.engine import Run
from repro.sim.stats import SimResult

__all__ = ["BatchUnsupported", "compatibility_key", "simulate_batch"]


class BatchUnsupported(RuntimeError):
    """This batch cannot take the batched path (caller should fall back
    to per-run ``simulate()``; results are identical either way)."""


def compatibility_key(spec) -> Tuple:
    """What the members of one batch must share: topology, routing and
    policy.  Seed, load, pattern and params may differ.  (The planner
    groups by this key; ``simulate_batch`` rejects a batch with two.)"""
    from repro.spec import canonical_json

    return (
        canonical_json(spec.topology.to_dict()),
        spec.routing,
        canonical_json(spec.policy.to_dict())
        if spec.policy is not None
        else None,
    )


def _check_compatible(specs) -> None:
    from repro.spec import RunSpec

    if not all(isinstance(spec, RunSpec) for spec in specs):
        raise BatchUnsupported("batched runs require declarative RunSpecs")
    if len({compatibility_key(spec) for spec in specs}) > 1:
        raise BatchUnsupported(
            "batch members must share topology + routing structure "
            "(seed/load/pattern/params may differ)"
        )
    if any(spec.params.obs is not None for spec in specs):
        raise BatchUnsupported(
            "observability-instrumented runs take the single-run path"
        )


def simulate_batch(
    specs: Sequence,
    *,
    tracer: Optional[Tracer] = None,
    on_result: Optional[Callable[[int, SimResult], None]] = None,
) -> List[SimResult]:
    """Run every ``RunSpec`` in ``specs`` on the native kernel.

    Returns results in spec order, each bit-identical to
    ``simulate(spec)``.  Raises :class:`BatchUnsupported` when the batch
    cannot take this path (non-spec payloads, mixed topology/routing,
    observability-instrumented runs, or no native kernel); callers fall
    back to per-run ``simulate()`` and lose nothing but the shared
    set-up.
    ``on_result(index, result)`` fires as each run completes.
    """
    specs = list(specs)
    if not specs:
        return []
    _check_compatible(specs)
    if load_kernel() is None:
        raise BatchUnsupported(
            "native array kernel unavailable on this host"
        )
    topo = specs[0].topology.build()
    # repro: allow[DET104]: trace timing is runtime metadata
    wall_start = time.perf_counter()
    if tracer is not None:
        tracer.record(
            "batch_start",
            kind="sim-batch",
            runs=len(specs),
            routing=specs[0].routing,
            topology=str(topo),
        )
    results: List[SimResult] = []
    for slot, spec in enumerate(specs):
        run = Run.from_spec(spec, topo)
        run.advance(run.total)
        result = run.finish()
        run.manifest.batch_size = len(specs)
        run.manifest.batch_slot = slot
        if tracer is not None:
            tracer.record(
                "run_end",
                kind="sim-batch",
                slot=slot,
                seed=run.seed,
                load=float(run.load),
                cycles=run.total,
            )
        if on_result is not None:
            on_result(slot, result)
        results.append(result)
    if tracer is not None:
        tracer.record(
            "batch_end",
            kind="sim-batch",
            runs=len(specs),
            # repro: allow[DET104]: trace timing is runtime metadata
            wall_seconds=time.perf_counter() - wall_start,
        )
    return results
