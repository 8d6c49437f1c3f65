"""Batched multi-run driver: advance B independent runs in lockstep.

``simulate_batch([spec, ...])`` produces, for every :class:`RunSpec` in
the batch, a result **bit-identical** to ``simulate(spec)`` -- batching
is a scheduling change, never an algorithm change.  Each member is the
same :class:`~repro.sim.engine.Run` that ``simulate()`` drives (set-up,
injection lanes, result packaging: one definition); the only thing this
driver does differently is replace the members' per-cycle ``step()``
calls by their ``pre_step`` / ``post_step`` halves around one
``repro_step_batch`` kernel call (run-major: each run's struct-of-arrays
state stays contiguous, so per-run cache behavior matches the single-run
kernel).  Runs are interleaved in one process, so each routes against
its own sparse-sampling memo (:meth:`Run.sampling`) for the slices in
which it injects and revises.

Runs may differ in seed, load, pattern, and measurement params; runs
with fewer total cycles finish early and are compacted out of the batch
(ragged completion) while the rest keep advancing.  Each run gets its
own :class:`RunManifest`, is cached individually under its own RunSpec
fingerprint by the executor, and is announced through ``on_result`` /
tracer events as it completes.
"""

from __future__ import annotations

import ctypes
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs import Tracer
from repro.sim.array.native import CState
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


def _state_pointers(active):
    """The kernel's view of the active runs: State* array + skip flags."""
    ptrs = (ctypes.POINTER(CState) * len(active))(
        *[ctypes.pointer(run.net._cstate) for _slot, run in active]
    )
    return ptrs, (ctypes.c_int64 * len(active))()


def simulate_batch(
    specs: Sequence,
    *,
    tracer: Optional[Tracer] = None,
    on_result: Optional[Callable[[int, SimResult], None]] = None,
) -> List[SimResult]:
    """Run every ``RunSpec`` in ``specs`` lockstep on the native kernel.

    Returns results in spec order, each bit-identical to
    ``simulate(spec)``.  Raises :class:`BatchUnsupported` when the batch
    cannot take this path (non-spec payloads, mixed topology/routing,
    observability-instrumented runs, or no native kernel); callers fall
    back to per-run ``simulate()`` and lose nothing but the shared
    kernel call.
    ``on_result(index, result)`` fires as each run completes (ragged
    batches complete out of spec order).
    """
    specs = list(specs)
    if not specs:
        return []
    _check_compatible(specs)
    topo = specs[0].topology.build()
    # repro: allow[DET104]: trace timing is runtime metadata
    wall_start = time.perf_counter()
    runs = [Run.from_spec(spec, topo) for spec in specs]
    if any(run.net.backend != "native" for run in runs):
        raise BatchUnsupported(
            "native array kernel unavailable on this host"
        )
    batch_step = runs[0].net._kernel.repro_step_batch

    if tracer is not None:
        tracer.record(
            "batch_start",
            kind="sim-batch",
            runs=len(runs),
            routing=specs[0].routing,
            topology=str(topo),
        )

    active = list(enumerate(runs))  # (slot, run) of the unfinished runs
    ptrs, skips = _state_pointers(active)
    results: List[Optional[SimResult]] = [None] * len(runs)

    for cycle in range(max(run.total for run in runs)):
        for i, (_slot, run) in enumerate(active):
            with run.sampling():
                if cycle == run.warmup:
                    run.net.reset_channel_counters()
                run.inject(cycle)
                skips[i] = run.net.pre_step()
        rc = int(batch_step(ptrs, len(active), cycle, skips))
        if rc:
            _slot, run = active[rc % 1000]
            raise RuntimeError(
                f"array kernel invariant violation (code {rc // 1000}) "
                f"at cycle {cycle} in batched run seed={run.seed} "
                f"load={run.load:g}"
            )
        finished = False
        for slot, run in active:
            run.net.post_step()
            if cycle + 1 == run.total:
                result = results[slot] = run.finish()
                run.manifest.batch_size = len(runs)
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
                finished = True
        if finished:
            active = [sr for sr in active if cycle + 1 != sr[1].total]
            if active:
                ptrs, skips = _state_pointers(active)
    if tracer is not None:
        tracer.record(
            "batch_end",
            kind="sim-batch",
            runs=len(runs),
            # repro: allow[DET104]: trace timing is runtime metadata
            wall_seconds=time.perf_counter() - wall_start,
        )
    return results  # type: ignore[return-value]
