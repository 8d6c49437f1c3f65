"""Batch planning: group runs into ``simulate_batch`` units.

:class:`BatchPlanner` partitions a list of run payloads into *units* --
either a single payload executed by the ordinary single-run path, or a
group of compatible :class:`~repro.spec.RunSpec` payloads executed by
one :func:`~repro.sim.batch.simulate_batch` call, which runs them one
after another on one shared topology.  The
:class:`~repro.perf.executor.SweepExecutor` does not plan: it runs every
task alone on its threads.  The planner, the MIN rule and
``DEFAULT_MAX_BATCH`` stay because the repo's benchmark imports and
drives them (``min_ur_batch_g9``'s traced pass); their removal rides
with the benchmark-side change ROADMAP schedules.

Every run in a unit is the same ``Run`` as on the single-run path --
bit-identical results (the batch parity suite pins this), its own
RunSpec fingerprint, its own trace events.  The policy:

* eligible payloads are declarative ``RunSpec``s (live-object tasks
  cannot cross ``simulate_batch``'s validation), uninstrumented
  (``params.obs is None``) and MIN-routed;
* eligible payloads group by :func:`repro.sim.batch.compatibility_key`
  (topology, routing, policy); seed, load, pattern and measurement
  windows may differ within a group (ragged completion);
* groups chunk to ``max_batch`` (default 16) and, for ``jobs > 1``,
  spread into at least ``jobs`` units.

The native-kernel check lives in ``simulate_batch`` itself; a unit that
raises :class:`~repro.sim.batch.BatchUnsupported` runs per payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.sim.batch import compatibility_key
from repro.spec import RunSpec

__all__ = ["BatchPlanner", "BatchUnit"]

DEFAULT_MAX_BATCH = 16


@dataclass
class BatchUnit:
    """One work item: indices into the planned payload list."""

    indices: List[int]
    batched: bool


class BatchPlanner:
    """Partition pending payloads into single-run and batched units."""

    def __init__(self, max_batch: int = DEFAULT_MAX_BATCH,
                 jobs: int = 1) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.jobs = max(1, jobs)

    # ------------------------------------------------------------------
    @staticmethod
    def eligible(payload: object) -> bool:
        """Can (and should) this payload join a batched unit?"""
        if not isinstance(payload, RunSpec):
            return False
        if payload.params.obs is not None:
            return False
        base = payload.routing.lower()
        base = base[2:] if base.startswith("t-") else base
        return base == "min"

    def plan(self, payloads: Sequence) -> List[BatchUnit]:
        """Partition ``payloads`` into units covering each index once.

        Unit order follows first appearance, so with batching disabled
        (``max_batch=1``) the plan degenerates to the historical
        one-payload-per-unit stream in original order.
        """
        groups: Dict[Tuple, List[int]] = {}
        order: List[Tuple[int, BatchUnit]] = []
        for i, payload in enumerate(payloads):
            if self.max_batch > 1 and self.eligible(payload):
                groups.setdefault(compatibility_key(payload), []).append(i)
            else:
                order.append((i, BatchUnit([i], batched=False)))
        # repro: allow[DET102]: groups is keyed in first-payload order
        # (deterministic), and the final sort below orders units by
        # first index regardless of grouping order
        for indices in groups.values():
            cap = self.max_batch
            if self.jobs > 1:
                # spread the group over jobs units: a single giant unit
                # would serialize on one runner while the rest idle
                cap = min(cap, max(1, math.ceil(len(indices) / self.jobs)))
            for start in range(0, len(indices), cap):
                chunk = indices[start:start + cap]
                order.append(
                    (chunk[0], BatchUnit(chunk, batched=len(chunk) > 1))
                )
        order.sort(key=lambda item: item[0])
        return [unit for _first, unit in order]
