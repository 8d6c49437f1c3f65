"""Observability enablement: the ``obs`` field of ``SimParams``.

:class:`ObsConfig` is a small frozen dataclass that switches the
observability subsystem on for one run.  It is deliberately
**identity-neutral**: observability never changes simulation results
(asserted by the engine-parity test suite), so the config is excluded
from every spec fingerprint and cache key -- a traced run and an
untraced run of the same point share one cache entry, and enabling
tracing can never orphan previously cached results.

The default (``SimParams.obs is None``) is the fully uninstrumented
path; ``ObsConfig()`` with all defaults wires the no-op registry and no
sampler, so it is that same path: ``tests/test_obs_parity.py`` asserts
the wiring, the results and the number of kernel entries are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ObsConfig"]


@dataclass(frozen=True)
class ObsConfig:
    """Per-run observability switches (identity-neutral, see module doc).

    ``metrics``
        Collect engine counters into a live
        :class:`~repro.obs.metrics.MetricRegistry`; the snapshot lands on
        the run's :class:`~repro.obs.manifest.RunManifest`.  When false
        the engine is wired to the shared no-op registry.
    ``sample_every``
        Engine timeline sample period in cycles (0 disables sampling).
        Every sample records per-channel utilization aggregates, per-VC
        buffer occupancy, and the injection backlog.
    ``trace_dir``
        Directory receiving one ``engine-<seed>-<load>.jsonl`` timeline
        file per traced run (created on demand).  ``None`` keeps samples
        in memory, visible only to an active
        :func:`repro.obs.trace.capture` context (the in-process API).
    """

    metrics: bool = False
    sample_every: int = 0
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sample_every < 0:
            raise ValueError("sample_every must be >= 0 (0 disables)")

    @property
    def tracing(self) -> bool:
        """True when engine timeline sampling is switched on."""
        return self.sample_every > 0
