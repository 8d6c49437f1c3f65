"""Observability: metrics, event tracing, run manifests, progress, logging.

The subsystem behind ``ObsConfig`` (the optional ``obs`` field of
:class:`~repro.sim.params.SimParams`) and ``python -m repro obs``:

* :mod:`repro.obs.metrics` -- :class:`MetricRegistry` with
  counter/gauge/histogram instruments and a shared no-op registry, so
  the disabled path costs near-zero in the engine hot loop;
* :mod:`repro.obs.trace` -- :class:`Tracer`, an event log of engine
  timeline samples and executor lifecycles with JSONL and Chrome
  ``trace_event`` exporters (opens in ``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.manifest` -- :class:`RunManifest`, the provenance
  record attached to every ``SimResult``/``ModelResult`` and persisted
  alongside cache records;
* :mod:`repro.obs.progress` -- :class:`ProgressReporter`, heartbeat/ETA
  lines for sweep batches;
* :mod:`repro.obs.log` -- the ``repro`` logger hierarchy (NullHandler by
  default; ``-v`` on the CLI attaches a stderr handler).

Observability is identity-neutral by design: enabling it never changes
simulation results (asserted by the engine-parity tests) and never
changes spec fingerprints or cache keys, so traced runs stay cacheable
and reproducible.  See ``docs/observability.md``.
"""

from repro.obs.config import ObsConfig
from repro.obs.log import enable_verbose, get_logger, logger
from repro.obs.manifest import RunManifest
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
)
from repro.obs.progress import ProgressReporter
from repro.obs.trace import (
    EngineSampler,
    Tracer,
    active_capture,
    capture,
    channel_utilization,
    render_summary,
)

__all__ = [
    "Counter",
    "EngineSampler",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "ObsConfig",
    "ProgressReporter",
    "RunManifest",
    "Tracer",
    "active_capture",
    "capture",
    "channel_utilization",
    "enable_verbose",
    "get_logger",
    "logger",
    "render_summary",
]
