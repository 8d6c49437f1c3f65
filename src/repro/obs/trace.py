"""Event tracing: engine timelines, executor lifecycles, trace export.

A :class:`Tracer` is an append-only list of JSON-clean event dicts.  Two
producers feed it:

* the **engine** (``repro.sim.engine``) samples the network every K
  cycles -- per-channel utilization aggregates, per-VC buffer occupancy,
  injection backlog -- bracketed by ``run_start``/``run_end`` events;
* the **executor** (``repro.perf.executor``) records batch lifecycles --
  task submitted/finished with worker id and duration, cache hits,
  batch wall time.

Two export formats:

* **JSONL** (:meth:`Tracer.save_jsonl` / :meth:`Tracer.load_jsonl`) --
  one event per line, the durable on-disk form the CLI consumes;
* **Chrome ``trace_event``** (:meth:`Tracer.to_chrome` /
  :meth:`Tracer.export_chrome`) -- a JSON object that loads directly in
  ``chrome://tracing`` or https://ui.perfetto.dev: executor tasks appear
  as duration slices laid out per computing thread, cache hits as instant
  markers, and each engine run as its own process row of counter tracks
  (backlog, per-VC occupancy, utilization) with the cycle number as the
  microsecond timestamp.

In-process capture: ``with capture() as tracer: simulate(...)`` collects
engine events without going through a ``trace_dir`` file -- also those
of runs an executor computes on its helper threads, since the capture
stack is process-wide and a tracer takes concurrent writers.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "EngineSampler",
    "Tracer",
    "active_capture",
    "capture",
    "render_summary",
]

Event = Dict[str, Any]


class Tracer:
    """An append-only event log with JSONL and Chrome exporters.

    ``clock`` (default :func:`time.time`) stamps every event's ``t``
    field; tests inject a deterministic clock.  Events are plain dicts so
    the tracer has no schema lock-in beyond the ``type`` discriminator.
    :meth:`record` and :meth:`extend` may be called from any thread: an
    extend lands as one contiguous run of events.
    """

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self.events: List[Event] = []
        self._clock = clock
        self._lock = threading.Lock()

    def record(self, type_: str, **fields: Any) -> Event:
        """Append one event; returns the stored dict."""
        event: Event = {"type": type_, "t": self._clock()}
        event.update(fields)
        with self._lock:
            self.events.append(event)
        return event

    def extend(self, events: List[Event]) -> None:
        """Append already-stamped events (merging another tracer's log)."""
        with self._lock:
            self.events.extend(events)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # JSONL round trip
    # ------------------------------------------------------------------
    def save_jsonl(self, path: str) -> None:
        """Write one JSON object per line (the durable trace form)."""
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            for event in self.events:
                fh.write(json.dumps(event, sort_keys=True))
                fh.write("\n")

    @classmethod
    def load_jsonl(cls, path: str) -> "Tracer":
        """Read a JSONL trace back into a tracer (blank lines skipped)."""
        tracer = cls()
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    tracer.events.append(json.loads(line))
        return tracer

    # ------------------------------------------------------------------
    # Chrome trace_event export
    # ------------------------------------------------------------------
    def to_chrome(self) -> Dict[str, Any]:
        """Render the log as a Chrome ``trace_event`` JSON object.

        Wall-clock events are rebased to the earliest ``t`` in the log
        (microsecond timestamps); engine samples use their cycle number
        as the timestamp, each run on its own process row.
        """
        wall = [
            e["t"]
            for e in self.events
            if e.get("t") is not None and e["type"] != "engine_sample"
        ]
        origin = min(wall) if wall else 0.0

        def us(t: float) -> float:
            return (t - origin) * 1e6

        trace: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": 1,
                "tid": 0,
                "args": {"name": "executor"},
            }
        ]
        engine_pids: Dict[str, int] = {}

        def engine_pid(run: str) -> int:
            pid = engine_pids.get(run)
            if pid is None:
                pid = 100 + len(engine_pids)
                engine_pids[run] = pid
                trace.append(
                    {
                        "ph": "M",
                        "name": "process_name",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": f"engine {run}"},
                    }
                )
            return pid

        open_batches: List[Event] = []
        for event in self.events:
            kind = event["type"]
            if kind == "task_finished":
                started = event.get("started", event["t"])
                trace.append(
                    {
                        "ph": "X",
                        "name": event.get("label", "task"),
                        "cat": event.get("kind", "sim"),
                        "pid": 1,
                        "tid": event.get("worker", 0),
                        "ts": us(started),
                        "dur": event.get("duration", 0.0) * 1e6,
                        "args": {
                            "index": event.get("index"),
                            "mode": event.get("mode"),
                        },
                    }
                )
            elif kind == "cache_hit":
                trace.append(
                    {
                        "ph": "i",
                        "name": f"cache-hit {event.get('label', '')}",
                        "cat": event.get("kind", "sim"),
                        "pid": 1,
                        "tid": 0,
                        "ts": us(event["t"]),
                        "s": "p",
                    }
                )
            elif kind == "batch_start":
                open_batches.append(event)
            elif kind == "batch_end":
                start = open_batches.pop() if open_batches else event
                trace.append(
                    {
                        "ph": "X",
                        "name": f"batch:{event.get('kind', 'sim')}",
                        "cat": "batch",
                        "pid": 1,
                        "tid": 0,
                        "ts": us(start["t"]),
                        "dur": max(event["t"] - start["t"], 0.0) * 1e6,
                        "args": {
                            "tasks": start.get("tasks"),
                            "cache_hits": event.get("cache_hits"),
                            "computed": event.get("computed"),
                        },
                    }
                )
            elif kind == "engine_sample":
                pid = engine_pid(str(event.get("run", "run")))
                ts = float(event.get("cycle", 0))
                trace.append(
                    {
                        "ph": "C",
                        "name": "backlog",
                        "pid": pid,
                        "tid": 0,
                        "ts": ts,
                        "args": {
                            "backlog": event.get("backlog", 0),
                            "in_flight": event.get("in_flight", 0),
                        },
                    }
                )
                occupancy = event.get("vc_occupancy") or []
                if occupancy:
                    trace.append(
                        {
                            "ph": "C",
                            "name": "vc_occupancy",
                            "pid": pid,
                            "tid": 0,
                            "ts": ts,
                            "args": {
                                f"vc{i}": v for i, v in enumerate(occupancy)
                            },
                        }
                    )
                util = event.get("util") or {}
                if util:
                    trace.append(
                        {
                            "ph": "C",
                            "name": "utilization",
                            "pid": pid,
                            "tid": 0,
                            "ts": ts,
                            "args": dict(util),
                        }
                    )
            elif kind in ("run_start", "run_end"):
                pid = engine_pid(str(event.get("run", "run")))
                trace.append(
                    {
                        "ph": "i",
                        "name": kind,
                        "pid": pid,
                        "tid": 0,
                        "ts": float(event.get("cycle", 0)),
                        "s": "p",
                    }
                )
        return {"traceEvents": trace, "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> None:
        """Write the Chrome ``trace_event`` JSON to ``path``."""
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)
            fh.write("\n")

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Aggregate view: per-kind task durations, cache rate, phases.

        The dict behind ``python -m repro obs summarize``: per-kind task
        counts and duration stats, cache hit-rate, per-batch wall times,
        and engine-sample aggregates.
        """
        tasks: Dict[str, Dict[str, Any]] = {}
        batches: List[Dict[str, Any]] = []
        cache_hits = 0
        computed = 0
        samples = 0
        max_backlog = 0
        runs: Dict[str, int] = {}
        for event in self.events:
            kind = event["type"]
            if kind == "task_finished":
                bucket = tasks.setdefault(
                    event.get("kind", "sim"),
                    {"count": 0, "total": 0.0, "max": 0.0},
                )
                duration = float(event.get("duration", 0.0))
                bucket["count"] += 1
                bucket["total"] += duration
                bucket["max"] = max(bucket["max"], duration)
                computed += 1
            elif kind == "cache_hit":
                cache_hits += 1
            elif kind == "batch_end":
                batches.append(
                    {
                        "kind": event.get("kind", "sim"),
                        "tasks": event.get("computed", 0)
                        + event.get("cache_hits", 0),
                        "cache_hits": event.get("cache_hits", 0),
                        "wall_seconds": event.get("wall_seconds", 0.0),
                    }
                )
            elif kind == "engine_sample":
                samples += 1
                max_backlog = max(max_backlog, int(event.get("backlog", 0)))
                run = str(event.get("run", "run"))
                runs[run] = runs.get(run, 0) + 1
        # repro: allow[DET102]: each bucket's mean is computed from that
        # bucket alone; iteration order cannot leak into any value
        for bucket in tasks.values():
            bucket["mean"] = (
                bucket["total"] / bucket["count"] if bucket["count"] else 0.0
            )
        total_points = cache_hits + computed
        return {
            "events": len(self.events),
            "tasks": tasks,
            "batches": batches,
            "cache_hits": cache_hits,
            "computed": computed,
            "cache_hit_rate": (
                cache_hits / total_points if total_points else 0.0
            ),
            "engine_samples": samples,
            "engine_runs": len(runs),
            "max_backlog": max_backlog,
        }


def render_summary(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of :meth:`Tracer.summary`."""
    lines = [f"events: {summary['events']}"]
    for kind, stats in sorted(summary["tasks"].items()):
        lines.append(
            f"  {kind} tasks: {stats['count']} computed, "
            f"total {stats['total']:.3f}s, mean {stats['mean']:.3f}s, "
            f"max {stats['max']:.3f}s"
        )
    lines.append(
        f"  cache: {summary['cache_hits']} hits / "
        f"{summary['cache_hits'] + summary['computed']} points "
        f"({summary['cache_hit_rate']:.0%} hit rate)"
    )
    # one line per kind: a ladder under its early stop is one batch
    # per point
    kinds: Dict[str, List[Dict[str, Any]]] = {}
    for batch in summary["batches"]:
        kinds.setdefault(batch["kind"], []).append(batch)
    for kind, batches in sorted(kinds.items()):
        lines.append(
            f"  batch[{kind}]: {len(batches)} batch"
            f"{'es' if len(batches) != 1 else ''}, "
            f"{sum(b['tasks'] for b in batches)} points in "
            f"{sum(b['wall_seconds'] for b in batches):.3f}s "
            f"({sum(b['cache_hits'] for b in batches)} cache hits)"
        )
    if summary["engine_samples"]:
        lines.append(
            f"  engine: {summary['engine_samples']} samples over "
            f"{summary['engine_runs']} run(s), "
            f"max backlog {summary['max_backlog']}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# In-process capture of engine tracers
# ---------------------------------------------------------------------------
_CAPTURE_STACK: List[Tracer] = []


def active_capture() -> Optional[Tracer]:
    """The innermost active :func:`capture` tracer, or ``None``."""
    return _CAPTURE_STACK[-1] if _CAPTURE_STACK else None


@contextmanager
def capture(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Collect engine trace events emitted inside the context.

    ``simulate()`` merges each traced run's events into the innermost
    active capture tracer, so in-process callers need no ``trace_dir``::

        with capture() as tracer:
            simulate(topo, pattern, load, params=traced_params)
        tracer.export_chrome("run.json")
    """
    sink = tracer if tracer is not None else Tracer()
    _CAPTURE_STACK.append(sink)
    try:
        yield sink
    finally:
        _CAPTURE_STACK.pop()


def channel_utilization(totals: Any, cycles: int) -> Dict[str, float]:
    """Mean and max flits per cycle of the local and the global switch
    channels, from ``totals`` -- the ``(local, global)`` flit-count
    arrays of a network's ``channel_flit_totals()``, or the difference
    of two of them -- over ``cycles``.

    The one reduction behind ``SimResult.channel_utilization`` on both
    engines and the sampler's ``util``: each count is divided by the
    cycles first, then reduced, and a kind with no channel reads 0.0.
    """
    out: Dict[str, float] = {}
    for kind, flits in zip(("local", "global"), totals):
        util = flits / max(cycles, 1)
        out[f"{kind}_mean"] = float(util.mean()) if util.size else 0.0
        out[f"{kind}_max"] = float(util.max()) if util.size else 0.0
    return out


class EngineSampler:
    """Periodic network-state sampler feeding a :class:`Tracer`.

    Built by a :class:`~repro.sim.engine.Run` when
    ``ObsConfig.sample_every > 0``.  Each sample turns the network's
    cumulative flit counters into per-period utilization
    (flits/cycle/channel) via a kept baseline; the engine calls
    :meth:`rebase` at the warmup boundary, where the network's counters
    are reset underneath us.
    """

    def __init__(self, tracer: Tracer, network: Any, run: str) -> None:
        self.tracer = tracer
        self.network = network
        self.run = run
        self._last_cycle = 0
        self._last_totals = network.channel_flit_totals()

    def rebase(self) -> None:
        """Re-anchor the utilization baseline (after a counter reset)."""
        self._last_cycle = self.network.cycle
        self._last_totals = self.network.channel_flit_totals()

    def sample(self) -> None:
        """Record one ``engine_sample`` event at the current cycle."""
        network = self.network
        cycle = network.cycle
        local, glob = network.channel_flit_totals()
        prev_local, prev_glob = self._last_totals
        util = channel_utilization(
            (local - prev_local, glob - prev_glob), cycle - self._last_cycle
        )
        self._last_cycle = cycle
        self._last_totals = (local, glob)
        self.tracer.record(
            "engine_sample",
            run=self.run,
            cycle=cycle,
            backlog=network.injection_backlog(),
            in_flight=network.in_flight(),
            vc_occupancy=network.vc_occupancy(),
            util=util,
        )
