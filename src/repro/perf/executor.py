"""Parallel execution of independent ``simulate()`` points and LP solves.

Every experiment in the paper -- a latency-vs-load ladder, a saturation
bisection frontier, a multi-seed replication, Algorithm 1 Step 2's
5-pattern evaluation -- reduces to a batch of *independent* simulation
points.  :class:`SweepExecutor` fans such a batch out across worker
processes and returns results in task order, optionally short-circuiting
each point through the on-disk :class:`~repro.perf.cache.SimCache`.
Batches of LP-model solves (Algorithm 1 Step 1, the adversary search)
fan out over threads of the calling process instead: HiGHS releases the
GIL, and every thread solves through the one memoized
:class:`~repro.model.fastpath.FastModel` of its topology.  The LP stack
(``repro.model``, and with it scipy) loads at the first model task:
importing this module, running simulation batches and forking their
workers never pay for it.

Guarantees:

* **Determinism.**  A task is fully described by picklable inputs and
  ``simulate()`` is a pure function of them, so the parallel path returns
  bit-identical results to the serial path and result order never depends
  on completion order.  Sim tasks whose components are registered spec
  types ship their compact :class:`~repro.spec.RunSpec` to workers (the
  worker rebuilds topology and pattern from the declarative form); only
  tasks the spec layer cannot describe ship live objects.  Model tasks
  are never pickled.
* **Graceful degradation.**  ``jobs=1``, a single-task batch, or a host
  where process pools cannot be created (sandboxes without fork/semaphore
  support) all run serially in-process -- same results, no crash.  A
  worker process that dies mid-batch (killed, out of memory) costs the
  batch its pool, not its results: the units that had not landed are
  recomputed in-process and the next batch gets a fresh pool.

The worker entry points are module-level (:func:`run_task`,
:func:`_run_payload`), so both the ``fork`` and ``spawn`` multiprocessing
start methods work.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import ProgressReporter, Tracer, active_capture
from repro.obs.log import get_logger
from repro.obs.manifest import RunManifest
from repro.perf.cache import SimCache, model_fingerprint, spec_key
from repro.routing.pathset import PathPolicy
from repro.routing.table import topology_key
from repro.sim.engine import simulate
from repro.sim.params import SimParams
from repro.sim.stats import SimResult
from repro.spec import ModelSpec, RunSpec, SpecError
from repro.topology.dragonfly import Dragonfly
from repro.traffic.patterns import TrafficPattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.fastpath import FastModel
    from repro.model.lp_model import ModelResult

_log = get_logger("perf.executor")

__all__ = [
    "ModelTask",
    "SimTask",
    "SweepExecutor",
    "default_jobs",
    "run_model_task",
    "run_task",
    "solver_for",
]


def default_jobs() -> int:
    """``$REPRO_JOBS`` if set (clamped to the CPU count), else 1: the
    ``jobs`` of a :class:`SweepExecutor` built without one.

    Oversubscribing a small host is strictly counterproductive for these
    CPU-bound workers (jobs=8 on a 1-CPU host once measured a 0.72x
    "speedup"), so the environment default can never exceed
    ``os.cpu_count()``.  An explicit ``jobs=`` argument may still
    force a larger pool, with a warning.  The default is conservative
    because a worker process costs a whole interpreter; a thread solving
    LPs costs about 2 MB, so ``step1_sweep`` without an executor takes
    every CPU this process may use instead.
    """
    cap = os.cpu_count() or 1
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return min(cap, max(1, int(env)))
        except ValueError:
            _log.warning(
                "ignoring REPRO_JOBS=%r: not an integer; using 1 job", env
            )
    return 1


@dataclass
class SimTask:
    """One independent ``simulate()`` invocation (picklable).

    On construction the task derives its declarative :class:`RunSpec`
    (``None`` when a component is not a registered spec type); the spec,
    when present, is what crosses the process boundary and what keys the
    result cache.
    """

    topo: Dragonfly
    pattern: TrafficPattern
    load: float
    routing: str = "ugal-l"
    policy: Optional[PathPolicy] = None
    params: Optional[SimParams] = None
    seed: int = 0
    spec: Optional[RunSpec] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.spec is None:
            try:
                self.spec = RunSpec.from_objects(
                    self.topo,
                    self.pattern,
                    self.load,
                    routing=self.routing,
                    policy=self.policy,
                    params=self.params,
                    seed=self.seed,
                )
            except SpecError:
                self.spec = None  # ad-hoc components: ship live objects

    def key(self) -> Optional[str]:
        """Content-address of this task (``None`` = uncacheable)."""
        if self.spec is None:
            return None
        return spec_key(self.spec.fingerprint())

    def payload(self) -> Union[RunSpec, "SimTask"]:
        """What to ship to a worker: the spec when one exists."""
        return self.spec if self.spec is not None else self


def run_task(task: SimTask) -> SimResult:
    """Execute one task (also the serial path)."""
    return simulate(
        task.topo,
        task.pattern,
        task.load,
        routing=task.routing,
        policy=task.policy,
        params=task.params,
        seed=task.seed,
    )


def _run_payload(payload: Union[RunSpec, SimTask]) -> SimResult:
    """Worker entry point: a declarative spec or a live-object task."""
    if isinstance(payload, RunSpec):
        return payload.run()
    return run_task(payload)


def _run_payload_timed(
    payload: Union[RunSpec, SimTask],
) -> Tuple[SimResult, int, float, float]:
    """Worker entry point with lifecycle telemetry.

    Returns ``(result, worker_pid, started_epoch, duration_seconds)`` so
    the parent can emit ``task_started``/``task_finished`` trace events
    laid out per worker process without any cross-process tracer.
    """
    started = time.time()
    result = _run_payload(payload)
    return result, os.getpid(), started, time.time() - started


def _run_unit_timed(
    payloads: Sequence[Union[RunSpec, SimTask]],
) -> List[Tuple[SimResult, int, float, float]]:
    """Worker entry point for one planner unit (one or many payloads).

    Multi-payload units run through :func:`repro.sim.batch.
    simulate_batch` -- its runs one after another on one topology, each
    result bit-identical to its single-run form.  A batch the host
    cannot execute (no native kernel, incompatible members the planner
    could not see) degrades to per-payload execution *inside the
    worker*, so the parent never needs a second round trip.  Per-run
    completion times come from the batch's ``on_result`` callback
    (ragged batches finish runs at different cycles).
    """
    payloads = list(payloads)
    started = time.time()
    pid = os.getpid()
    if len(payloads) > 1:
        from repro.sim.batch import BatchUnsupported, simulate_batch

        finished_at: Dict[int, float] = {}
        try:
            results = simulate_batch(
                payloads,
                on_result=lambda slot, _r: finished_at.__setitem__(
                    slot, time.time()
                ),
            )
        except BatchUnsupported:
            _log.debug(
                "batched unit of %d runs unsupported here; falling back "
                "to per-run execution",
                len(payloads),
            )
        else:
            return [
                (result, pid, started, finished_at.get(slot, time.time()) - started)
                for slot, result in enumerate(results)
            ]
    return [_run_payload_timed(payload) for payload in payloads]


@dataclass
class ModelTask:
    """One independent LP-model solve.

    The model analogue of :class:`SimTask`: on construction the task
    derives its :class:`ModelSpec` (``None`` when a component is not a
    registered spec type), the model-cache key material.  A model task
    never leaves its process: it is solved on a thread of the caller,
    through :func:`solver_for`.
    """

    topo: Dragonfly
    pattern: TrafficPattern
    policy: PathPolicy
    mode: str = "uniform"
    monotonic: bool = True
    seed: int = 0
    spec: Optional[ModelSpec] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.spec is None:
            try:
                self.spec = ModelSpec.from_objects(
                    self.topo,
                    self.pattern,
                    self.policy,
                    mode=self.mode,
                    monotonic=self.monotonic,
                    seed=self.seed,
                )
            except SpecError:
                self.spec = None  # ad-hoc components: uncacheable

    def key(self) -> Optional[str]:
        """Content-address of this solve (``None`` = uncacheable)."""
        if self.spec is None:
            return None
        return model_fingerprint(self.spec)


# Per-process solver memo: every solve in this process, whichever thread
# runs it, reuses one FastModel per topology, so the expensive structural
# factorization is paid once per topology, not once per task.  Bounded to
# a handful of topologies; the lock makes fill and eviction atomic.
_SOLVER_MEMO: Dict[Tuple, FastModel] = {}
_SOLVER_MEMO_MAX = 4
_SOLVER_LOCK = threading.Lock()


def solver_for(topo: Dragonfly) -> FastModel:
    """This process's shared :class:`FastModel` of ``topo``."""
    # lazy import: the LP stack (scipy) loads at the first model task,
    # never in a process that only simulates
    from repro.model.fastpath import FastModel

    key = topology_key(topo)
    with _SOLVER_LOCK:
        solver = _SOLVER_MEMO.get(key)
        if solver is None:
            if len(_SOLVER_MEMO) >= _SOLVER_MEMO_MAX:
                _SOLVER_MEMO.pop(next(iter(_SOLVER_MEMO)))
            solver = _SOLVER_MEMO[key] = FastModel(topo)
    return solver


def run_model_task(task: ModelTask) -> ModelResult:
    """Execute one model solve through :func:`solver_for`, from any
    thread."""
    solver = solver_for(task.topo)
    demand = task.pattern.demand_matrix()
    wall_start = time.perf_counter()
    try:
        result = solver.solve(
            demand,
            policy=task.policy,
            mode=task.mode,
            monotonic=task.monotonic,
        )
    except RuntimeError as exc:  # a failed solve: name the pattern too
        raise RuntimeError(
            f"{exc}, pattern {task.pattern.describe()}"
        ) from exc
    result.manifest = RunManifest(
        kind="model",
        fingerprint=task.key(),
        spec_fingerprint=(
            task.spec.fingerprint() if task.spec is not None else None
        ),
        topology=str(task.topo),
        routing="fast",  # format constant, like ModelSpec's "engine"
        load=None,
        seed=int(task.seed),
        wall_seconds=time.perf_counter() - wall_start,
    )
    return result


def _run_model_timed(task: ModelTask) -> Tuple[ModelResult, int, float, float]:
    """Model analogue of :func:`_run_payload_timed`; the worker id is the
    solving thread's native id (on Linux the calling thread's is the
    pid)."""
    started = time.time()
    result = run_model_task(task)
    return result, threading.get_native_id(), started, time.time() - started


class SweepExecutor:
    """Runs batches of :class:`SimTask` / :class:`ModelTask` with optional
    parallelism and cache.

    ``jobs`` (default: ``$REPRO_JOBS`` or 1) is the worker-process count
    for simulations and the thread count for LP solves: :meth:`run_models`
    solves its cache misses on ``jobs - 1`` helper threads plus the
    calling thread.  ``cache`` is an optional :class:`SimCache` consulted
    before computing and filled afterwards.  The executor is reusable
    across batches (the process pool persists until :meth:`close`; a
    thread pool lives for one model batch) and usable as a context
    manager.

    Cache-miss sim payloads are grouped into work units by the
    :class:`~repro.perf.planner.BatchPlanner`; a unit's runs execute one
    after another, each result bit-identical to its single-run form and
    cache/trace/progress per task, so the serial ``jobs=1`` path groups
    too.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[SimCache] = None,
        tracer: Optional[Tracer] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        if jobs is None:
            self.jobs = default_jobs()
        else:
            self.jobs = max(1, int(jobs))
            cap = os.cpu_count() or 1
            if self.jobs > cap:
                _log.warning(
                    "SweepExecutor(jobs=%d) oversubscribes this host "
                    "(%d CPU%s); CPU-bound workers will contend and can "
                    "run slower than serial",
                    self.jobs,
                    cap,
                    "s" if cap != 1 else "",
                )
        self.cache = cache
        # explicit tracer wins; otherwise each batch picks up the
        # innermost capture() tracer active at call time (if any)
        self.tracer = tracer
        self.progress = progress
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_broken = False
        # batch statistics (cumulative)
        self.cache_hits = 0
        self.computed_parallel = 0
        self.computed_serial = 0

    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        return self.jobs > 1 and not self._pool_broken

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self._pool_broken:
            return None
        if self._pool is None:
            try:
                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX hosts
                    ctx = multiprocessing.get_context()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=ctx
                )
            except (OSError, ValueError):  # pragma: no cover - no mp support
                self._pool_broken = True
                return None
        return self._pool

    # ------------------------------------------------------------------
    @staticmethod
    def _task_label(task: object) -> str:
        """Compact display label of a task (trace/progress cosmetics)."""
        load = getattr(task, "load", None)
        if load is not None:
            return f"{getattr(task, 'routing', '?')}@{load:g}"
        return f"model:{getattr(task, 'mode', '?')}"

    def _execute(
        self,
        tasks: Sequence,
        cache_get: Optional[Callable],
        cache_put: Optional[Callable],
        kind: str,
    ) -> List:
        """Shared batch machinery: cache consult -> compute -> fill.

        Misses are computed as units, each yielding one ``(result,
        worker, started, duration)`` per task; results stream back in
        unit order, lazily, so progress heartbeats and trace events fire
        as each unit lands, not at batch end -- and always in this
        thread, like every cache consult and fill.  Sim misses are
        grouped into multi-run units by the
        :class:`~repro.perf.planner.BatchPlanner` and run in the process
        pool; model misses are one unit each, solved on threads
        (:meth:`_threads`).
        """
        tasks = list(tasks)
        tracer = self.tracer if self.tracer is not None else active_capture()
        progress = self.progress
        results: List = [None] * len(tasks)
        pending: List[tuple] = []  # (index, cache key, task)
        batch_hits = 0
        wall_start = time.time()
        if progress is not None:
            progress.start(len(tasks))
        if tracer is not None:
            tracer.record("batch_start", kind=kind, tasks=len(tasks))
        for i, task in enumerate(tasks):
            key = task.key() if cache_get is not None else None
            if key is not None:
                hit = cache_get(key)
                if hit is not None:
                    results[i] = hit
                    self.cache_hits += 1
                    batch_hits += 1
                    if tracer is not None:
                        tracer.record(
                            "cache_hit",
                            kind=kind,
                            index=i,
                            label=self._task_label(task),
                        )
                    if progress is not None:
                        progress.advance(cache_hit=True)
                    continue
            pending.append((i, key, task))

        if pending:
            if kind == "model":
                units = [[j] for j in range(len(pending))]
                stream = self._threads([t for _i, _k, t in pending])
            else:
                payloads = [t.payload() for _i, _k, t in pending]
                if len(pending) > 1:
                    from repro.perf.planner import BatchPlanner

                    planner = BatchPlanner(jobs=self.jobs)
                    units = [u.indices for u in planner.plan(payloads)]
                else:
                    units = [[j] for j in range(len(payloads))]
                pool = (
                    self._ensure_pool()
                    if self.jobs > 1 and len(units) > 1
                    else None
                )
                stream = self._stream(
                    [[payloads[j] for j in unit] for unit in units],
                    pool,
                    tracer,
                )
            with closing(stream):
                for unit, (mode, computed_unit) in zip(units, stream):
                    batched = len(unit) > 1
                    if mode == "parallel":
                        self.computed_parallel += len(unit)
                    else:
                        self.computed_serial += len(unit)
                    for j, computed in zip(unit, computed_unit):
                        i, key, task = pending[j]
                        result, worker_pid, started, duration = computed
                        results[i] = result
                        if tracer is not None:
                            label = self._task_label(task)
                            tracer.extend(
                                [
                                    {
                                        "type": "task_submitted",
                                        "t": wall_start,
                                        "kind": kind,
                                        "index": i,
                                        "label": label,
                                    },
                                    {
                                        "type": "task_started",
                                        "t": started,
                                        "kind": kind,
                                        "index": i,
                                        "label": label,
                                        "worker": worker_pid,
                                    },
                                ]
                            )
                            tracer.record(
                                "task_finished",
                                kind=kind,
                                index=i,
                                label=label,
                                worker=worker_pid,
                                started=started,
                                duration=duration,
                                mode=mode,
                                batched=batched,
                            )
                        if progress is not None:
                            progress.advance()
                        manifest = getattr(result, "manifest", None)
                        if cache_put is not None and key is not None:
                            if manifest is not None:
                                manifest.cache = "stored"
                            cache_put(key, result)
                        elif cache_get is not None and manifest is not None:
                            # a cache was consulted but this point has no key
                            manifest.cache = "uncacheable"
        if tracer is not None:
            tracer.record(
                "batch_end",
                kind=kind,
                cache_hits=batch_hits,
                computed=len(pending),
                wall_seconds=time.time() - wall_start,
            )
        if progress is not None:
            progress.finish()
        return results

    def _stream(
        self,
        unit_payloads: List[List],
        pool: Optional[ProcessPoolExecutor],
        tracer: Optional[Tracer],
    ) -> Iterator[Tuple[str, List]]:
        """``(mode, computed unit)`` per sim unit, in unit order, lazily.

        Through ``pool`` while it lives.  When a worker process dies the
        pool raises ``BrokenProcessPool`` for every unit still out, and
        would for every later batch: it is discarded (the next batch
        builds a new one) and the units that had not landed are computed
        here -- a result is a pure function of its task, so which
        process computes it cannot matter.
        """
        landed = 0
        if pool is not None:
            try:
                for computed_unit in pool.map(_run_unit_timed, unit_payloads):
                    yield "parallel", computed_unit
                    landed += 1
            except BrokenProcessPool:
                self._pool = None
                pool.shutdown(wait=False, cancel_futures=True)
                _log.warning(
                    "a worker process died; recomputing %d of %d unit(s) "
                    "in-process",
                    len(unit_payloads) - landed,
                    len(unit_payloads),
                )
                if tracer is not None:
                    tracer.record(
                        "pool_broken",
                        kind="sim",
                        landed=landed,
                        recomputed=len(unit_payloads) - landed,
                    )
        for payloads in unit_payloads[landed:]:
            yield "serial", _run_unit_timed(payloads)

    def _threads(self, tasks: List[ModelTask]) -> Iterator[Tuple[str, List]]:
        """``(mode, [computed])`` per model task, in task order, lazily.

        Every task goes to a per-batch pool of ``jobs - 1`` helper
        threads; the calling thread works too.  Walking the tasks in
        order, it solves inline a task no helper has started yet
        (``cancel()`` succeeded), and while a helper is still busy with
        the next task due it takes over the last task nobody has started,
        keeping that result until its turn -- only waiting would leave it
        idle, as a helper that finishes claims the next task before the
        woken caller gets the GIL.  A result is a pure function
        of its task and every thread solves through the same shared
        :class:`~repro.model.fastpath.FastModel`, so which thread solved
        what cannot matter.  The pool is shut down -- pending tasks
        cancelled, running ones awaited -- before the stream ends, also
        when a solve raises, so no thread outlives the batch into a later
        fork of the process pool.
        """
        helpers = min(self.jobs, len(tasks)) - 1
        if helpers < 1:
            for task in tasks:
                yield "serial", [_run_model_timed(task)]
            return
        pool = ThreadPoolExecutor(helpers, thread_name_prefix="repro-lp")
        try:
            futures = [pool.submit(_run_model_timed, task) for task in tasks]
            taken: Dict[int, Tuple[ModelResult, int, float, float]] = {}
            back = len(tasks) - 1
            for i, (task, future) in enumerate(zip(tasks, futures)):
                if i in taken:
                    yield "serial", [taken.pop(i)]
                    continue
                if future.cancel():
                    yield "serial", [_run_model_timed(task)]
                    continue
                while back > i and not future.done():
                    if futures[back].cancel():
                        taken[back] = _run_model_timed(tasks[back])
                    back -= 1
                yield "parallel", [future.result()]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def run(self, tasks: Sequence[SimTask]) -> List[SimResult]:
        """Execute a sim batch; results align index-for-index with
        ``tasks``."""
        cache = self.cache
        return self._execute(
            tasks,
            cache.get if cache is not None else None,
            cache.put if cache is not None else None,
            kind="sim",
        )

    def run_models(self, tasks: Sequence[ModelTask]) -> List[ModelResult]:
        """Execute a batch of LP-model solves, with the same cache
        consult and deterministic ordering as :meth:`run` (model results
        live in the same :class:`SimCache` under their own record kind);
        the misses are solved on ``jobs`` threads of this process, the
        calling one included."""
        cache = self.cache
        return self._execute(
            tasks,
            cache.get_model if cache is not None else None,
            cache.put_model if cache is not None else None,
            kind="model",
        )

    def run_one(self, task: SimTask) -> SimResult:
        """Convenience wrapper: a single point through cache + stats."""
        return self.run([task])[0]

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def describe(self) -> str:
        mode = f"jobs={self.jobs}" if self.parallel else "serial"
        cache = "no cache" if self.cache is None else self.cache.describe()
        return (
            f"SweepExecutor({mode}, {cache}, hits={self.cache_hits}, "
            f"parallel={self.computed_parallel}, "
            f"serial={self.computed_serial})"
        )
