"""Parallel execution of independent ``simulate()`` points and LP solves.

Every experiment in the paper -- a latency-vs-load ladder, a saturation
bisection frontier, a multi-seed replication, Algorithm 1 Step 2's
5-pattern evaluation, Step 1's LP sweep -- reduces to batches of
*independent* tasks, and every simulation point of them is computed
here (ladders batch by batch, under :func:`repro.sim.sweep.run_ladders`'s
early stop).  :class:`SweepExecutor` fans such a batch out over
``jobs`` threads of the calling process, the calling thread included,
and returns results in task order, optionally short-circuiting each task
through the on-disk :class:`~repro.perf.cache.SimCache`.  Simulation
points and LP solves take the same threads: the native kernel's cycle
loop (``repro_run``) and HiGHS both release the GIL, so array-lane runs
and solves run in parallel.  Packet-lane runs (no C compiler, scheduled
traces, Python-only strategies or policies) run on the same threads and
return the same results, but they step the network in Python under the
GIL and do not speed up with ``jobs``.  The LP stack (``repro.model``,
and with it scipy) loads at the first model task: importing this module
and running simulation batches never pay for it.

Guarantees:

* **Determinism.**  Every run owns its network, generator and kernel
  state, and ``simulate()`` is a pure function of its task, so a point
  computed on a helper thread is bit-identical to :func:`run_task` on
  the calling thread, and result order never depends on completion
  order.  A sim task's declarative :class:`~repro.spec.RunSpec` keys
  the cache; nothing is pickled.  What runs share lives on the
  topology's :class:`~repro.routing.table.RouteTable` -- its images,
  compiled policy programs, channel layouts and the LP solver -- and is
  built once, under the table's lock, whichever threads ask at once;
  what depends on a run's rng (its sparse-policy reservoirs) lives on
  the run.
* **No thread outlives its batch.**  The helper pool is built per batch
  and shut down -- pending tasks cancelled, running ones awaited --
  before the batch returns or raises.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
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
from repro.routing.table import route_table
from repro.sim.engine import Run
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
    "usable_cpus",
]


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask, which
    can be narrower than the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - no affinity API


def default_jobs() -> int:
    """``$REPRO_JOBS`` if set (clamped to :func:`usable_cpus`), else 1:
    the ``jobs`` of a :class:`SweepExecutor` built without one.

    Oversubscribing a small host is strictly counterproductive for these
    CPU-bound threads (jobs=8 on a 1-CPU host once measured a 0.72x
    "speedup"), so the environment default can never exceed the CPUs
    this process may use.  An explicit ``jobs=`` argument may still ask
    for more threads, with a warning.  Unset, a batch runs on the
    calling thread alone; ``step1_sweep`` without an executor takes
    every usable CPU instead.
    """
    cap = usable_cpus()
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
    """One independent ``simulate()`` invocation.

    On construction the task derives its declarative :class:`RunSpec`
    (``None`` when a component is not a registered spec type); the
    spec, when present, keys the result cache.  The run itself uses the
    task's live objects (:func:`run_task`).
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
                self.spec = None  # ad-hoc components: uncacheable

    def key(self) -> Optional[str]:
        """Content-address of this task (``None`` = uncacheable)."""
        if self.spec is None:
            return None
        return spec_key(self.spec.fingerprint())

    def payload(self) -> Union[RunSpec, "SimTask"]:
        """The task's spec when it has one, else the task itself: the
        member form :func:`repro.sim.batch.simulate_batch` and the
        :class:`~repro.perf.planner.BatchPlanner` take."""
        return self.spec if self.spec is not None else self


def run_task(task: SimTask) -> SimResult:
    """Execute one task: the entry point of every simulation point the
    executor computes, on whichever of its threads.  The run takes the
    task's spec -- ``None`` included, for a task whose components have
    none -- so a point derives its identity once."""
    run = Run(
        task.topo,
        task.pattern,
        task.load,
        routing=task.routing,
        policy=task.policy,
        params=task.params,
        seed=task.seed,
        spec=task.spec,
    )
    run.advance(run.total)
    return run.finish()


@dataclass
class ModelTask:
    """One independent LP-model solve.

    The model analogue of :class:`SimTask`: on construction the task
    derives its :class:`ModelSpec` (``None`` when a component is not a
    registered spec type), the model-cache key material.  It is solved
    on a thread of the caller, through :func:`solver_for`.
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


def solver_for(topo: Dragonfly) -> FastModel:
    """This process's shared :class:`FastModel` of ``topo``: every solve,
    whichever thread runs it, reuses one per topology, so its structural
    state is built once per topology, not once per task.  It lives, and
    is evicted, with the topology's route table."""
    # lazy import: the LP stack (scipy) loads at the first model task,
    # never in a process that only simulates (and repro.routing, which
    # holds the table, never imports it)
    from repro.model.fastpath import FastModel

    return route_table(topo).fill("solver", None, lambda: FastModel(topo))


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


def _timed(
    run: Callable[[Any], Any], task: Any
) -> Tuple[Any, int, float, float]:
    """``(result, worker, started_epoch, duration_seconds)`` of one task
    run by ``run`` (:func:`run_task` or :func:`run_model_task`); the
    worker id is the computing thread's native id (on Linux the calling
    thread's is the pid)."""
    started = time.time()
    result = run(task)
    return result, threading.get_native_id(), started, time.time() - started


class SweepExecutor:
    """Runs batches of :class:`SimTask` / :class:`ModelTask` with optional
    parallelism and cache.

    ``jobs`` (default: :func:`default_jobs`) is the thread count for all
    work: each batch computes its cache misses, simulation points and LP
    solves alike, on ``jobs - 1`` helper threads plus the calling thread
    (:meth:`_threads`).  Array-lane runs and solves speed up with it;
    packet-lane runs hold the GIL while they step and do not.  ``cache``
    is an optional :class:`SimCache` consulted before computing and
    filled afterwards.  The executor is reusable across batches (helper
    threads live for one batch) and usable as a context manager.
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
            cap = usable_cpus()
            if self.jobs > cap:
                _log.warning(
                    "SweepExecutor(jobs=%d) oversubscribes this host "
                    "(%d CPU%s); CPU-bound threads will contend and can "
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
        # batch statistics (cumulative): tasks computed on a helper
        # thread / on the calling thread
        self.cache_hits = 0
        self.computed_parallel = 0
        self.computed_serial = 0

    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        return self.jobs > 1

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
        run: Callable[[Any], Any],
        cache_get: Optional[Callable],
        cache_put: Optional[Callable],
        kind: str,
    ) -> List:
        """Shared batch machinery: cache consult -> compute -> fill.

        Misses are computed by ``run`` on the batch's threads
        (:meth:`_threads`); results stream back in task order, lazily, so
        progress heartbeats and trace events fire as each task lands, not
        at batch end -- and always in this thread, like every cache
        consult and fill.
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
            stream = self._threads(run, [task for _i, _k, task in pending])
            with closing(stream):
                for (i, key, task), (mode, computed) in zip(pending, stream):
                    if mode == "parallel":
                        self.computed_parallel += 1
                    else:
                        self.computed_serial += 1
                    result, worker, started, duration = computed
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
                                    "worker": worker,
                                },
                            ]
                        )
                        tracer.record(
                            "task_finished",
                            kind=kind,
                            index=i,
                            label=label,
                            worker=worker,
                            started=started,
                            duration=duration,
                            mode=mode,
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

    def _threads(
        self, run: Callable[[Any], Any], tasks: List
    ) -> Iterator[Tuple[str, Tuple[Any, int, float, float]]]:
        """``(mode, computed)`` per task, in task order, lazily.

        Every task goes to a per-batch pool of ``jobs - 1`` helper
        threads; the calling thread works too.  Walking the tasks in
        order, it runs inline a task no helper has started yet
        (``cancel()`` succeeded), and while a helper is still busy with
        the next task due it takes over the last task nobody has started,
        keeping that result until its turn -- only waiting would leave it
        idle, as a helper that finishes claims the next task before the
        woken caller gets the GIL.  A result is a pure function of its
        task (each run owns its state; solves share one
        :class:`~repro.model.fastpath.FastModel` built for this), so
        which thread computed what cannot matter.  The pool is shut down
        -- pending tasks cancelled, running ones awaited -- before the
        stream ends, also when a task raises, so no thread outlives the
        batch.
        """
        helpers = min(self.jobs, len(tasks)) - 1
        if helpers < 1:
            for task in tasks:
                yield "serial", _timed(run, task)
            return
        pool = ThreadPoolExecutor(helpers, thread_name_prefix="repro-exec")
        try:
            futures = [pool.submit(_timed, run, task) for task in tasks]
            taken: Dict[int, Tuple[Any, int, float, float]] = {}
            back = len(tasks) - 1
            for i, (task, future) in enumerate(zip(tasks, futures)):
                if i in taken:
                    yield "serial", taken.pop(i)
                    continue
                if future.cancel():
                    yield "serial", _timed(run, task)
                    continue
                while back > i and not future.done():
                    if futures[back].cancel():
                        taken[back] = _timed(run, tasks[back])
                    back -= 1
                yield "parallel", future.result()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def run(self, tasks: Sequence[SimTask]) -> List[SimResult]:
        """Execute a sim batch; results align index-for-index with
        ``tasks``, each bit-identical to :func:`run_task` of its task."""
        cache = self.cache
        return self._execute(
            tasks,
            run_task,
            cache.get if cache is not None else None,
            cache.put if cache is not None else None,
            kind="sim",
        )

    def run_models(self, tasks: Sequence[ModelTask]) -> List[ModelResult]:
        """Execute a batch of LP-model solves, with the same threads,
        cache consult and deterministic ordering as :meth:`run` (model
        results live in the same :class:`SimCache` under their own record
        kind)."""
        cache = self.cache
        return self._execute(
            tasks,
            run_model_task,
            cache.get_model if cache is not None else None,
            cache.put_model if cache is not None else None,
            kind="model",
        )

    def run_one(self, task: SimTask) -> SimResult:
        """Convenience wrapper: a single point through cache + stats."""
        return self.run([task])[0]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release: helper threads end with their batch."""

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
