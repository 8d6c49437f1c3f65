"""Traced twins of the workload passes: spans around each layer's
public functions, recorded from the benchmark's own files.

Nothing here runs in a measured pass.  A traced pass repeats the
workload's work through the public *pieces* of each entry point so the
time can be attributed:

* simulator workloads use :func:`mirror_simulate`, a re-implementation of
  ``repro.sim.simulate``'s loop whose ``SimResult`` must equal the
  measured run's for every point (the parent checks it);
* ``step1_model_g9`` calls ``FastModel.solve`` per (datapoint, pattern);
* ``min_ur_batch_g9`` calls ``BatchPlanner.plan`` and ``simulate_batch``
  directly, plus one mirror pass over the highest-load point;
* ``tvlb_g9`` passes timing subclasses of ``SweepExecutor``/``SimCache``
  with a ``repro.obs.Tracer`` attached.

Spans (name, start, end, parent, run) stay in memory and are written out
when the child ends; per-cycle spans are folded into one summary span per
(point, layer) carrying a call count and the summed busy time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.sim import build_network
from repro.sim.packet import Packet
from repro.sim.routing import make_routing
from repro.sim.stats import StatsCollector
from repro.traffic.patterns import NO_TRAFFIC

import workloads as wl

now = time.perf_counter


class Spans:
    """In-memory span store for one traced child (``run`` = its id)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int],
        count: int = 1,
        busy: Optional[float] = None,
    ) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "run": self.run_id,
                "count": count,
                "busy_s": end - start if busy is None else busy,
            }
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: Optional[int]) -> Iterator[int]:
        start = now()
        idx = self.add(name, start, start, parent)
        try:
            yield idx
        finally:
            span = self.spans[idx]
            span["end"] = now()
            span["busy_s"] = span["end"] - start

    # --- per-layer totals -------------------------------------------
    def busy(self, name: str) -> float:
        return sum(s["busy_s"] for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(s["count"] for s in self.spans if s["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: busy minus what child spans cover.

        Summed over all names this equals the busy time of the root
        spans, i.e. the traced wall, by construction.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["busy_s"]
        out: Dict[str, float] = {}
        for span, child_time in zip(self.spans, covered):
            out[span["name"]] = (
                out.get(span["name"], 0.0) + span["busy_s"] - child_time
            )
        return out


class Fold:
    """Accumulates per-call timings of one parent span's hot layers."""

    def __init__(self) -> None:
        self.acc: Dict[str, List[float]] = {}

    def add(self, name: str, start: float, end: float) -> None:
        entry = self.acc.get(name)
        if entry is None:
            self.acc[name] = [end - start, 1, start, end]
        else:
            entry[0] += end - start
            entry[1] += 1
            entry[3] = end

    def flush(self, spans: Spans, parent: Optional[int]) -> Dict[str, int]:
        """One summary span per layer under ``parent``; returns their ids."""
        ids = {
            name: spans.add(name, first, last, parent, int(count), busy)
            for name, (busy, count, first, last) in self.acc.items()
        }
        self.acc = {}
        return ids


# ----------------------------------------------------------------------
# The simulator mirror driver
# ----------------------------------------------------------------------
def mirror_simulate(
    spans: Spans,
    parent: Optional[int],
    topo: Any,
    pattern: Any,
    load: float,
    *,
    routing: str,
    policy: Any,
    params: Any,
    seed: int,
    max_source_queue: int = 10_000,
) -> Any:
    """``repro.sim.simulate`` rebuilt from its public pieces, timed.

    Same statements in the same order as the engine's Bernoulli path
    (no observability, no scheduled patterns, no verify gate), so the
    returned ``SimResult`` is equal to ``simulate()``'s.
    """
    from repro.perf.cache import fingerprint as cache_fingerprint
    from repro.routing.pathset import reset_sample_memo
    from repro.spec import RunSpec

    fold = Fold()
    injected = 0
    with spans.span("sim.point", parent) as point:
        reset_sample_memo()
        with spans.span("sim.build_network", point):
            network = build_network(topo, params, routing)
        rng = np.random.default_rng(seed)
        with spans.span("routing.make", point):
            algo = make_routing(network, routing, policy=policy, rng=rng)
        stats = StatsCollector(topo.num_nodes, params.warmup_cycles)

        revise = algo.revise_at
        revise_acc = [0.0, 0, 0.0, 0.0]  # busy, calls, first, last

        def timed_revise(packet: Any, router_idx: int) -> None:
            start = now()
            revise(packet, router_idx)
            end = now()
            if not revise_acc[1]:
                revise_acc[2] = start
            revise_acc[0] += end - start
            revise_acc[1] += 1
            revise_acc[3] = end

        network.on_eject = stats.record_ejection
        network.on_eject_batch = stats.record_ejection_batch
        network.on_arrival = timed_revise

        nodes = np.arange(topo.num_nodes)
        total_cycles = params.total_cycles
        warmup_cycles = params.warmup_cycles
        for cycle in range(total_cycles):
            if cycle == warmup_cycles:
                network.reset_channel_counters()
            if load > 0.0:
                draws = rng.random(topo.num_nodes) < load
                srcs = nodes[draws]
                if srcs.size:
                    start = now()
                    dests = pattern.sample_destinations(srcs, rng)
                    fold.add("traffic.sample", start, now())
                    batch = []
                    for src, dst in zip(srcs.tolist(), dests.tolist()):
                        if dst == NO_TRAFFIC:
                            continue
                        if network.source_queue_len(src) >= max_source_queue:
                            continue
                        batch.append(Packet(src, int(dst), cycle))
                    if batch:
                        injected += len(batch)
                        start = now()
                        algo.route_packets(batch)
                        mid = now()
                        for packet in batch:
                            network.inject(packet)
                        end = now()
                        fold.add("routing.route", start, mid)
                        fold.add("sim.inject", mid, end)
            start = now()
            network.step()
            fold.add("sim.step", start, now())
        with spans.span("sim.finalize", point):
            network.finalize()

        measure_cycles = params.measure_windows * params.window_cycles
        with spans.span("sim.stats", point):
            result = stats.result(
                offered_load=load,
                measure_cycles=measure_cycles,
                sat_latency=params.sat_latency,
                routing=algo,
                sat_accept_factor=params.sat_accept_factor,
                live_fraction=pattern.live_fraction(),
            )
            result.channel_utilization = network.channel_utilization(
                measure_cycles
            )
        # simulate() derives the run's provenance fingerprints here
        with spans.span("spec.fingerprint", point) as fp:
            spec = RunSpec.from_objects(
                topo,
                pattern,
                load,
                routing=routing,
                policy=policy,
                params=params,
                seed=seed,
            )
            cache_fingerprint(
                topo,
                pattern,
                load,
                routing=routing,
                policy=policy,
                params=params,
                seed=seed,
            )
            spec.fingerprint()
            spans.spans[fp]["count"] = 2
        folded = fold.flush(spans, point)
        if revise_acc[1]:
            # revise_at runs inside step(): a child of the step span
            spans.add(
                "routing.revise",
                revise_acc[2],
                revise_acc[3],
                folded["sim.step"],
                int(revise_acc[1]),
                revise_acc[0],
            )
    spans.spans[point].update(
        packets=injected,
        cycles=total_cycles,
        min_chosen=result.min_chosen,
        vlb_chosen=result.vlb_chosen,
        par_revised=result.par_revised,
    )
    return result


def _sim_layer_metrics(spans: Spans) -> Dict[str, float]:
    """The routing/sim/traffic layer metrics from mirror-driver spans."""
    self_t = spans.self_times()
    points = [s for s in spans.spans if s["name"] == "sim.point"]
    packets = sum(s["packets"] for s in points)
    cycles = sum(s["cycles"] for s in points)
    decisions = sum(s["min_chosen"] + s["vlb_chosen"] for s in points)
    route_s = spans.busy("routing.route")
    revise_s = spans.busy("routing.revise")
    revise_calls = spans.calls("routing.revise")
    step_self = self_t.get("sim.step", 0.0)

    def per(total: float, count: float, scale: float) -> float:
        return total / count * scale if count else 0.0

    return {
        "traffic.sample_s": spans.busy("traffic.sample"),
        "traffic.sample_calls": spans.calls("traffic.sample"),
        "routing.make_s": spans.busy("routing.make"),
        "routing.route_s": route_s,
        "routing.route_packets": packets,
        "routing.route_us_per_packet": per(route_s, packets, 1e6),
        "routing.revise_s": revise_s,
        "routing.revise_calls": revise_calls,
        "routing.revise_us_per_call": per(revise_s, revise_calls, 1e6),
        "routing.vlb_chosen_share": per(
            sum(s["vlb_chosen"] for s in points), decisions, 1.0
        ),
        "routing.par_revised_share": per(
            sum(s["par_revised"] for s in points), packets, 1.0
        ),
        "sim.build_network_s": spans.busy("sim.build_network"),
        "sim.inject_s": spans.busy("sim.inject"),
        "sim.step_s": spans.busy("sim.step"),
        "sim.step_self_s": step_self,
        "sim.step_us_per_cycle": per(step_self, cycles, 1e6),
        "sim.finalize_s": spans.busy("sim.finalize"),
        "sim.stats_s": spans.busy("sim.stats"),
        "sim.driver_self_s": self_t.get("sim.point", 0.0),
        "sim.cycles": cycles,
        "sim.packets_injected": packets,
        "sim.points": len(points),
        "spec.fingerprint_s": spans.busy("spec.fingerprint"),
        "spec.fingerprints": spans.calls("spec.fingerprint"),
    }


# ----------------------------------------------------------------------
# Traced passes, one per workload class
# ----------------------------------------------------------------------
def trace_curves(work: wl.CurveWorkload, spans: Spans) -> Tuple[wl.Outcome, Dict]:
    """latency_vs_load's serial ladder, point by point through the mirror."""
    ladders: List[List[Any]] = []
    with spans.span("bench.pass", None) as root:
        for routing, policy in work.variants:
            with spans.span("sim.sweep", root) as sweep:
                results = []
                for load in work.loads:
                    result = mirror_simulate(
                        spans,
                        sweep,
                        work.topo,
                        work.pattern,
                        load,
                        routing=routing,
                        policy=policy,
                        params=work.params,
                        seed=work.seed,
                    )
                    results.append(result)
                    if work.cfg["stop_after_saturation"] and result.saturated:
                        break
                ladders.append(results)
    wall = spans.spans[root]["busy_s"]
    return work.outcome(ladders, wall), _sim_layer_metrics(spans)


def trace_batch(work: wl.BatchWorkload, spans: Spans) -> Tuple[wl.Outcome, Dict]:
    """The executor's jobs=1 path by hand: plan, then one simulate_batch
    (or a single run) per unit; then a mirror pass over the last point."""
    from repro.perf import BatchPlanner
    from repro.perf.planner import DEFAULT_MAX_BATCH
    from repro.sim.batch import simulate_batch

    with spans.span("bench.pass", None) as root:
        tasks = work.tasks()
        payloads = [task.payload() for task in tasks]
        with spans.span("perf.plan", root):
            units = BatchPlanner(
                max_batch=DEFAULT_MAX_BATCH, jobs=work.cfg["jobs"]
            ).plan(payloads)
        results: List[Any] = [None] * len(tasks)
        for unit in units:
            members = [payloads[i] for i in unit.indices]
            with spans.span("sim.batch.simulate_batch", root) as span:
                if len(members) > 1:
                    unit_results = simulate_batch(members)
                else:
                    unit_results = [members[0].run()]
                spans.spans[span]["count"] = len(members)
            for i, result in zip(unit.indices, unit_results):
                results[i] = result
    wall = spans.spans[root]["busy_s"]
    outcome = work.outcome(results, wall)

    # the saturated, deep-backlog point once more through the mirror, for
    # the sim.* layer split of MIN routing (outside the pass: extra work)
    load, run_seed = work.grid[-1]
    with spans.span("bench.mirror", None) as extra:
        mirrored = mirror_simulate(
            spans,
            extra,
            work.topo,
            work.pattern,
            load,
            routing=work.routing,
            policy=None,
            params=work.params,
            seed=run_seed,
        )
    if wl.sim_point("", mirrored) != wl.sim_point("", results[-1]):
        outcome.failures.append(
            "mirror driver result differs from simulate_batch's at "
            f"load {load:g}"
        )
    layers = _sim_layer_metrics(spans)
    batch_s = spans.busy("sim.batch.simulate_batch")
    runs = spans.calls("sim.batch.simulate_batch")
    layers.update(
        {
            "perf.plan_s": spans.busy("perf.plan"),
            "perf.tasks": len(tasks),
            "sim.batch.simulate_batch_s": batch_s,
            "sim.batch.units": len(units),
            "sim.batch.mean_size": runs / len(units),
            "sim.batch.us_per_run_cycle": batch_s
            / (runs * work.params.total_cycles)
            * 1e6,
        }
    )
    return outcome, layers


def trace_step1(work: wl.Step1Workload, spans: Spans) -> Tuple[wl.Outcome, Dict]:
    """step1_sweep's in-process path: one FastModel, one solve per
    (datapoint, pattern) in the sweep's task order."""
    from repro.model.fastpath import FastModel
    from repro.perf import ModelTask

    fold = Fold()
    first_solve = 0.0
    pattern_first = 0.0
    seen = set()
    rows: List[List[float]] = []
    with spans.span("bench.pass", None) as root:
        with spans.span("model.fastmodel_build", root):
            model = FastModel(work.topo, max_descriptors=None, seed=work.seed)
        for policy in work.grid:
            row = []
            for k, pattern in enumerate(work.patterns):
                start = now()
                task = ModelTask(
                    topo=work.topo,
                    pattern=pattern,
                    policy=policy,
                    mode="free",
                    seed=work.seed,
                )
                mid = now()
                demand = pattern.demand_matrix()
                t_solve = now()
                result = model.solve(demand, policy=policy, mode="free")
                t_done = now()
                task.key()
                end = now()
                fold.add("spec.fingerprint", start, mid)
                fold.add("traffic.sample", mid, t_solve)
                fold.add("model.solve", t_solve, t_done)
                fold.add("spec.fingerprint", t_done, end)
                if not rows and not row:
                    first_solve = t_done - t_solve
                if k not in seen:
                    seen.add(k)
                    pattern_first += t_done - t_solve
                row.append(result.throughput)
            rows.append(row)
        fold.flush(spans, root)
    wall = spans.spans[root]["busy_s"]
    solves = spans.calls("model.solve")
    solve_s = spans.busy("model.solve")
    layers = {
        "traffic.sample_s": spans.busy("traffic.sample"),
        "traffic.sample_calls": spans.calls("traffic.sample"),
        "spec.fingerprint_s": spans.busy("spec.fingerprint"),
        "spec.fingerprints": spans.calls("spec.fingerprint"),
        "model.fastmodel_build_s": spans.busy("model.fastmodel_build"),
        "model.first_solve_s": first_solve,
        "model.pattern_first_solve_s": pattern_first,
        "model.solve_s": solve_s,
        "model.solves": solves,
        "model.ms_per_solve": solve_s / solves * 1e3,
    }
    return work.outcome(rows, wall), layers


def _timing_classes(spans: Spans) -> Tuple[type, type]:
    """SweepExecutor/SimCache subclasses that time their public methods."""
    from repro.obs import Tracer
    from repro.perf import SimCache, SweepExecutor

    class TimingCache(SimCache):
        def __init__(self, root: str) -> None:
            super().__init__(root)
            self.fold = Fold()

        def _timed(self, name: str, method: Any, *args: Any) -> Any:
            start = now()
            try:
                return method(*args)
            finally:
                self.fold.add(name, start, now())

        def get(self, key: str) -> Any:
            return self._timed("perf.cache_get", super().get, key)

        def put(self, key: str, result: Any) -> None:
            self._timed("perf.cache_put", super().put, key, result)

        def get_model(self, key: str) -> Any:
            return self._timed("perf.cache_get", super().get_model, key)

        def put_model(self, key: str, result: Any) -> None:
            self._timed("perf.cache_put", super().put_model, key, result)

    class TimingExecutor(SweepExecutor):
        parent_span: Optional[int] = None  # the enclosing compute_tvlb

        def __init__(self, jobs: int, cache: Any) -> None:
            super().__init__(jobs=jobs, cache=cache, tracer=Tracer())
            self.seen_tasks: List[Any] = []

        def _spanned(self, name: str, method: Any, tasks: Any) -> Any:
            tasks = list(tasks)
            self.seen_tasks += tasks
            with spans.span(name, self.parent_span) as span:
                try:
                    return method(tasks)
                finally:
                    spans.spans[span]["count"] = len(tasks)
                    self.cache.fold.flush(spans, span)

        def run(self, tasks: Any) -> Any:
            return self._spanned("perf.run_sims", super().run, tasks)

        def run_models(self, tasks: Any) -> Any:
            return self._spanned("perf.run_models", super().run_models, tasks)

    return TimingExecutor, TimingCache


def _task_events(tracer: Any) -> Dict[str, float]:
    """Worker-side task time from the executor's Tracer events."""
    out = dict.fromkeys(
        ("busy", "wait", "tasks", "model_busy", "model_tasks", "sim_tasks"),
        0.0,
    )
    batch_start = 0.0
    for event in tracer.events:
        if event["type"] == "batch_start":
            batch_start = event["t"]
        elif event["type"] == "task_finished":
            out["tasks"] += 1
            out["busy"] += event["duration"]
            out["wait"] += event["started"] - batch_start
            if event["kind"] == "model":
                out["model_busy"] += event["duration"]
                out["model_tasks"] += 1
            else:
                out["sim_tasks"] += 1
    return out


def trace_tvlb(work: wl.TvlbWorkload, spans: Spans) -> Tuple[wl.Outcome, Dict]:
    """compute_tvlb cold and warm through the timing executor/cache.

    ``work`` was set up with the timing classes, so the primed pool is a
    TimingExecutor; its priming events are dropped first.
    """
    from repro.verify import verify_config

    cold_exec = work.executor
    spans.spans.clear()
    cold_exec.tracer.events.clear()
    cold_exec.seen_tasks.clear()
    primed = cold_exec.computed_parallel + cold_exec.computed_serial
    primed_misses = cold_exec.cache.misses
    jobs = work.cfg["jobs"]
    with spans.span("bench.pass", None) as root:
        with spans.span("core.compute_tvlb", root) as cold_span:
            cold_exec.parent_span = cold_span
            cold = work.compute(cold_exec)
        with spans.span("core.compute_tvlb", root) as warm_span:
            with work.executor_class(
                jobs, work.cache_class(work._tmp.name)
            ) as warm_exec:
                warm_exec.parent_span = warm_span
                warm = work.compute(warm_exec)
    work.warm_executor = warm_exec
    outcome = work.outcome(
        cold,
        warm,
        primed,
        spans.spans[cold_span]["busy_s"],
        spans.spans[warm_span]["busy_s"],
    )

    # post-hoc, outside the traced wall: what the in-call verification
    # and the warm half's task fingerprints cost on their own
    with spans.span("verify.config", None):
        verify_config(
            work.topo,
            cold.policy,
            scheme=work.topo.deadlock_vc_scheme or work.params.vc_scheme,
            routing="par",
            seed=work.seed,
        )
    with spans.span("spec.fingerprint", None) as fp:
        for task in warm_exec.seen_tasks:
            task.key()
        spans.spans[fp]["count"] = len(warm_exec.seen_tasks)

    events = _task_events(cold_exec.tracer)
    run_models = spans.busy("perf.run_models")
    run_sims = spans.busy("perf.run_sims")
    cold_cache, warm_cache = cold_exec.cache, warm_exec.cache
    layers = {
        "core.self_s": spans.self_times()["core.compute_tvlb"],
        "verify.config_s": spans.busy("verify.config"),
        "spec.fingerprint_s": spans.busy("spec.fingerprint"),
        "spec.fingerprints": spans.calls("spec.fingerprint"),
        "model.solve_s": events["model_busy"],
        "model.solves": events["model_tasks"],
        "model.ms_per_solve": (
            events["model_busy"] / events["model_tasks"] * 1e3
            if events["model_tasks"]
            else 0.0
        ),
        "sim.points": events["sim_tasks"],
        "perf.run_models_s": run_models,
        "perf.run_sims_s": run_sims,
        "perf.tasks": spans.calls("perf.run_models")
        + spans.calls("perf.run_sims"),
        "perf.task_busy_s": events["busy"],
        "perf.queue_wait_s": events["wait"],
        # executor wall beyond a perfect split of the busy time over the
        # workers: imbalance, pickling, IPC, cache consults and fills
        "perf.pool_overhead_s": run_models + run_sims - events["busy"] / jobs,
        "perf.cache_hits": cold_cache.hits + warm_cache.hits,
        "perf.cache_misses": cold_cache.misses - primed_misses
        + warm_cache.misses,
        "perf.warm_cache_misses": warm_cache.misses,
        "perf.cache_get_s": spans.busy("perf.cache_get"),
        "perf.cache_put_s": spans.busy("perf.cache_put"),
    }
    return outcome, layers


def traced_workload(name: str, size: str, seed: int, spans: Spans) -> wl.Workload:
    """The workload object a traced child sets up (tvlb_g9 gets the
    timing executor/cache classes before its pool is created)."""
    work = wl.make_workload(name, size, seed)
    if isinstance(work, wl.TvlbWorkload):
        work.executor_class, work.cache_class = _timing_classes(spans)
    return work


_TRACERS = {
    wl.CurveWorkload: trace_curves,
    wl.BatchWorkload: trace_batch,
    wl.Step1Workload: trace_step1,
    wl.TvlbWorkload: trace_tvlb,
}


def trace_pass(work: wl.Workload, spans: Spans) -> Tuple[wl.Outcome, Dict]:
    return _TRACERS[type(work)](work, spans)
