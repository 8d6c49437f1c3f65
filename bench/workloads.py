"""The five benchmark workloads: sizes, seeded inputs, public-call passes.

Imported only by ``bench/child.py`` (it imports ``repro``; the parent
``bench/run.py`` stays stdlib-only).  Every workload object has

* ``setup()``  -- build the inputs from spec strings and prime lazy
  state (what a user pays per process before the first useful cycle);
* ``run()``    -- one *pass*: the workload's fixed sequence of calls into
  the package's public entry points, returning an :class:`Outcome`;

and ``bench/tracing.py`` adds the traced twin of ``run()``.

The program under test receives only generated inputs: spec strings
(``"4,8,4,9"``, ``"shift:2,0"``, ``"strategic:2+3"``), load lists and
integer seeds, all derived from ``--seed`` here.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.sim import SimParams, latency_vs_load, simulate
from repro.spec import PatternSpec, PolicySpec, TopologySpec

from sizes import SIZES

# the SimResult fields the output checks, the parity check and the
# golden digests cover -- by name, so a field added to SimResult later
# does not flip a digest
SIM_FIELDS = (
    "offered_load",
    "accepted_rate",
    "avg_latency",
    "p99_latency",
    "avg_hops",
    "vlb_fraction",
    "packets_measured",
    "saturated",
    "min_chosen",
    "vlb_chosen",
    "par_revised",
)

ENGINE_PASSED = "engine" in {f.name for f in dataclasses.fields(SimParams)}


def sim_params(window_cycles: int) -> SimParams:
    """Array-engine params; ``engine`` is only passed while the field
    exists, so the benchmark survives the planned default flip."""
    if ENGINE_PASSED:
        return SimParams(window_cycles=window_cycles, engine="array")
    return SimParams(window_cycles=window_cycles)


@dataclasses.dataclass
class Outcome:
    """What one pass produced, in JSON-ready form."""

    points: List[Dict[str, Any]]  # one record per operation output
    ops: int  # operations attempted
    work: float  # work units done (sizes.WORK_UNIT)
    result_ratio: float
    failures: List[str] = dataclasses.field(default_factory=list)
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    wall_s: float = 0.0


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def sim_point(point_id: str, result: Any) -> Dict[str, Any]:
    record: Dict[str, Any] = {"id": point_id}
    for name in SIM_FIELDS:
        value = getattr(result, name)
        record[name] = value.item() if hasattr(value, "item") else value
    return record


def check_sim_point(
    record: Dict[str, Any], routing: str, nodes: int, measure_cycles: int
) -> List[str]:
    """The issue's SimResult checks; returns the violated ones."""
    bad = []
    for name in SIM_FIELDS:
        value = record[name]
        if isinstance(value, float) and not math.isfinite(value):
            bad.append(f"{record['id']}: {name} is {value}")
    if record["packets_measured"] <= 0:
        bad.append(f"{record['id']}: no packets measured")
    # accepted <= 1.05 x offered plus a counting-noise allowance: the
    # window's ejection count is Poisson-like around offered*nodes*cycles,
    # so the slack is 6 sigma of that count (it replaces the issue's
    # fixed +0.005, which is under 4 sigma at these short windows)
    slots = nodes * measure_cycles
    expected = record["offered_load"] * slots
    limit = (1.05 * expected + 6.0 * math.sqrt(expected) + 5.0) / slots
    if record["accepted_rate"] > limit:
        bad.append(
            f"{record['id']}: accepted {record['accepted_rate']:.4f} "
            f"> limit {limit:.4f}"
        )
    if routing == "min" and record["vlb_fraction"] != 0:
        bad.append(f"{record['id']}: min routing used VLB")
    return bad


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Common part: inputs from spec strings, timed set-up pieces."""

    def __init__(self, name: str, cfg: Dict[str, Any], seed: int) -> None:
        self.name = name
        self.cfg = cfg
        self.seed = seed
        # set-up pieces timed with two clock reads each (free), reported
        # by the traced run as the topology/traffic/spec layer metrics
        self.setup_times: Dict[str, float] = {}

    def _timed(self, key: str, fn: Any) -> Any:
        start = time.perf_counter()
        value = fn()
        self.setup_times[key] = (
            self.setup_times.get(key, 0.0) + time.perf_counter() - start
        )
        return value

    def build_topology(self) -> None:
        self.topo = self._timed(
            "topology.build_s",
            lambda: TopologySpec.parse(self.cfg["topology"]).build(),
        )

    def build_pattern(self) -> None:
        text = self.cfg["pattern"].format(seed=self.seed)
        self.pattern = self._timed(
            "traffic.build_s",
            lambda: PatternSpec.parse(text).build(self.topo),
        )

    def load_kernel(self) -> None:
        from repro.sim.array import load_kernel

        self._timed("sim.array.kernel_load_s", load_kernel)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Release what setup() opened (pools, temp dirs)."""


class CurveWorkload(Workload):
    """ugal_adv_g9 / par_mixed_g17: a baseline and a T- latency ladder."""

    def setup(self) -> None:
        self.build_topology()
        self.build_pattern()
        self.variants: List[Tuple[str, Any]] = []
        for routing, policy_text in self.cfg["variants"]:
            policy = None
            if policy_text is not None:
                policy = self._timed(
                    "spec.policy_build_s",
                    lambda text=policy_text: PolicySpec.parse(text).build(),
                )
            self.variants.append((routing, policy))
        self.params = sim_params(self.cfg["window_cycles"])
        self.loads = list(self.cfg["loads"])
        self.load_kernel()
        prime = sim_params(1)
        for routing, policy in self.variants:
            simulate(
                self.topo,
                self.pattern,
                self.loads[0],
                routing=routing,
                policy=policy,
                params=prime,
                seed=self.seed,
            )

    def run(self) -> Outcome:
        start = time.perf_counter()
        sweeps = [
            latency_vs_load(
                self.topo,
                self.pattern,
                self.loads,
                routing=routing,
                policy=policy,
                params=self.params,
                seed=self.seed,
                stop_after_saturation=self.cfg["stop_after_saturation"],
            )
            for routing, policy in self.variants
        ]
        wall = time.perf_counter() - start
        return self.outcome([s.results for s in sweeps], wall)

    def outcome(self, ladders: List[List[Any]], wall: float) -> Outcome:
        """Checks + headline ratios from one result list per variant."""
        points, failures = [], []
        measure = self.params.measure_windows * self.params.window_cycles
        for (routing, _policy), results in zip(self.variants, ladders):
            for result in results:
                record = sim_point(
                    f"{routing}@{result.offered_load:g}", result
                )
                points.append(record)
                failures += check_sim_point(
                    record, routing, self.topo.num_nodes, measure
                )
        base, custom = ladders[0], ladders[1]
        low = base[0].avg_latency / custom[0].avg_latency

        def sat(results: Sequence[Any]) -> float:
            ok = [r.accepted_rate for r in results if not r.saturated]
            return max(ok, default=0.0)

        sat_base = sat(base)
        return Outcome(
            points=points,
            ops=len(points),
            work=float(len(points) * self.params.total_cycles),
            # baseline / T-variant latency at the lowest load: > 1 means
            # the custom path set is faster (the paper's Fig-6 claim)
            result_ratio=low,
            failures=failures,
            extra={
                "result.t_lowload_latency_ratio": 1.0 / low,
                "result.t_sat_throughput_ratio": (
                    sat(custom) / sat_base if sat_base > 0 else 0.0
                ),
            },
            wall_s=wall,
        )


class BatchWorkload(Workload):
    """min_ur_batch_g9: MIN/UR points through SweepExecutor(jobs=1)."""

    def setup(self) -> None:
        self.build_topology()
        self.build_pattern()
        self.params = sim_params(self.cfg["window_cycles"])
        self.routing = self.cfg["routing"]
        per_load = self.cfg["seeds_per_load"]
        self.grid = [
            (load, self.seed * per_load + k)
            for load in self.cfg["loads"]
            for k in range(per_load)
        ]
        self.load_kernel()
        simulate(
            self.topo,
            self.pattern,
            self.grid[0][0],
            routing=self.routing,
            params=sim_params(1),
            seed=self.seed,
        )

    def tasks(self) -> List[Any]:
        from repro.perf import SimTask

        return [
            SimTask(
                self.topo,
                self.pattern,
                load,
                routing=self.routing,
                params=self.params,
                seed=run_seed,
            )
            for load, run_seed in self.grid
        ]

    def run(self) -> Outcome:
        from repro.perf import SweepExecutor

        start = time.perf_counter()
        with SweepExecutor(jobs=self.cfg["jobs"]) as executor:
            results = executor.run(self.tasks())
        wall = time.perf_counter() - start
        return self.outcome(results, wall)

    def outcome(self, results: Sequence[Any], wall: float) -> Outcome:
        points, failures = [], []
        measure = self.params.measure_windows * self.params.window_cycles
        for (load, run_seed), result in zip(self.grid, results):
            record = sim_point(f"{self.routing}@{load:g}/s{run_seed}", result)
            points.append(record)
            failures += check_sim_point(
                record, self.routing, self.topo.num_nodes, measure
            )
        delivered = [
            p["accepted_rate"] / p["offered_load"]
            for p in points
            if not p["saturated"]
        ]
        return Outcome(
            points=points,
            ops=len(points),
            work=float(len(points) * self.params.total_cycles),
            # delivered / offered over the unsaturated points (~1)
            result_ratio=float(np.mean(delivered)) if delivered else 0.0,
            failures=failures,
            wall_s=wall,
        )


class Step1Workload(Workload):
    """step1_model_g9: the Table-1 grid x adversarial patterns, LP only."""

    def setup(self) -> None:
        from repro.core.datapoints import table1_datapoints
        from repro.model.bounds import shift_saturation_bound
        from repro.model.fastpath import FastModel
        from repro.traffic.adversarial import type_2_set

        self.build_topology()
        rng = np.random.default_rng(self.seed)

        def patterns() -> List[Any]:
            # TYPE_1 stratified so seeds differ in which shifts, not in
            # how hard the suite is: one pure group shift, one that also
            # shifts the switch; then the seeded TYPE_2 permutations
            dg, dg2 = rng.integers(1, self.topo.g, size=2).tolist()
            ds2 = int(rng.integers(1, self.topo.a))
            type1 = [
                PatternSpec.parse(text).build(self.topo)
                for text in (f"shift:{dg},0", f"shift:{dg2},{ds2}")
            ]
            return type1 + list(
                type_2_set(
                    self.topo, count=self.cfg["num_type2"], seed=self.seed
                )
            )

        self.patterns = self._timed("traffic.build_s", patterns)
        self.grid = self._timed(
            "spec.policy_build_s",
            lambda: table1_datapoints(step=self.cfg["step"]),
        )
        self.bound = shift_saturation_bound(self.topo)
        self._timed(
            "model.fastmodel_build_s",
            lambda: FastModel(self.topo, seed=self.seed),
        )

    def run(self) -> Outcome:
        from repro.model.sweep import step1_sweep

        start = time.perf_counter()
        sweep = step1_sweep(
            self.topo, self.patterns, self.grid, mode="free", seed=self.seed
        )
        wall = time.perf_counter() - start
        return self.outcome([pt.per_pattern for pt in sweep], wall)

    def outcome(self, rows: List[List[float]], wall: float) -> Outcome:
        points, failures = [], []
        for policy, values in zip(self.grid, rows):
            for pattern, value in zip(self.patterns, values):
                point_id = f"{policy.describe()}|{pattern.describe()}"
                value = float(value)
                points.append({"id": point_id, "throughput": value})
                # (0, flow-conservation bound], with LP solver tolerance
                if not 0.0 < value <= self.bound * (1.0 + 1e-6):
                    failures.append(
                        f"{point_id}: throughput {value} outside "
                        f"(0, {self.bound}]"
                    )
        mean = float(np.mean([p["throughput"] for p in points]))
        return Outcome(
            points=points,
            ops=len(points),
            work=float(len(points)),
            # mean modelled throughput / the flow-conservation bound
            result_ratio=mean / self.bound,
            failures=failures,
            wall_s=wall,
        )


class TvlbWorkload(Workload):
    """tvlb_g9: Algorithm 1 cold through a jobs=2 pool and a fresh
    SimCache, then the identical call over the now-warm cache."""

    executor_class: Any = None  # tracing substitutes a timing subclass
    cache_class: Any = None

    def setup(self) -> None:
        import tempfile

        from repro.perf import SimCache, SimTask, SweepExecutor

        self.build_topology()
        self.params = sim_params(self.cfg["window_cycles"])
        self.executor_class = self.executor_class or SweepExecutor
        self.cache_class = self.cache_class or SimCache
        self._tmp = tempfile.TemporaryDirectory(prefix="simcache-")
        self.load_kernel()
        self.executor = self.executor_class(
            jobs=self.cfg["jobs"], cache=self.cache_class(self._tmp.name)
        )
        # prime the pool (fork, worker start) with throwaway points whose
        # keys no Algorithm-1 task shares (1-cycle windows)
        from repro.traffic.patterns import UniformRandom

        pattern = self._timed(
            "traffic.build_s", lambda: UniformRandom(self.topo)
        )
        self.executor.run(
            [
                SimTask(
                    self.topo,
                    pattern,
                    0.1,
                    routing="ugal-l",
                    params=sim_params(1),
                    seed=self.seed + k,
                )
                for k in range(self.cfg["jobs"])
            ]
        )

    def close(self) -> None:
        self.executor.close()
        self._tmp.cleanup()

    def compute(self, executor: Any) -> Any:
        from repro.core.algorithm import compute_tvlb

        # balance=False: see README.md, "Known defect" (int64 TypeError)
        return compute_tvlb(
            self.topo,
            balance=False,
            sim_params=self.params,
            executor=executor,
            seed=self.seed,
            **self.cfg["tvlb_kwargs"],
        )

    def run(self) -> Outcome:
        cold_exec = self.executor
        primed = cold_exec.computed_parallel + cold_exec.computed_serial
        start = time.perf_counter()
        cold = self.compute(cold_exec)
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        with self.executor_class(
            jobs=self.cfg["jobs"], cache=self.cache_class(self._tmp.name)
        ) as warm_exec:
            warm = self.compute(warm_exec)
            warm_wall = time.perf_counter() - start
        self.warm_executor = warm_exec
        return self.outcome(cold, warm, primed, cold_wall, warm_wall)

    def outcome(
        self,
        cold: Any,
        warm: Any,
        primed: int,
        cold_wall: float,
        warm_wall: float,
    ) -> Outcome:
        cold_exec, warm_exec = self.executor, self.warm_executor
        points, failures = [], []
        for half, result in (("cold", cold), ("warm", warm)):
            points.append(
                {
                    "id": half,
                    "label": result.label,
                    "candidates": [
                        [c.label, float(c.score)] for c in result.candidates
                    ],
                    "step1_means": [
                        float(pt.mean_throughput) for pt in result.sweep
                    ],
                }
            )
            report = result.verify_report
            if report is None or not report.passed:
                failures.append(f"{half}: static verification did not pass")
        if {k: v for k, v in points[0].items() if k != "id"} != {
            k: v for k, v in points[1].items() if k != "id"
        }:
            failures.append("warm result differs from cold result")
        computed = (
            cold_exec.computed_parallel + cold_exec.computed_serial - primed
        )
        warm_cache = warm_exec.cache
        if (
            warm_exec.cache_hits != computed
            or warm_cache.misses != 0
            or warm_exec.computed_parallel + warm_exec.computed_serial != 0
        ):
            failures.append(
                f"warm cache hit rate below 1.0: {warm_exec.describe()}"
            )
        scores = {c.label: float(c.score) for c in cold.candidates}
        base_score = scores[self.topo.baseline_policy().describe()]
        return Outcome(
            points=points,
            ops=2,
            work=float(computed + warm_exec.cache_hits),
            # winning candidate's score / the conventional set's score
            result_ratio=(
                max(scores.values()) / base_score if base_score > 0 else 0.0
            ),
            failures=failures,
            extra={
                "core.cold_wall_s": cold_wall,
                "core.warm_wall_s": warm_wall,
                "core.candidates": float(len(cold.candidates)),
            },
            wall_s=cold_wall + warm_wall,
        )


_CLASSES = {
    "ugal_adv_g9": CurveWorkload,
    "par_mixed_g17": CurveWorkload,
    "min_ur_batch_g9": BatchWorkload,
    "step1_model_g9": Step1Workload,
    "tvlb_g9": TvlbWorkload,
}


def make_workload(name: str, size: str, seed: int) -> Workload:
    return _CLASSES[name](name, SIZES[size][name], seed)
