"""Metric names, units and directions -- the benchmark's vocabulary.

``run.py`` emits exactly these names; ``BENCHMARK.json`` declares exactly
these names; ``run.py --list`` fails when the two diverge.  Stdlib-only.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

# (name, unit, better).  Measured with tracing off, on every workload.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("result_ratio", "ratio", "higher"),
]

# simulated outcomes: for one seed they repeat exactly on one commit
EXACT = ("result_ratio",)

_S, _N, _R = "s", "count", "ratio"
_LO, _HI = "lower", "higher"

# (name, unit, better).  From the traced run; 0 where a workload does
# not exercise the layer.  See README.md for what each should move.
PER_LAYER: List[Tuple[str, str, str]] = [
    # repro.topology / repro.traffic / repro.spec
    ("topology.build_s", _S, _LO),
    ("traffic.build_s", _S, _LO),
    ("traffic.sample_s", _S, _LO),
    ("traffic.sample_calls", _N, _LO),
    ("spec.policy_build_s", _S, _LO),
    ("spec.fingerprint_s", _S, _LO),
    ("spec.fingerprints", _N, _LO),
    # repro.routing + repro.sim.routing
    ("routing.make_s", _S, _LO),
    ("routing.route_s", _S, _LO),
    ("routing.route_packets", _N, _LO),
    ("routing.route_us_per_packet", "us", _LO),
    ("routing.revise_s", _S, _LO),
    ("routing.revise_calls", _N, _LO),
    ("routing.revise_us_per_call", "us", _LO),
    ("routing.vlb_chosen_share", _R, _LO),
    ("routing.par_revised_share", _R, _LO),
    # repro.sim driver / network / stats
    ("sim.build_network_s", _S, _LO),
    ("sim.inject_s", _S, _LO),
    ("sim.step_s", _S, _LO),
    ("sim.step_self_s", _S, _LO),
    ("sim.step_us_per_cycle", "us", _LO),
    ("sim.finalize_s", _S, _LO),
    ("sim.stats_s", _S, _LO),
    ("sim.driver_self_s", _S, _LO),
    ("sim.cycles", _N, _LO),
    ("sim.packets_injected", _N, _LO),
    ("sim.points", _N, _LO),
    # repro.sim.array / repro.sim.batch
    ("sim.array.kernel_build_s", _S, _LO),
    ("sim.array.kernel_load_s", _S, _LO),
    ("sim.array.native", _N, _HI),
    ("sim.batch.simulate_batch_s", _S, _LO),
    ("sim.batch.units", _N, _LO),
    ("sim.batch.mean_size", _R, _HI),
    ("sim.batch.us_per_run_cycle", "us", _LO),
    # repro.model
    ("model.fastmodel_build_s", _S, _LO),
    ("model.first_solve_s", _S, _LO),
    ("model.pattern_first_solve_s", _S, _LO),
    ("model.solve_s", _S, _LO),
    ("model.solves", _N, _LO),
    ("model.ms_per_solve", "ms", _LO),
    # repro.core / repro.verify
    ("core.self_s", _S, _LO),
    ("core.cold_wall_s", _S, _LO),
    ("core.warm_wall_s", _S, _LO),
    ("core.candidates", _N, _LO),
    ("verify.config_s", _S, _LO),
    # repro.perf
    ("perf.run_models_s", _S, _LO),
    ("perf.run_sims_s", _S, _LO),
    ("perf.tasks", _N, _LO),
    ("perf.task_busy_s", _S, _LO),
    ("perf.queue_wait_s", _S, _LO),
    ("perf.pool_overhead_s", _S, _LO),
    ("perf.plan_s", _S, _LO),
    ("perf.executor_overhead_s", _S, _LO),
    ("perf.cache_hits", _N, _HI),
    ("perf.cache_misses", _N, _LO),
    ("perf.warm_cache_misses", _N, _LO),
    ("perf.cache_get_s", _S, _LO),
    ("perf.cache_put_s", _S, _LO),
    # simulated outcomes behind result_ratio, under the issue's names
    ("result.t_lowload_latency_ratio", _R, _LO),
    ("result.t_sat_throughput_ratio", _R, _HI),
    # the benchmark itself
    ("bench.host_speed", _R, _HI),
    ("bench.traced_wall_s", _S, _LO),
    ("bench.pass_self_s", _S, _LO),
    ("bench.trace_overhead_ratio", _R, _LO),
    ("bench.digest_match", _N, _HI),
    ("bench.loadavg_start", "load", _LO),
]

# a trace whose wall is outside this share of the measured wall is
# flagged unreliable
OVERHEAD_OK = (0.9, 1.15)


def load_contract(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def divergences(contract: Dict[str, Any], workloads: List[str]) -> List[str]:
    """Where BENCHMARK.json and the emitted names disagree (empty = ok)."""
    bad: List[str] = []
    declared = [w["name"] for w in contract["workloads"]]
    if declared != workloads:
        bad.append(f"workloads: declared {declared}, emitted {workloads}")
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        want = {(n, u, b) for n, u, b in emitted}
        have = {(m["name"], m["unit"], m["better"]) for m in contract[key]}
        for item in sorted(want - have):
            bad.append(f"{key}: emitted but not declared (or differs): {item}")
        for item in sorted(have - want):
            bad.append(f"{key}: declared but not emitted (or differs): {item}")
    return bad


def compare(
    contract: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]
) -> Tuple[List[str], bool]:
    """Rows of ``B`` against ``A`` and whether every row passed.

    An end-to-end metric fails when B is worse than A by more than the
    metric's own bound; simulated (exact) metrics and count-type layer
    metrics must be equal when both files used one seed.
    """
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    same_seed = a.get("seed") == b.get("seed")
    rows = [
        f"{'workload':<16} {'metric':<14} {'A':>12} {'B':>12} "
        f"{'diff':>8} {'bound':>6}  verdict"
    ]
    ok = True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            rows.append(f"{name:<16} missing from B")
            ok = False
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, _unit, better in END_TO_END:
            va = wa["end_to_end"][metric]["value"]
            vb = wb["end_to_end"][metric]["value"]
            rel = (vb - va) / va if va else 0.0
            bound = bounds[metric]["bound"]
            if metric in EXACT and same_seed:
                passed = va == vb
                verdict = "equal" if passed else "NOT EQUAL"
            else:
                worse = rel if better == "lower" else -rel
                passed = worse <= bound
                verdict = "ok" if passed else "WORSE"
            ok &= passed
            rows.append(
                f"{name:<16} {metric:<14} {va:>12.5g} {vb:>12.5g} "
                f"{rel:>+8.1%} {bound:>6.0%}  {verdict}"
            )
        if wa["failed"] != wb["failed"]:
            rows.append(f"{name:<16} failed ops differ: {wa['failed']} vs {wb['failed']}")
            ok = False
        if same_seed:
            for metric, unit, _better in PER_LAYER:
                if unit != _N:
                    continue
                ca = wa["per_layer"][metric]["value"]
                cb = wb["per_layer"][metric]["value"]
                if ca != cb:
                    rows.append(
                        f"{name:<16} {metric:<14} count differs: {ca} vs {cb}"
                    )
                    ok = False
    return rows, ok
