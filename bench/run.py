"""The repo's benchmark: five workloads, end-to-end metrics, a per-layer trace.

    python3 bench/run.py                      # all workloads, measured + traced
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --list | --check | --regen-golden
    python3 bench/run.py --compare A.json B.json

This parent is one stdlib-only process that runs children strictly one
after another; every measured pass, set-up sample and traced pass is its
own fresh interpreter (``child.py``) in a hermetic environment.  With
``--trace`` the last line of standard output is the driver's JSON result;
see README.md for what every name means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from sizes import INTERP_SHARE, SIZES, WORK_UNIT  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")  # everything a run writes
WORKLOADS = list(SIZES["full"])
SETUP_SAMPLES = 5  # fresh children behind the setup_s median
CHILD_TIMEOUT_S = 170.0  # the driver allows a run 180 s
UNSET = (
    "REPRO_JOBS", "REPRO_BATCH", "REPRO_WINDOW", "REPRO_SEEDS", "REPRO_CACHE_DIR"
)


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to: an operation failed)."""


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """Hermetic: benchmark-owned caches and temp dir, native kernel
    required, one thread per BLAS, no REPRO_* tuning knobs."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        REPRO_ARRAYNET_CACHE=os.path.join(BUILD, "arraynet"),
        REPRO_ARRAYNET_NATIVE="require",
        TMPDIR=tmp,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def spawn(mode: str, *args: str) -> Dict[str, Any]:
    """Run one child to completion and return its JSON line.

    The child leads its own process group, so a timeout also stops the
    pool workers it forked; the parent always waits for the exit.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, *args]
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.Popen(
        cmd,
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {mode} {' '.join(args)} timed out") from None
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(
            f"child {mode} exited {proc.returncode} without a result"
        ) from None
    if "error" in out:
        raise BenchError(f"child {mode} {' '.join(args)} failed:\n{out['error']}")
    return out


def host_facts(kernel: Dict[str, Any]) -> Dict[str, Any]:
    """What the numbers depend on besides the code."""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > 0.5 * nproc:
        print(
            f"warning: 1-minute load average {load:.2f} exceeds half of "
            f"{nproc} CPUs; timings will be noisy",
            file=sys.stderr,
        )
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    facts = {k: v for k, v in kernel.items() if k != "kernel_build_s"}
    facts.update(nproc=nproc, loadavg_start=load, git_commit=commit)
    return facts


# ----------------------------------------------------------------------
# Host speed.  This sandbox's CPUs run 20-30% faster or slower for
# minutes at a time (shared host); a fixed pure-Python loop timed between
# the children of an invocation tracks those regimes (README.md, "Host
# speed"), so times are reported at the reference host's speed.
# ----------------------------------------------------------------------
REF_LOOP_S = 0.0203  # one calibration loop on the reference host
CAL_LOOPS = 25  # ~0.5 s per calibration, median taken


def _calibration_loop() -> float:
    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(200_000):
        total += (i * i) % 7
        table[i & 4095] = total
    return time.perf_counter() - start


def calibrate() -> float:
    return statistics.median(_calibration_loop() for _ in range(CAL_LOOPS))


class HostSpeed:
    """Calibrations taken between the children of one invocation."""

    def __init__(self) -> None:
        self.history = [calibrate()]

    def spawn(self, mode: str, *args: str) -> Dict[str, Any]:
        """``spawn`` followed by a calibration."""
        out = spawn(mode, *args)
        self.history.append(calibrate())
        return out

    def speed(self) -> float:
        """Reference loop time / this invocation's median loop time:
        1 = reference speed, below 1 = the host is slower right now."""
        return REF_LOOP_S / statistics.median(self.history)

    def scale(self, name: str) -> float:
        """Factor that takes a raw pass time of workload ``name`` to the
        reference speed.  Only the interpreter-bound share of a pass
        follows the loop (README.md, "Host speed")."""
        share = INTERP_SHARE[name]
        return share * self.speed() + (1.0 - share)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _digests(points: List[Dict[str, Any]]) -> Dict[str, str]:
    """sha256 per point over its named fields (floats by repr)."""
    return {
        p["id"]: hashlib.sha256(
            json.dumps(p, sort_keys=True).encode()
        ).hexdigest()[:16]
        for p in points
    }


def _golden_match(name: str, size: str, seed: int, points: List[Dict]) -> float:
    """1 match, 0 mismatch, -1 no golden for this (size, seed)."""
    path = os.path.join(HERE, "golden.json")
    if not os.path.exists(path):
        return -1.0
    with open(path) as fh:
        golden = json.load(fh)
    if size != "full" or seed != golden["seed"]:
        return -1.0
    return float(golden["digests"].get(name) == _digests(points))


def _failed(child: Dict[str, Any]) -> int:
    for message in child["failures"]:
        print(f"  check failed: {message}", file=sys.stderr)
    return min(child["ops"], len(child["failures"]))


def measure(
    host: HostSpeed, name: str, size: str, seed: int, seconds: float,
    passes: Optional[int],
) -> Dict[str, Any]:
    """Measured passes (tracing off), each in a fresh child, for as long
    as another one fits in ``seconds`` (or exactly ``passes`` of them),
    then set-up-only children up to SETUP_SAMPLES set-up samples.
    Times are scaled to the reference host speed per child."""
    args = ["--workload", name, "--size", size, "--seed", str(seed)]
    runs: List[Dict[str, Any]] = []
    start = time.monotonic()
    while True:
        runs.append(host.spawn("measure", *args))
        elapsed = time.monotonic() - start
        if passes is not None:
            if len(runs) >= passes:
                break
        elif elapsed + elapsed / len(runs) > seconds:
            break
    setups = [r["setup_s"] for r in runs]
    while passes is None and len(setups) < SETUP_SAMPLES:
        setups.append(spawn("setup", *args)["setup_s"])
    host.history.append(calibrate())
    speed, scale = host.speed(), host.scale(name)
    for run in runs:
        run["raw_wall_s"] = run["wall_s"]
        run["wall_s"] *= scale
    setups = [value * speed for value in setups]  # imports: interpreter
    print(
        f"  {name}: {len(runs)} pass(es), raw wall "
        f"{[round(r['raw_wall_s'], 3) for r in runs]} s, host speed "
        f"{speed:.3f} from loops {[round(c, 5) for c in host.history]}",
        file=sys.stderr,
    )
    attempted = sum(r["ops"] for r in runs)
    failed = sum(_failed(r) for r in runs)
    if any(r["points"] != runs[0]["points"] for r in runs[1:]):
        print("  check failed: passes of one seed disagree", file=sys.stderr)
        failed += 1
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "work_per_s": statistics.median(r["work"] / r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "result_ratio": runs[0]["result_ratio"],
    }
    return {
        "end_to_end": {
            n: {"value": values[n], "unit": u} for n, u, _b in metrics.END_TO_END
        },
        "attempted": attempted,
        "failed": min(failed, attempted),
        "samples": {
            "passes": len(runs),
            "wall_s": [r["wall_s"] for r in runs],
            "raw_wall_s": [r["raw_wall_s"] for r in runs],
            "host_speed": speed,
            "setup_s": setups,
            "work_unit": WORK_UNIT[name],
        },
        "first_pass": runs[0],
        "digest_match": _golden_match(name, size, seed, runs[0]["points"]),
    }


def trace(
    host: HostSpeed, name: str, size: str, seed: int,
    measured: Dict[str, Any], kernel: Dict[str, Any], loadavg: float,
) -> Dict[str, Any]:
    """One traced pass, checked point for point against a measured one.

    Layer times are raw (as measured in the traced child);
    ``bench.host_speed`` says how fast the host was around it.
    """
    reference = measured["first_pass"]
    out_file = os.path.join(BUILD, f"trace-{name}.json")
    child = host.spawn(
        "trace", "--workload", name, "--size", size, "--seed", str(seed),
        "--trace-out", out_file,
    )
    if "unavailable" in child:
        # a public hook went away: layer numbers read 0, the end-to-end
        # run is unaffected
        print(f"  trace unavailable: {child['unavailable']}", file=sys.stderr)
    layers = dict(child["layers"])
    if layers:
        traced_wall = layers["bench.traced_wall_s"]
        measured_wall = measured["end_to_end"]["wall_s"]["value"]
        layers["bench.host_speed"] = host.speed()
        layers["bench.trace_overhead_ratio"] = (
            traced_wall * host.scale(name) / measured_wall
        )
        if layers.get("sim.batch.units"):
            # SweepExecutor.run's wall beyond the plan + simulate_batch
            # calls the traced pass made directly (both at reference speed)
            layers["perf.executor_overhead_s"] = (
                measured_wall - traced_wall * host.scale(name)
            )
    layers["sim.array.kernel_build_s"] = kernel["kernel_build_s"]
    layers["sim.array.native"] = 1.0  # REPRO_ARRAYNET_NATIVE=require held
    layers["bench.digest_match"] = measured["digest_match"]
    layers["bench.loadavg_start"] = loadavg
    attempted = child["ops"]
    failed = _failed(child)
    if child["points"] is not None and child["points"] != reference["points"]:
        differing = sum(
            a != b for a, b in zip(child["points"], reference["points"])
        ) + abs(len(child["points"]) - len(reference["points"]))
        print(
            f"  check failed: {differing} traced point(s) differ from the "
            "measured run",
            file=sys.stderr,
        )
        failed += differing
    ratio = layers.get("bench.trace_overhead_ratio", 0.0)
    low, high = metrics.OVERHEAD_OK
    if size == "full" and child["ops"] and not low <= ratio <= high:
        print(
            f"  warning: trace overhead ratio {ratio:.3f} outside "
            f"[{low}, {high}]; this trace is unreliable",
            file=sys.stderr,
        )
    return {
        "per_layer": {
            n: {"value": float(layers.get(n, 0.0)), "unit": u}
            for n, u, _b in metrics.PER_LAYER
        },
        "attempted": attempted,
        "failed": min(failed, attempted),
        "trace_file": child.get("trace_file"),
    }


def print_metrics(name: str, block: Dict[str, Dict[str, Any]]) -> None:
    for metric, entry in block.items():
        print(f"{name:<16} {metric:<32} {entry['value']:>14.6g} {entry['unit']}")


def driver_line(result: Dict[str, Any], key: str) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result[key],
        }
    )


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def run_all(
    names: List[str], size: str, seed: int, seconds: float,
    passes: Optional[int], out: Optional[str],
) -> Dict[str, Any]:
    """Measured then traced run of each workload; the result file."""
    kernel = spawn("kernel")
    facts = host_facts(kernel)
    record: Dict[str, Any] = {
        "seed": seed,
        "size": size,
        "host": facts,
        "sizes": {n: SIZES[size][n] for n in names},
        "claim": None,  # this benchmark measures; it claims no gain
        "workloads": {},
    }
    for name in names:
        print(f"== {name} (seed {seed}, size {size})", file=sys.stderr)
        host = HostSpeed()
        measured = measure(host, name, size, seed, seconds, passes)
        traced = trace(
            host, name, size, seed, measured, kernel, facts["loadavg_start"]
        )
        print_metrics(name, measured["end_to_end"])
        print_metrics(name, traced["per_layer"])
        record["workloads"][name] = {
            "end_to_end": measured["end_to_end"],
            "per_layer": traced["per_layer"],
            "attempted": measured["attempted"] + traced["attempted"],
            "failed": measured["failed"] + traced["failed"],
            "failed_share": (measured["failed"] + traced["failed"])
            / (measured["attempted"] + traced["attempted"]),
            "samples": measured["samples"],
            "trace_file": traced["trace_file"],
            "points": measured["first_pass"]["points"],
        }
    out = out or os.path.join(BUILD, f"result-{size}-seed{seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"result file: {out}", file=sys.stderr)
    return record


def run_driver(name: str, seed: int, seconds: float, traced: bool) -> int:
    """The driver's protocol: one workload, one JSON line last."""
    kernel = spawn("kernel")
    loadavg = os.getloadavg()[0]
    host = HostSpeed()
    measured = measure(host, name, "full", seed, seconds, 1 if traced else None)
    if traced:
        result = trace(host, name, "full", seed, measured, kernel, loadavg)
        result["attempted"] += measured["attempted"]
        result["failed"] += measured["failed"]
        key = "per_layer"
    else:
        result, key = measured, "end_to_end"
    print_metrics(name, result[key])
    print(driver_line(result, key))
    return 0


def check() -> int:
    """Toy-size run of everything, validating structure not speed."""
    record = run_all(WORKLOADS, "check", 1, 0.0, 1, None)
    problems: List[str] = []
    for name, entry in record["workloads"].items():
        if entry["failed"]:
            problems.append(f"{name}: {entry['failed']} failed operations")
        for key, table in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
            for metric, unit, _b in table:
                got = entry[key].get(metric)
                if (
                    not got
                    or got["unit"] != unit
                    or not isinstance(got["value"], float)
                ):
                    problems.append(f"{name}: {key} metric {metric} malformed")
        with open(entry["trace_file"]) as fh:
            doc = json.load(fh)
        spans = doc["spans"]
        for span in spans:
            parent = span["parent"]
            if span["run"] != doc["run"] or span["end"] < span["start"]:
                problems.append(f"{name}: span {span['id']} malformed")
            if parent is None:
                continue
            if not 0 <= parent < span["id"]:
                problems.append(f"{name}: span {span['id']} has bad parent")
            elif not (
                spans[parent]["start"] <= span["start"]
                and span["end"] <= spans[parent]["end"]
            ):
                problems.append(f"{name}: span {span['id']} escapes its parent")
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    print("check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def regen_golden() -> int:
    spawn("kernel")
    digests = {}
    for name in WORKLOADS:
        child = spawn("measure", "--workload", name, "--seed", "1")
        digests[name] = _digests(child["points"])
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump({"seed": 1, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    contract_path = os.path.join(ROOT, "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    contract = metrics.load_contract(contract_path)
    bad = metrics.divergences(contract, WORKLOADS)
    for line in bad:
        print(f"BENCHMARK.json diverges: {line}", file=sys.stderr)
    if bad:
        return 2
    if args.list:
        for name in WORKLOADS:
            print(f"workload    {name}  ({WORK_UNIT[name]})")
        for kind, table in (("end_to_end", metrics.END_TO_END),
                            ("per_layer", metrics.PER_LAYER)):
            for metric, unit, better in table:
                print(f"{kind:<11} {metric:<32} {unit:<6} {better}")
        return 0
    if args.compare:
        a, b = (metrics.load_contract(p) for p in args.compare)
        rows, ok = metrics.compare(contract, a, b)
        print("\n".join(rows))
        return 0 if ok else 1
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no src/repro next to bench/: nothing to measure",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    try:
        if args.check:
            return check()
        if args.regen_golden:
            return regen_golden()
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            return run_driver(args.workload, args.seed, seconds, bool(args.trace))
        names = [args.workload] if args.workload else WORKLOADS
        record = run_all(names, "full", args.seed, seconds, None, args.out)
        return 1 if any(w["failed"] for w in record["workloads"].values()) else 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
