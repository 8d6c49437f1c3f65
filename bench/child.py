"""One fresh interpreter per measurement: ``bench/run.py`` spawns this.

Modes (first argument):

* ``kernel``  -- build/load the native array kernel once, report the time
  and the host facts that need the scientific stack;
* ``setup``   -- set the workload up and exit (a ``setup_s`` sample);
* ``measure`` -- set up, then one pass through the public entry points;
* ``trace``   -- set up, then one traced pass (``bench/tracing.py``).

The last line of standard output is one JSON object.  ``--t0`` is the
parent's ``time.time()`` just before the spawn, so ``setup_s`` includes
interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from typing import Any, Dict


def _peak_rss_mb() -> float:
    """This process's peak RSS plus its largest waited-for child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def kernel_mode() -> Dict[str, Any]:
    import numpy
    import scipy

    from repro.sim.array import load_kernel

    start = time.perf_counter()
    load_kernel()  # REPRO_ARRAYNET_NATIVE=require: raises if absent
    build_s = time.perf_counter() - start
    cache_dir = os.environ["REPRO_ARRAYNET_CACHE"]
    compiler = next(
        filter(None, map(shutil.which, ("cc", "gcc", "clang"))), "cc"
    )
    version = subprocess.run(
        [compiler, "--version"], capture_output=True, text=True, check=False
    ).stdout.splitlines()
    import workloads

    return {
        "kernel_build_s": build_s,
        "kernel_so": sorted(
            f for f in os.listdir(cache_dir) if f.endswith(".so")
        ),
        "compiler": version[0] if version else compiler,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "engine_array": "passed" if workloads.ENGINE_PASSED else "defaulted",
    }


def workload_mode(args: argparse.Namespace) -> Dict[str, Any]:
    import workloads

    if args.mode == "trace":
        import tracing

        spans = tracing.Spans(f"{args.workload}-seed{args.seed}-{os.getpid()}")
        work = tracing.traced_workload(
            args.workload, args.size, args.seed, spans
        )
    else:
        work = workloads.make_workload(args.workload, args.size, args.seed)
    out: Dict[str, Any] = {"mode": args.mode, "workload": args.workload}
    try:
        work.setup()
        out["setup_s"] = time.time() - args.t0
        if args.mode == "setup":
            return out
        if args.mode == "trace":
            try:
                outcome, layers = tracing.trace_pass(work, spans)
            except (AttributeError, ImportError) as exc:
                # a public hook the trace relies on went away in a later
                # PR: the layer numbers are unavailable, nothing else is
                out.update(unavailable=repr(exc), layers={}, ops=0,
                           failures=[], points=None)
                return out
            layers.update(work.setup_times)
            layers.update(outcome.extra)
            layers["bench.traced_wall_s"] = outcome.wall_s
            layers["bench.pass_self_s"] = spans.self_times()["bench.pass"]
            out["layers"] = layers
        else:
            outcome = work.run()
    finally:
        work.close()
    out.update(
        wall_s=outcome.wall_s,
        work=outcome.work,
        ops=outcome.ops,
        failures=outcome.failures,
        result_ratio=outcome.result_ratio,
        points=outcome.points,
        extra=outcome.extra,
        peak_rss_mb=_peak_rss_mb(),
    )
    if args.mode == "trace":
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        with open(args.trace_out, "w") as fh:
            json.dump({"run": spans.run_id, "spans": spans.spans}, fh)
        out["trace_file"] = args.trace_out
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["kernel", "setup", "measure", "trace"])
    parser.add_argument("--workload")
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--t0", type=float, default=time.time())
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    try:
        out = kernel_mode() if args.mode == "kernel" else workload_mode(args)
    except Exception:  # boundary: report the traceback to the parent
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
