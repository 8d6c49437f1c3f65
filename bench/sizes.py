"""Workload sizes: the one place the benchmark's inputs are sized.

Stdlib-only, so the parent (``run.py``) can record the resolved sizes in
every result file without importing the package under test.
"""

from __future__ import annotations

from typing import Any, Dict

# ----------------------------------------------------------------------
# Sizes.  "full" is what BENCHMARK.json measures; "check" is the toy
# size behind `run.py --check`.  Topologies, routings, load grids and
# simulation counts are the issue's; window_cycles is scaled so that one
# pass takes 8-9 s on the reference host and the driver's 114 runs fit
# its time cap (README.md, "Where this differs from ISSUE 11").
# ----------------------------------------------------------------------
_LADDER = [round(0.05 * i, 2) for i in range(1, 10)]
_T_POLICY = "strategic:2+3"

SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "ugal_adv_g9": {
            "topology": "4,8,4,9",
            "pattern": "shift:2,0",
            "variants": [["ugal-l", None], ["t-ugal-l", _T_POLICY]],
            "loads": _LADDER,
            "window_cycles": 44,
            "stop_after_saturation": False,
        },
        "par_mixed_g17": {
            "topology": "4,8,4,17",
            "pattern": "mixed:50,50,{seed}",
            "variants": [["par", None], ["t-par", _T_POLICY]],
            "loads": [0.1, 0.3],
            "window_cycles": 52,
            "stop_after_saturation": False,
        },
        "min_ur_batch_g9": {
            "topology": "4,8,4,9",
            "pattern": "ur",
            "routing": "min",
            "loads": [round(0.1 * i, 1) for i in range(1, 10)],
            "seeds_per_load": 2,
            "window_cycles": 250,
            "jobs": 1,
        },
        "step1_model_g9": {
            "topology": "4,8,4,9",
            "step": 0.1,
            "num_type2": 2,
        },
        "tvlb_g9": {
            "topology": "4,8,4,9",
            "window_cycles": 40,
            "jobs": 2,
            "tvlb_kwargs": {},
        },
    },
    "check": {
        "ugal_adv_g9": {
            "topology": "2,4,2,3",
            "pattern": "shift:2,0",
            "variants": [["ugal-l", None], ["t-ugal-l", _T_POLICY]],
            "loads": [0.1, 0.3, 0.5],
            "window_cycles": 20,
            "stop_after_saturation": True,
        },
        "par_mixed_g17": {
            "topology": "2,4,2,5",
            "pattern": "mixed:50,50,{seed}",
            "variants": [["par", None], ["t-par", _T_POLICY]],
            "loads": [0.1, 0.3],
            "window_cycles": 20,
            "stop_after_saturation": False,
        },
        "min_ur_batch_g9": {
            "topology": "2,4,2,3",
            "pattern": "ur",
            "routing": "min",
            "loads": [0.1, 0.5, 0.9],
            "seeds_per_load": 2,
            "window_cycles": 20,
            "jobs": 1,
        },
        "step1_model_g9": {
            "topology": "2,4,2,3",
            "step": 0.5,
            "num_type2": 1,
        },
        "tvlb_g9": {
            "topology": "2,4,2,3",
            "window_cycles": 20,
            "jobs": 2,
            "tvlb_kwargs": {"step": 0.5, "num_type1": 2, "num_type2": 1},
        },
    },
}

# what `work_per_s` counts per host second, per workload
WORK_UNIT = {
    "ugal_adv_g9": "simulated cycles",
    "par_mixed_g17": "simulated cycles",
    "min_ur_batch_g9": "simulated cycles",
    "step1_model_g9": "LP solves",
    "tvlb_g9": "executor tasks",
}

# Share of a pass's wall that is spent in the CPython interpreter, as
# opposed to native code (HiGHS, the C kernel).  Host slow-downs on the
# reference sandbox hit interpreter-bound code only, so this is the share
# of a pass that the host-speed loop corrects (README.md, "Host speed").
INTERP_SHARE = {
    "ugal_adv_g9": 1.0,
    "par_mixed_g17": 1.0,
    "min_ur_batch_g9": 1.0,
    "step1_model_g9": 0.25,
    "tvlb_g9": 0.6,
}
