"""LP throughput model (Step 1 of Algorithm 1).

A reconstruction of the modified "Model No. 3" of Mollah et al. (PMBS '17)
that the paper uses for coarse-grain T-VLB estimation, with the paper's
added monotonicity fix taken to its limiting form: within the candidate VLB
set of a switch pair, every path carries the *same* rate -- exactly what
UGAL's uniform random candidate selection produces at adversarial
saturation, and the strictest version of "a longer VLB path never gets a
larger rate than a shorter one".

The model maximizes the per-node injection rate ``lambda`` subject to unit
channel capacities, with each demand pair free to split between its MIN
paths (equal split) and its candidate VLB set (equal split).
"""

import importlib
from typing import Any

# each public name and the module it lives in, imported on first use:
# the LP modules load scipy, which code that only needs, say,
# ``repro.model.sweep`` or ``repro.model.bounds`` never pays for.
# ``PathStatsCache`` / ``model_throughput`` are re-exported for the
# parity tests and for users checking FastModel against the reference
# assembly.
_HOMES = {
    "BlockCache": "repro.model.fastpath",
    "FastModel": "repro.model.fastpath",
    "PairBlock": "repro.model.fastpath",
    "PairPathStats": "repro.model.pathstats",
    "PathStatsCache": "repro.model.pathstats",
    "ModelResult": "repro.model.lp_model",
    "model_throughput": "repro.model.lp_model",
    "SweepPoint": "repro.model.sweep",
    "step1_sweep": "repro.model.sweep",
}

__all__ = list(_HOMES)


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value
    return value
