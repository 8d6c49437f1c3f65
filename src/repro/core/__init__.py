"""T-UGAL core: Algorithm 1, the paper's contribution.

``compute_tvlb`` runs the full two-step procedure -- Step-1 coarse-grain LP
sweep over the Table-1 grid, Step-2 strategic expansion, load-balance
analysis/adjustment, and simulation-based final selection -- and returns the
winning :class:`~repro.routing.pathset.PathPolicy` (the T-VLB set) for a
given topology.
"""

import importlib
from typing import Any

# each public name and the module it lives in, imported on first use:
# the balance step and Algorithm 1 solve LPs (scipy), which reading the
# Table-1 datapoints -- or importing the experiments layer -- never needs
_HOMES = {
    "table1_datapoints": "repro.core.datapoints",
    "datapoint_label": "repro.core.datapoints",
    "BalanceReport": "repro.core.balance",
    "pair_usage_probability": "repro.core.balance",
    "global_usage_probability": "repro.core.balance",
    "balance_adjust": "repro.core.balance",
    "compute_tvlb": "repro.core.algorithm",
    "TvlbResult": "repro.core.algorithm",
    "simulation_evaluator": "repro.core.algorithm",
    "model_evaluator": "repro.core.algorithm",
}

__all__ = list(_HOMES)


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value
    return value
