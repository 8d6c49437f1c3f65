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

# repro: allow[REF401]: re-exported for the parity tests and for users
# checking FastModel against the reference assembly
from repro.model.pathstats import PairPathStats, PathStatsCache
# repro: allow[REF401]: re-exported for the parity tests and for users
# checking FastModel against the reference assembly
from repro.model.lp_model import ModelResult, model_throughput
from repro.model.fastpath import BlockCache, FastModel, PairBlock
from repro.model.sweep import SweepPoint, step1_sweep

__all__ = [
    "BlockCache",
    "FastModel",
    "PairBlock",
    "PairPathStats",
    "PathStatsCache",
    "ModelResult",
    "model_throughput",
    "SweepPoint",
    "step1_sweep",
]
