"""Path-length analytics for candidate VLB sets.

Supports the paper's Section 3.1 motivation: with MIN paths of ~3 hops and
all-VLB paths of ~6 hops, a UGAL mix routing 70% minimally averages
``0.7*3 + 0.3*6 = 3.9`` hops per packet; shortening the VLB set to 4.8
hops cuts that to 3.54 -- a ~10% latency/load reduction.  These helpers
compute the same quantities for real topologies and policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.routing.minimal import min_paths
from repro.routing.pathset import PathPolicy, candidate_weights
from repro.routing.table import route_table
from repro.topology.dragonfly import Dragonfly

__all__ = [
    "PathLengthStats",
    "vlb_length_distribution",
    "mean_min_hops",
    "expected_packet_hops",
]


@dataclass
class PathLengthStats:
    """Hop histogram and mean of a policy's VLB set over sampled pairs."""

    histogram: Dict[int, int]
    mean: float
    count: int

    def fraction(self, hops: int) -> float:
        return self.histogram.get(hops, 0) / self.count if self.count else 0.0


def vlb_length_distribution(
    topo: Dragonfly,
    policy: PathPolicy,
    pairs: Sequence[Tuple[int, int]],
) -> PathLengthStats:
    """Hop-count distribution of the policy's VLB paths over ``pairs``,
    each path counted as often as the policy draws it
    (:func:`~repro.routing.pathset.candidate_weights`)."""
    table = route_table(topo)
    src, dst = np.array(pairs, np.int64).reshape(-1, 2).T
    cand = table.vlb_candidates(src, dst)
    hops = table.min_slots().hops
    counts = np.bincount(
        hops[cand.leg1] + hops[cand.leg2],
        candidate_weights(policy, table, cand),
    ).astype(np.int64)
    histogram = {int(h): int(counts[h]) for h in np.flatnonzero(counts)}
    count = int(counts.sum())
    total = int(counts @ np.arange(len(counts)))
    mean = total / count if count else float("nan")
    return PathLengthStats(histogram=histogram, mean=mean, count=count)


def mean_min_hops(
    topo: Dragonfly, pairs: Sequence[Tuple[int, int]]
) -> float:
    """Mean MIN path length over pairs (uniform over each pair's paths)."""
    values = []
    for src, dst in pairs:
        paths = min_paths(topo, src, dst)
        values.append(np.mean([p.num_hops for p in paths]))
    return float(np.mean(values)) if values else float("nan")


def expected_packet_hops(
    min_fraction: float, min_hops: float, vlb_hops_mean: float
) -> float:
    """Average hops per packet for a MIN/VLB mix (Section 3.1 arithmetic)."""
    if not 0.0 <= min_fraction <= 1.0:
        raise ValueError("min_fraction must be in [0, 1]")
    return min_fraction * min_hops + (1.0 - min_fraction) * vlb_hops_mean
