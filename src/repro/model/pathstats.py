"""Per-switch-pair path statistics of the LP reference assembly.

For an ordered switch pair we record, for the MIN paths and for every VLB
*leg-split subclass* ``(l1, l2)`` (hop counts of the two MIN legs, each
``1 .. 2*max_local_hops + 1``), the number of paths and the total
channel-usage counts.  Any Table-1 datapoint or strategic policy is then
a set of subclass weights, and its expected channel usage is a weighted
recombination -- no re-enumeration per datapoint.

This is the per-path enumerator behind
:func:`~repro.model.lp_model.model_throughput`, kept as the oracle the
production blocks (:class:`~repro.model.fastpath.BlockCache`, read from
the route table) are tested against; rule REF401 keeps it out of
production.  Enumerating all VLB paths of a pair is ``(g-2)*a*m^2``
path builds; the reference can bound that with a deterministic
subsample (``max_descriptors``), which only affects the usage
*estimate*, not correctness of the LP structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.routing.channels import ChannelIndex
from repro.routing.minimal import min_paths
from repro.routing.paths import Path
from repro.routing.pathset import PathPolicy
from repro.routing.vlb import (
    VlbDescriptor,
    count_vlb_paths,
    enumerate_vlb_descriptors,
    vlb_leg_hops,
    vlb_path,
)
from repro.topology.dragonfly import Dragonfly

__all__ = ["ClassStats", "PairPathStats", "PathStatsCache"]

LegSplit = Tuple[int, int]


@dataclass
class ClassStats:
    """Path count and aggregate channel usage of one VLB leg-split class."""

    count: int = 0
    usage: Dict[int, float] = field(default_factory=dict)  # channel idx -> uses

    def add_path(self, chidx: ChannelIndex, path: Path) -> None:
        self.count += 1
        for ch in path.channels():
            idx = chidx.index(ch)
            self.usage[idx] = self.usage.get(idx, 0.0) + 1.0


@dataclass
class PairPathStats:
    """MIN and per-class VLB usage statistics of one ordered switch pair.

    ``scale`` corrects for subsampling: when only ``1/scale`` of the
    descriptors were enumerated, counts and usages are multiplied back up
    so that downstream weighting sees full-set magnitudes in expectation.
    """

    src: int
    dst: int
    min_count: int
    min_usage: Dict[int, float]  # per packet routed MIN (already normalized)
    classes: Dict[LegSplit, ClassStats]

    def weighted_vlb_usage(
        self, weight_fn: Callable[[int, int], float]
    ) -> Tuple[float, Dict[int, float]]:
        """Expected per-packet channel usage of a weighted VLB candidate set.

        ``weight_fn(l1, l2) -> [0, 1]`` gives the inclusion fraction of each
        leg-split class.  Returns ``(total_paths, usage_per_packet)`` where
        usage is normalized per VLB-routed packet (uniform selection over
        the weighted set).  ``total_paths == 0`` means the set is empty.
        """
        total = 0.0
        usage: Dict[int, float] = {}
        for split, cs in self.classes.items():
            w = weight_fn(*split)
            # sub-epsilon weights are treated as excluded: they would add
            # denormal path counts that break the LP scaling
            if w <= 1e-9 or cs.count == 0:
                continue
            total += w * cs.count
            for idx, uses in cs.usage.items():
                usage[idx] = usage.get(idx, 0.0) + w * uses
        if total <= 1e-9:
            return 0.0, {}
        return total, {idx: u / total for idx, u in usage.items()}


def compute_pair_stats(
    topo: Dragonfly,
    chidx: ChannelIndex,
    src: int,
    dst: int,
    max_descriptors: Optional[int] = None,
    seed: int = 0,
    policy: Optional[PathPolicy] = None,
) -> PairPathStats:
    """Enumerate (or subsample) the pair's paths and aggregate usage.

    Without ``policy`` every VLB descriptor of the pair is enumerated and
    a candidate set is a weighting of the resulting classes.  With one,
    the policy's own ``iter_descriptors`` drives enumeration -- for
    policies that have no leg-split class-weight translation (e.g. the
    ordered-intermediate family) -- so the class table *is* the candidate
    set and the all-ones weight function is exact.
    """
    mins = min_paths(topo, src, dst)
    min_usage: Dict[int, float] = {}
    for p in mins:
        for ch in p.channels():
            idx = chidx.index(ch)
            min_usage[idx] = min_usage.get(idx, 0.0) + 1.0 / len(mins)

    descs: Iterable[VlbDescriptor]
    if policy is None:
        descs = enumerate_vlb_descriptors(topo, src, dst)
        total = count_vlb_paths(topo, src, dst)
    else:
        descs = list(policy.iter_descriptors(topo, src, dst))
        total = len(descs)
    stride = 1
    if max_descriptors is not None and total > max_descriptors:
        stride = -(-total // max_descriptors)  # ceil division
    offset = 0
    if stride > 1:
        offset = int(
            np.random.default_rng((seed, src, dst)).integers(stride)
        )
    classes: Dict[LegSplit, ClassStats] = {}
    for i, desc in enumerate(descs):
        if stride > 1 and (i - offset) % stride != 0:
            continue
        split = vlb_leg_hops(topo, src, dst, desc)
        cs = classes.setdefault(split, ClassStats())
        cs.add_path(chidx, vlb_path(topo, src, dst, desc))
    if stride > 1:
        # repro: allow[DET102]: per-value scaling of independent entries;
        # no cross-element accumulation, so order cannot matter
        for cs in classes.values():
            cs.count *= stride
            cs.usage = {k: v * stride for k, v in cs.usage.items()}
    return PairPathStats(src, dst, len(mins), min_usage, classes)


class PathStatsCache:
    """Memoized :func:`compute_pair_stats` across patterns and datapoints."""

    def __init__(
        self,
        topo: Dragonfly,
        chidx: Optional[ChannelIndex] = None,
        max_descriptors: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.topo = topo
        self.chidx = chidx if chidx is not None else ChannelIndex(topo)
        self.max_descriptors = max_descriptors
        self.seed = seed
        self._cache: Dict[Tuple[int, int], PairPathStats] = {}
        self._policy_cache: Dict[
            Tuple[PathPolicy, int, int], PairPathStats
        ] = {}

    def get(self, src: int, dst: int) -> PairPathStats:
        key = (src, dst)
        stats = self._cache.get(key)
        if stats is None:
            stats = compute_pair_stats(
                self.topo,
                self.chidx,
                src,
                dst,
                max_descriptors=self.max_descriptors,
                seed=self.seed,
            )
            self._cache[key] = stats
        return stats

    def policy_pair_stats(
        self, policy: PathPolicy, src: int, dst: int
    ) -> PairPathStats:
        """Memoized :func:`compute_pair_stats` over the policy's own
        descriptors (equal policies share entries)."""
        key = (policy, src, dst)
        stats = self._policy_cache.get(key)
        if stats is None:
            stats = self._policy_cache[key] = compute_pair_stats(
                self.topo, self.chidx, src, dst,
                max_descriptors=self.max_descriptors, seed=self.seed, policy=policy,
            )
        return stats

    def __len__(self) -> int:
        return len(self._cache)
