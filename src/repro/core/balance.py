"""Load-balance analysis and adjustment of candidate T-VLB sets
(Algorithm 1, lines 15-18).

T-VLB restricts the VLB candidate set, which can leave some channels far
more likely to be used than others.  Two levels are checked, following
Section 3.3.3:

* **local**: for one switch pair, assuming each of its candidate VLB paths
  equally likely, is some channel's usage probability much higher than the
  pair's average?
* **global**: averaging the per-pair distributions over all (sampled)
  pairs, is some channel globally much hotter than average?

When imbalance is found, the adjustment *removes paths* (the paper's simple
mechanism): locally the offending pair's paths through its hot channels,
globally every path through the globally hot channels, producing an
:class:`~repro.routing.pathset.ExcludingPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.routing.channels import ChannelIndex
from repro.routing.paths import Channel
from repro.routing.pathset import ExcludingPolicy, PathPolicy
from repro.routing.vlb import VlbDescriptor, vlb_path
from repro.topology.dragonfly import Dragonfly

__all__ = [
    "BalanceReport",
    "pair_usage_probability",
    "global_usage_probability",
    "balance_adjust",
]

Pair = Tuple[int, int]


@dataclass
class BalanceReport:
    """What the balance analysis found and what was removed."""

    local_hot_pairs: List[Pair] = field(default_factory=list)
    removed_descriptors: int = 0
    global_hot_channels: List[Channel] = field(default_factory=list)
    max_over_mean_local: float = 0.0
    max_over_mean_global: float = 0.0

    @property
    def adjusted(self) -> bool:
        return bool(self.removed_descriptors or self.global_hot_channels)


def pair_usage_probability(
    topo: Dragonfly,
    chidx: ChannelIndex,
    policy: PathPolicy,
    src: int,
    dst: int,
) -> np.ndarray:
    """P(channel is on the chosen path) for a pair under uniform selection."""
    usage = np.zeros(len(chidx))
    count = 0
    for desc in policy.iter_descriptors(topo, src, dst):
        for ch in vlb_path(topo, src, dst, desc).channels():
            usage[chidx.index(ch)] += 1.0
        count += 1
    if count:
        usage /= count
    return usage


def global_usage_probability(
    topo: Dragonfly,
    chidx: ChannelIndex,
    policy: PathPolicy,
    pairs: Sequence[Pair],
) -> np.ndarray:
    """Mean per-pair usage probability over ``pairs`` (uniform pair choice)."""
    total = np.zeros(len(chidx))
    for src, dst in pairs:
        total += pair_usage_probability(topo, chidx, policy, src, dst)
    if len(pairs):
        total /= len(pairs)
    return total


def _hot_indices(probs: np.ndarray, factor: float) -> np.ndarray:
    """Channels whose probability exceeds ``factor`` x mean of used channels."""
    used = probs[probs > 0]
    if used.size == 0:
        return np.empty(0, dtype=int)
    threshold = factor * used.mean()
    return np.flatnonzero(probs > threshold)


def balance_adjust(
    topo: Dragonfly,
    policy: PathPolicy,
    pairs: Sequence[Pair],
    *,
    chidx: Optional[ChannelIndex] = None,
    local_factor: float = 3.0,
    global_factor: float = 3.0,
    min_remaining: int = 4,
) -> Tuple[PathPolicy, BalanceReport]:
    """Detect and fix local/global imbalance by removing paths.

    ``min_remaining`` guards against removing so many paths that a pair is
    left with fewer candidates than that; offending removals are skipped
    (UGAL tolerates residual imbalance, as the paper notes).
    Returns ``(possibly wrapped policy, report)``.
    """
    if chidx is None:
        chidx = ChannelIndex(topo)
    report = BalanceReport()
    # pairs often come out of numpy (np.nonzero of a demand matrix);
    # the policy built below must carry plain ints to stay serializable
    pairs = [(int(src), int(dst)) for src, dst in pairs]

    # ---- local level: per-pair hot channels -> remove that pair's paths
    excluded_descs: set = set()
    for src, dst in pairs:
        probs = pair_usage_probability(topo, chidx, policy, src, dst)
        used = probs[probs > 0]
        if used.size == 0:
            continue
        ratio = float(probs.max() / used.mean())
        report.max_over_mean_local = max(report.max_over_mean_local, ratio)
        hot = _hot_indices(probs, local_factor)
        if hot.size == 0:
            continue
        hot_set = {chidx.channel(i) for i in hot}
        keep: List[VlbDescriptor] = []
        drop: List[VlbDescriptor] = []
        for desc in policy.iter_descriptors(topo, src, dst):
            chans = set(vlb_path(topo, src, dst, desc).channels())
            (drop if chans & hot_set else keep).append(desc)
        if drop and len(keep) >= min_remaining:
            report.local_hot_pairs.append((src, dst))
            excluded_descs.update((src, dst, d) for d in drop)

    adjusted: PathPolicy = policy
    if excluded_descs:
        report.removed_descriptors = len(excluded_descs)
        adjusted = ExcludingPolicy(
            policy, excluded_descriptors=frozenset(excluded_descs)
        )

    # ---- global level: hot channels across all pairs -> exclude channels
    gprobs = global_usage_probability(topo, chidx, adjusted, pairs)
    used = gprobs[gprobs > 0]
    if used.size:
        report.max_over_mean_global = float(gprobs.max() / used.mean())
    ghot = _hot_indices(gprobs, global_factor)
    if ghot.size:
        channels = frozenset(chidx.channel(i) for i in ghot)
        candidate = ExcludingPolicy(
            adjusted if isinstance(adjusted, ExcludingPolicy) else policy,
            excluded_channels=channels,
            excluded_descriptors=(
                adjusted.excluded_descriptors
                if isinstance(adjusted, ExcludingPolicy)
                else frozenset()
            ),
        )
        # only commit if no pair is starved below min_remaining
        starved = False
        for src, dst in pairs:
            remaining = 0
            for _ in candidate.iter_descriptors(topo, src, dst):
                remaining += 1
                if remaining >= min_remaining:
                    break
            if remaining < min_remaining:
                starved = True
                break
        if not starved:
            report.global_hot_channels = sorted(
                channels, key=lambda ch: (ch.src, ch.dst, ch.slot)
            )
            adjusted = candidate

    return adjusted, report
