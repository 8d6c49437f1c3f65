"""Load-balance analysis and adjustment of candidate T-VLB sets
(Algorithm 1, lines 15-18).

T-VLB restricts the VLB candidate set, which can leave some channels far
more likely to be used than others.  Two levels are checked, following
Section 3.3.3:

* **local**: for one switch pair, with each of its candidate VLB paths
  drawn as often as the policy draws it, is some channel's usage
  probability much higher than the pair's average?
* **global**: averaging the per-pair distributions over all (sampled)
  pairs, is some channel globally much hotter than average?

When imbalance is found, the adjustment *removes paths* (the paper's simple
mechanism): locally the offending pair's paths through its hot channels,
globally every path through the globally hot channels, producing one flat
:class:`~repro.routing.pathset.ExcludingPolicy` over the input policy.

Channel usage is read from the route table the simulator, the LP and
the verifier share: the pairs' candidates are one
:meth:`~repro.routing.table.RouteTable.vlb_candidates` call, weighted by
how often the policy draws each
(:func:`~repro.routing.pathset.candidate_weights`) and spread onto
channels by :meth:`~repro.routing.table.RouteTable.vlb_usage`.  No path
is built, and channels are numbered as the route table numbers them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.routing.paths import Channel
from repro.routing.pathset import (
    OP_CHANNELS,
    ExcludingPolicy,
    PathPolicy,
    PolicyProgram,
    candidate_weights,
    program_mask,
)
from repro.routing.table import RouteTable, VlbCandidates, route_table
from repro.routing.vlb import VlbDescriptor
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


def _usage(
    table: RouteTable, cand: VlbCandidates, weight: np.ndarray, pairs: int
) -> np.ndarray:
    """``[pairs, channels]``: for each of the pairs ``cand`` was read
    for, P(channel is on the drawn path) -- its candidates' channel uses
    weighted by ``weight`` (:func:`candidate_weights`) over the pair's
    total weight; a zero row for a pair without any."""
    uses = table.vlb_usage(cand, weight, cand.pair, pairs)
    count = np.bincount(cand.pair, weight, pairs)
    kept = count > 0
    uses[kept] /= count[kept, None]
    return uses


def _read(
    topo: Dragonfly,
    policy: PathPolicy,
    pairs: Sequence[Pair],
) -> Tuple[RouteTable, VlbCandidates, np.ndarray]:
    """The table, the pairs' candidates and the policy's weights."""
    table = route_table(topo)
    src, dst = np.array(pairs, np.int64).reshape(-1, 2).T
    cand = table.vlb_candidates(src, dst)
    return table, cand, candidate_weights(policy, table, cand)


def pair_usage_probability(
    topo: Dragonfly,
    policy: PathPolicy,
    src: int,
    dst: int,
) -> np.ndarray:
    """P(channel is on the chosen path) for a pair under the policy's draw."""
    return _usage(*_read(topo, policy, [(src, dst)]), 1)[0]


def global_usage_probability(
    topo: Dragonfly,
    policy: PathPolicy,
    pairs: Sequence[Pair],
) -> np.ndarray:
    """Mean per-pair usage probability over ``pairs`` (uniform pair choice)."""
    probs = _usage(*_read(topo, policy, pairs), len(pairs))
    return probs.sum(axis=0) / max(len(pairs), 1)


def _hot(probs: np.ndarray, factor: float) -> np.ndarray:
    """Channels whose probability exceeds ``factor`` x mean of used
    channels, as a boolean mask."""
    used = probs[probs > 0]
    if used.size == 0:
        return np.zeros(len(probs), bool)
    return probs > factor * used.mean()


def balance_adjust(
    topo: Dragonfly,
    policy: PathPolicy,
    pairs: Sequence[Pair],
    *,
    local_factor: float = 3.0,
    global_factor: float = 3.0,
    min_remaining: int = 4,
) -> Tuple[PathPolicy, BalanceReport]:
    """Detect and fix local/global imbalance by removing paths.

    ``min_remaining`` guards against removing so many paths that a pair is
    left with fewer candidates than that; offending removals are skipped
    (UGAL tolerates residual imbalance, as the paper notes).
    Returns ``(policy or an ExcludingPolicy of it, report)``.
    """
    report = BalanceReport()
    # pairs often come out of numpy (np.nonzero of a demand matrix);
    # the policy built below must carry plain ints to stay serializable
    pairs = [(int(src), int(dst)) for src, dst in pairs]
    table, cand, weight = _read(topo, policy, pairs)
    # the pairs' rows of ``cand``: pair-major
    bounds = np.searchsorted(cand.pair, np.arange(len(pairs) + 1))

    # ---- local level: per-pair hot channels -> remove that pair's paths
    excluded_descs: Set[Tuple[int, int, VlbDescriptor]] = set()
    local = _usage(table, cand, weight, len(pairs))
    for (src, dst), probs, lo, hi in zip(pairs, local, bounds[:-1], bounds[1:]):
        used = probs[probs > 0]
        if used.size == 0:
            continue
        ratio = float(probs.max() / used.mean())
        report.max_over_mean_local = max(report.max_over_mean_local, ratio)
        hot = _hot(probs, local_factor)
        if not hot.any():
            continue
        # the admitted candidates a one-row program over the hot
        # channels rejects are the pair's paths through them
        avoids_hot = PolicyProgram(ops=[(OP_CHANNELS, 0, 0, 0)], mask=bytearray(hot))
        drawn = weight[lo:hi]
        clear = program_mask(avoids_hot, table, *(c[lo:hi] for c in cand[1:6]))
        if (drawn[~clear] > 0).any() and drawn[clear].sum() >= min_remaining:
            report.local_hot_pairs.append((src, dst))
            drop = (drawn > 0) & ~clear
            excluded_descs.update(
                (src, dst, VlbDescriptor(*desc))
                for desc in zip(*(c[lo:hi][drop].tolist() for c in cand[3:6]))
            )

    adjusted: PathPolicy = policy
    if excluded_descs:
        report.removed_descriptors = len(excluded_descs)
        adjusted = ExcludingPolicy(
            policy, excluded_descriptors=frozenset(excluded_descs)
        )

    # ---- global level: hot channels across all pairs -> exclude channels
    if adjusted is not policy:
        weight = candidate_weights(adjusted, table, cand)
    gprobs = _usage(table, cand, weight, len(pairs)).sum(axis=0) / max(len(pairs), 1)
    used = gprobs[gprobs > 0]
    if used.size:
        report.max_over_mean_global = float(gprobs.max() / used.mean())
    ghot = np.flatnonzero(_hot(gprobs, global_factor))
    if ghot.size:
        channels = frozenset(Channel(*table.channel_keys[i]) for i in ghot)
        candidate = ExcludingPolicy(
            policy,
            excluded_channels=channels,
            excluded_descriptors=frozenset(excluded_descs),
        )
        # only commit if no pair is starved below min_remaining
        kept = np.bincount(
            cand.pair, candidate_weights(candidate, table, cand), len(pairs)
        )
        if (kept >= min_remaining).all():
            report.global_hot_channels = sorted(
                channels, key=lambda ch: (ch.src, ch.dst, ch.slot)
            )
            adjusted = candidate

    return adjusted, report
