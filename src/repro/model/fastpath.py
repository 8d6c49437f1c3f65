"""The LP throughput model's assembly pipeline.

Every solve production code makes -- Step-1 sweeps, Algorithm 1, the
adversary search, ``repro model`` -- goes through :class:`FastModel`, on
every topology and for every modelable policy.  The reference assembly
in :mod:`repro.model.lp_model` rebuilds everything per
call (it re-enumerates every VLB path of every demand pair and re-creates
the sparse constraint matrix entry by entry: ~85% of a Step-1 sweep on
``dfly(4,8,4,9)`` in per-pair enumeration, most of the rest in
Python-loop assembly); it is kept as the parity oracle the tests call
directly.

This module splits the solve into three layers, each cached at its own
lifetime:

* **Per topology** -- :class:`PairBlock` path statistics (MIN usage plus
  per leg-split class VLB channel-usage vectors) memoized in
  :class:`BlockCache`.  The class axis is sized from the topology: a MIN
  leg takes ``1 .. 2*max_local_hops + 1`` hops, so there are
  ``(2*max_local_hops + 1)**2`` leg-split classes (9 on fully connected
  groups, 25 on a Cascade grid).  Blocks come from a closed-form
  vectorized enumerator (:func:`build_pair_block`) where groups are
  fully connected and the pair is enumerated in full, and from
  :func:`~repro.model.pathstats.compute_pair_stats` otherwise; fully
  enumerated blocks are folded over verified rotation symmetry
  (:class:`~repro.model.symmetry.RotationSymmetry`): one orbit
  representative is computed, every other ordered pair of the orbit is a
  channel-relabeling of it.  A policy with no class-weight translation
  (``OrderedVlbPolicy``) gets *policy blocks* instead: the same
  statistics over exactly the descriptors the policy admits, keyed by
  ``(policy, src, dst)``, solved with all-ones class weights.
* **Per pattern** -- a stacked COO skeleton of the channel-capacity block
  (channel / class / pair / value streams in the reference's first-touch
  order) plus injection/ejection rows, derived once per demand matrix.
* **Per solve** -- a cheap patch: leg-split class weights from the
  policy, the first-touch row map and the monotonicity class pairs of
  the induced class mask (both memoized per mask), scaled values,
  equality rows, and the ``linprog`` call -- on the *dual*: the LP as
  modelled has 3-7x more rows than columns and HiGHS's simplex basis is
  row-sized, so the COO streams go in transposed.  The primal point
  comes back as the row duals and is checked against every primal
  constraint before a result is returned; a failed or uncertified solve
  raises.

Results match the reference assembly, which solves the primal, to 1e-9
on throughput (the parity suite in ``tests/test_model_fastpath.py``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.model.lp_model import ModelResult, weights_for_policy
from repro.model.pathstats import (
    ClassStats,
    PairPathStats,
    compute_pair_stats,
)
from repro.model.symmetry import RotationSymmetry
from repro.routing.channels import ChannelIndex
from repro.routing.minimal import min_paths
from repro.routing.paths import Channel
from repro.routing.pathset import PathPolicy
from repro.routing.vlb import count_vlb_paths
from repro.topology.dragonfly import Dragonfly

__all__ = ["PairBlock", "BlockCache", "FastModel", "build_pair_block"]

WeightFn = Callable[[int, int], float]

# A FastModel keeps the skeletons of the last _PATTERNS_MAX distinct
# demands (oldest evicted first): far above any Step-1 / Algorithm-1
# pattern suite, while an adversary search streaming thousands of
# permutations through one memoized model stays bounded (a skeleton is
# ~1.2 MB on dfly(4,8,4,9)).
_PATTERNS_MAX = 128


def _leg_values(topo: Dragonfly) -> int:
    """Hop counts a MIN leg can take: ``1 .. 2*max_local_hops + 1``."""
    return 2 * topo.max_local_hops + 1


# With ``legs`` values per leg, class id c <-> split
# (c // legs + 1, c % legs + 1): ascending ids are ascending splits.
def _class_split(cls: int, legs: int) -> Tuple[int, int]:
    return cls // legs + 1, cls % legs + 1


def _split_class(l1: int, l2: int, legs: int) -> int:
    return (l1 - 1) * legs + (l2 - 1)


def _all_vlb(l1: int, l2: int) -> float:
    return 1.0


@dataclass
class PairBlock:
    """Array-form path statistics of one ordered switch pair.

    The flat-array equivalent of
    :class:`~repro.model.pathstats.PairPathStats`: ``min_idx/min_val``
    hold the per-packet MIN channel usage, and the VLB side is grouped by
    leg-split class id (``cls_id`` ascending): ``counts[c]`` paths in
    class ``c``, with aggregate channel-usage entries
    ``(cls_idx[i], cls_val[i])`` for every ``i`` with ``cls_id[i] == c``.
    Counts and usages are whole path counts (integer-exact in float64),
    scaled back up when the enumerator subsampled.
    """

    src: int
    dst: int
    min_count: int
    min_idx: np.ndarray
    min_val: np.ndarray
    counts: np.ndarray  # (legs**2,) effective path count per class
    cls_id: np.ndarray  # (nnz,) int8, ascending
    cls_idx: np.ndarray  # (nnz,) channel indices
    cls_val: np.ndarray  # (nnz,) aggregate uses

    @staticmethod
    def from_stats(stats: PairPathStats, legs: int = 3) -> "PairBlock":
        """Convert per-path enumerated stats (``legs`` hop values per
        leg: 3 on fully connected groups)."""
        counts = np.zeros(legs * legs, dtype=np.float64)
        ids: List[int] = []
        idxs: List[int] = []
        vals: List[float] = []
        for split, cs in sorted(stats.classes.items()):
            c = _split_class(*split, legs)
            counts[c] = float(cs.count)
            for idx in sorted(cs.usage):
                ids.append(c)
                idxs.append(idx)
                vals.append(cs.usage[idx])
        return PairBlock(
            src=stats.src,
            dst=stats.dst,
            min_count=stats.min_count,
            # repro: allow[DET102]: min_usage insertion order is the
            # deterministic path-enumeration order of pathstats
            min_idx=np.fromiter(
                stats.min_usage.keys(), dtype=np.int64, count=len(stats.min_usage)
            ),
            # repro: allow[DET102]: values() drawn from the same dict as
            # keys() above; pairs stay aligned, order deterministic
            min_val=np.fromiter(
                stats.min_usage.values(),
                dtype=np.float64,
                count=len(stats.min_usage),
            ),
            counts=counts,
            cls_id=np.asarray(ids, dtype=np.int8),
            cls_idx=np.asarray(idxs, dtype=np.int64),
            cls_val=np.asarray(vals, dtype=np.float64),
        )

    def to_stats(self) -> PairPathStats:
        """Back to the dict form consumed by the reference assembly."""
        legs = math.isqrt(len(self.counts))
        classes: Dict[Tuple[int, int], ClassStats] = {}
        for c in range(len(self.counts)):
            if self.counts[c] <= 0:
                continue
            sel = self.cls_id == c
            usage = {
                int(i): float(v)
                for i, v in zip(self.cls_idx[sel], self.cls_val[sel])
            }
            cs = ClassStats(count=int(round(self.counts[c])), usage=usage)
            classes[_class_split(c, legs)] = cs
        min_usage = {
            int(i): float(v) for i, v in zip(self.min_idx, self.min_val)
        }
        return PairPathStats(
            self.src, self.dst, self.min_count, min_usage, classes
        )

    def permuted(
        self, perm: np.ndarray, src: int, dst: int
    ) -> "PairBlock":
        """Relabel channel indices through an automorphism's permutation.

        Counts and values are untouched -- only channel identities move --
        so the result is the exact statistics of the rotated pair.  VLB
        entries are re-sorted to restore the ascending-per-class channel
        order every direct build produces (``min_idx`` keeps its stream
        order: rotations preserve global-link slot order, so the mapped
        MIN entries already arrive in the rotated pair's own order).
        """
        cls_idx = perm[self.cls_idx]
        order = np.lexsort((cls_idx, self.cls_id))
        return PairBlock(
            src=src,
            dst=dst,
            min_count=self.min_count,
            min_idx=perm[self.min_idx],
            min_val=self.min_val,
            counts=self.counts,
            cls_id=self.cls_id[order],
            cls_idx=cls_idx[order],
            cls_val=self.cls_val[order],
        )


class _TopoTables:
    """Per-topology lookup tables shared by all vectorized pair builds."""

    def __init__(self, topo: Dragonfly, chidx: ChannelIndex) -> None:
        self.topo = topo
        self.chidx = chidx
        n, a = topo.num_switches, topo.a
        local_idx = np.full((n, a), -1, dtype=np.int64)
        for u in range(n):
            for v in topo.local_neighbors(u):
                local_idx[u, topo.local_index(v)] = chidx.index(Channel(u, v))
        self.local_idx = local_idx
        self._legs: Dict[
            Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    def legs(
        self, gfrom: int, gto: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-slot arrays ``(x, y, chan)`` of the directed group hop.

        ``x[r]``/``y[r]`` are the endpoint switches of slot ``r`` on the
        from/to side; ``chan[r]`` the directed channel index.
        """
        key = (gfrom, gto)
        out = self._legs.get(key)
        if out is None:
            links = self.topo.links_between_groups(gfrom, gto)
            x = np.asarray(
                [ln.endpoint_in(gfrom) for ln in links], dtype=np.int64
            )
            y = np.asarray(
                [ln.endpoint_in(gto) for ln in links], dtype=np.int64
            )
            chan = np.asarray(
                [
                    self.chidx.index(
                        Channel(ln.endpoint_in(gfrom), ln.endpoint_in(gto), ln.slot)
                    )
                    for ln in links
                ],
                dtype=np.int64,
            )
            out = (x, y, chan)
            self._legs[key] = out
        return out


def build_pair_block(
    topo: Dragonfly,
    chidx: ChannelIndex,
    src: int,
    dst: int,
    tables: Optional[_TopoTables] = None,
) -> PairBlock:
    """Closed-form vectorized pair statistics (full enumeration).

    Equivalent to :func:`~repro.model.pathstats.compute_pair_stats` with
    ``max_descriptors=None`` on topologies with fully connected groups,
    but never materializes a path: for each intermediate group it
    broadcasts the six channel families of the canonical VLB path
    (``src->x1`` local, ``x1->y1`` global, ``y1->mid`` local,
    ``mid->x2`` local, ``x2->y2`` global, ``y2->dst`` local) over the
    ``(mid, slot1, slot2)`` descriptor grid and aggregates with one
    ``bincount`` keyed by ``class * n_channels + channel``.  All counts
    are integer-exact in float64.
    """
    if topo.max_local_hops != 1:
        raise ValueError(
            "vectorized pair builder requires fully connected groups "
            "(max_local_hops == 1); use compute_pair_stats"
        )
    if tables is None:
        tables = _TopoTables(topo, chidx)
    num_chan = len(chidx)
    legs = _leg_values(topo)
    num_classes = legs * legs

    mins = min_paths(topo, src, dst)
    min_usage: Dict[int, float] = {}
    for p in mins:
        for ch in p.channels():
            idx = chidx.index(ch)
            min_usage[idx] = min_usage.get(idx, 0.0) + 1.0 / len(mins)

    gs, gd = topo.group_of(src), topo.group_of(dst)
    a = topo.a
    counts = np.zeros(num_classes, dtype=np.float64)
    usage = np.zeros(num_classes * num_chan, dtype=np.float64)
    local_idx = tables.local_idx
    ldst = topo.local_index(dst)

    for gm in range(topo.g):
        if gm == gs or gm == gd:
            continue
        x1, y1, gc1 = tables.legs(gs, gm)
        x2, y2, gc2 = tables.legs(gm, gd)
        m1, m2 = len(x1), len(x2)
        if m1 == 0 or m2 == 0:
            continue
        mid = np.arange(gm * a, (gm + 1) * a, dtype=np.int64)
        lmid = np.arange(a, dtype=np.int64)
        shape = (a, m1, m2)

        cond1 = x1 != src  # (m1,) src -> x1 local hop exists
        condy1 = y1[None, :] != mid[:, None]  # (a, m1) y1 -> mid
        condx2 = mid[:, None] != x2[None, :]  # (a, m2) mid -> x2
        cond2 = y2 != dst  # (m2,) y2 -> dst

        l1 = cond1[None, :].astype(np.int64) + 1 + condy1  # (a, m1)
        l2 = condx2.astype(np.int64) + 1 + cond2[None, :]  # (a, m2)
        cls = (l1[:, :, None] - 1) * legs + (l2[:, None, :] - 1)  # (a, m1, m2)
        counts += np.bincount(cls.ravel(), minlength=num_classes)

        base = cls * num_chan
        keys: List[np.ndarray] = []

        def fam(chan: np.ndarray, mask: Optional[np.ndarray]) -> None:
            k = base + np.broadcast_to(chan, shape)
            if mask is None:
                keys.append(k.ravel())
            else:
                keys.append(k[np.broadcast_to(mask, shape)])

        loc_sx1 = local_idx[src, x1 % a]  # (m1,) valid where cond1
        loc_y1m = local_idx[y1[None, :], lmid[:, None]]  # (a, m1)
        loc_mx2 = local_idx[mid[:, None], x2[None, :] % a]  # (a, m2)
        loc_y2d = local_idx[y2, ldst]  # (m2,) valid where cond2

        fam(loc_sx1[None, :, None], cond1[None, :, None])
        fam(gc1[None, :, None], None)
        fam(loc_y1m[:, :, None], condy1[:, :, None])
        fam(loc_mx2[:, None, :], condx2[:, None, :])
        fam(gc2[None, None, :], None)
        fam(loc_y2d[None, None, :], cond2[None, None, :])

        usage += np.bincount(
            np.concatenate(keys), minlength=num_classes * num_chan
        )

    ids: List[np.ndarray] = []
    idxs: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    for c in range(num_classes):
        if counts[c] <= 0:
            continue
        seg = usage[c * num_chan : (c + 1) * num_chan]
        nz = np.nonzero(seg)[0]
        ids.append(np.full(len(nz), c, dtype=np.int8))
        idxs.append(nz)
        vals.append(seg[nz])

    empty_i = np.empty(0, dtype=np.int64)
    return PairBlock(
        src=src,
        dst=dst,
        min_count=len(mins),
        # repro: allow[DET102]: min_usage insertion order is the
        # deterministic path-enumeration order of this builder
        min_idx=np.fromiter(
            min_usage.keys(), dtype=np.int64, count=len(min_usage)
        ),
        # repro: allow[DET102]: values() drawn from the same dict as
        # keys() above; pairs stay aligned, order deterministic
        min_val=np.fromiter(
            min_usage.values(), dtype=np.float64, count=len(min_usage)
        ),
        counts=counts,
        cls_id=(
            np.concatenate(ids) if ids else np.empty(0, dtype=np.int8)
        ),
        cls_idx=np.concatenate(idxs) if idxs else empty_i,
        cls_val=(
            np.concatenate(vals) if vals else np.empty(0, dtype=np.float64)
        ),
    )


class BlockCache:
    """Memoized :class:`PairBlock` store with symmetry folding.

    ``symmetry="auto"`` verifies the topology's group rotations once and
    computes path statistics only for one representative per rotation
    orbit, relabeling channels for the other members; ``"off"`` computes
    every ordered pair independently.  Folding and the vectorized builder
    both require full enumeration, so any pair the enumerator would
    subsample (``count > max_descriptors``) is built by
    :func:`compute_pair_stats` with its stride/offset semantics, as is
    every pair of a topology whose groups are not fully connected.

    ``get(src, dst, policy)`` returns the *policy block* of the pair: the
    statistics of exactly the descriptors ``policy`` admits (its own
    ``iter_descriptors``), never folded -- a policy's selection (e.g. the
    ordered-intermediate rule) need not be rotation-equivariant.
    """

    def __init__(
        self,
        topo: Dragonfly,
        chidx: Optional[ChannelIndex] = None,
        max_descriptors: Optional[int] = None,
        seed: int = 0,
        symmetry: str = "auto",
    ) -> None:
        if symmetry not in ("auto", "off"):
            raise ValueError(f"unknown symmetry mode {symmetry!r}")
        self.topo = topo
        self.chidx = chidx if chidx is not None else ChannelIndex(topo)
        self.max_descriptors = max_descriptors
        self.seed = seed
        self.symmetry = symmetry
        self.legs = _leg_values(topo)
        self._blocks: Dict[Tuple, PairBlock] = {}
        self._tables: Optional[_TopoTables] = None
        self._rotsym: Optional[RotationSymmetry] = None
        self._vectorized_ok = topo.max_local_hops == 1
        # instrumentation for benchmarks and tests
        self.built = 0
        self.folded = 0

    def _rotation(self) -> RotationSymmetry:
        if self._rotsym is None:
            self._rotsym = RotationSymmetry(self.topo, self.chidx)
        return self._rotsym

    def _full_enumeration(self, src: int, dst: int) -> bool:
        if self.max_descriptors is None:
            return True
        return count_vlb_paths(self.topo, src, dst) <= self.max_descriptors

    def _build(
        self, src: int, dst: int, policy: Optional[PathPolicy]
    ) -> PairBlock:
        self.built += 1
        if (
            policy is None
            and self._vectorized_ok
            and self._full_enumeration(src, dst)
        ):
            if self._tables is None:
                self._tables = _TopoTables(self.topo, self.chidx)
            return build_pair_block(
                self.topo, self.chidx, src, dst, self._tables
            )
        return PairBlock.from_stats(
            compute_pair_stats(
                self.topo,
                self.chidx,
                src,
                dst,
                max_descriptors=self.max_descriptors,
                seed=self.seed,
                policy=policy,
            ),
            self.legs,
        )

    def get(
        self, src: int, dst: int, policy: Optional[PathPolicy] = None
    ) -> PairBlock:
        key = (src, dst) if policy is None else (policy, src, dst)
        block = self._blocks.get(key)
        if block is not None:
            return block
        # Folding requires full enumeration: the subsample offset is
        # seeded per (seed, src, dst), so subsampled pairs are not
        # rotation-equivariant and must be built directly.
        if (
            policy is None
            and self.symmetry == "auto"
            and self._full_enumeration(src, dst)
        ):
            sym = self._rotation()
            if sym.fold_factor > 1:
                rs, rd, t = sym.canonical_pair(src, dst)
                if (rs, rd) != (src, dst):
                    rep = self.get(rs, rd)
                    block = rep.permuted(sym.channel_perm(t), src, dst)
                    self.folded += 1
                    self._blocks[key] = block
                    return block
        block = self._build(src, dst, policy)
        self._blocks[key] = block
        return block

    def __len__(self) -> int:
        return len(self._blocks)


class _PatternStruct:
    """Pattern-lifetime skeleton of the LP: everything except weights.

    Streams are pair-major in the reference assembly's touch order (MIN
    entries of a pair, then its VLB entries by ascending class), so the
    first-touch channel-row numbering follows the reference row order.
    ``policy`` selects policy blocks (see :meth:`BlockCache.get`).
    """

    def __init__(
        self,
        topo: Dragonfly,
        demand: np.ndarray,
        blocks: BlockCache,
        policy: Optional[PathPolicy],
    ) -> None:
        self.pairs: List[Tuple[int, int, float]] = [
            (int(s), int(d), float(demand[s, d]))
            for s, d in zip(*np.nonzero(demand))
            if s != d
        ]
        num_pairs = len(self.pairs)
        self.num_pairs = num_pairs
        self.counts = np.zeros(
            (num_pairs, blocks.legs * blocks.legs), dtype=np.float64
        )

        chan_parts: List[np.ndarray] = []
        cls_parts: List[np.ndarray] = []
        pair_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        for k, (s, d, _w) in enumerate(self.pairs):
            blk = blocks.get(s, d, policy)
            self.counts[k] = blk.counts
            chan_parts.append(blk.min_idx)
            cls_parts.append(np.full(len(blk.min_idx), -1, dtype=np.int8))
            pair_parts.append(np.full(len(blk.min_idx), k, dtype=np.int64))
            val_parts.append(blk.min_val)
            chan_parts.append(blk.cls_idx)
            cls_parts.append(blk.cls_id)
            pair_parts.append(np.full(len(blk.cls_idx), k, dtype=np.int64))
            val_parts.append(blk.cls_val)

        self.chan = (
            np.concatenate(chan_parts)
            if chan_parts
            else np.empty(0, dtype=np.int64)
        )
        self.cls = (
            np.concatenate(cls_parts)
            if cls_parts
            else np.empty(0, dtype=np.int8)
        )
        self.pair = (
            np.concatenate(pair_parts)
            if pair_parts
            else np.empty(0, dtype=np.int64)
        )
        self.val = (
            np.concatenate(val_parts)
            if val_parts
            else np.empty(0, dtype=np.float64)
        )
        self.is_min = self.cls < 0
        # free-mode per-path coefficients are weight-independent
        self.val_norm = self.val.copy()
        vlb = ~self.is_min
        self.val_norm[vlb] = self.val[vlb] / self.counts[
            self.pair[vlb], self.cls[vlb].astype(np.int64)
        ]

        # injection/ejection rows: lambda * row_sum <= p, interleaved
        # inj-then-ej per switch like the reference loop
        inj = demand.sum(axis=1)
        ej = demand.sum(axis=0)
        ie: List[float] = []
        for s in range(topo.num_switches):
            if inj[s] > 0:
                ie.append(float(inj[s]))
            if ej[s] > 0:
                ie.append(float(ej[s]))
        self.ie_vals = np.asarray(ie, dtype=np.float64)

        self.num_channels = len(blocks.chidx)
        self._rowmaps: Dict[
            Tuple[bool, ...], Tuple[np.ndarray, np.ndarray, int]
        ] = {}
        legs = blocks.legs
        self._class_hops = np.asarray(
            [sum(_class_split(c, legs)) for c in range(legs * legs)]
        )
        self._monopairs: Dict[
            Tuple[bool, ...], Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    def rowmap(
        self, ok: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """``(entry_mask, channel_rows, n_rows)`` for a class mask.

        ``entry_mask`` selects the stream entries alive under the mask
        (MIN always; VLB iff its class is included); ``channel_rows``
        aligns with the selected entries and numbers channels in
        first-touch order, like the reference's lazy row assignment.
        """
        key = tuple(bool(b) for b in ok)
        cached = self._rowmaps.get(key)
        if cached is not None:
            return cached
        incl = self.is_min.copy()
        vlb = ~self.is_min
        incl[vlb] = ok[self.cls[vlb].astype(np.int64)]
        chan_sel = self.chan[incl]
        uniq, first = np.unique(chan_sel, return_index=True)
        order = np.argsort(first, kind="stable")
        row_of = np.full(self.num_channels, -1, dtype=np.int64)
        row_of[uniq[order]] = np.arange(len(uniq), dtype=np.int64)
        out = (incl, row_of[chan_sel], len(uniq))
        self._rowmaps[key] = out
        return out

    def monopairs(
        self, ok: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pair, long_class, short_class)`` of every monotonicity row
        under a class mask: each included class of a pair against each
        included class one populated hop level below, in the reference's
        row order."""
        key = tuple(bool(b) for b in ok)
        cached = self._monopairs.get(key)
        if cached is None:
            trip: List[Tuple[int, int, int]] = []
            for k, row in enumerate(ok[None, :] & (self.counts > 0)):
                classes = np.nonzero(row)[0]
                hops = self._class_hops[classes]
                levels = np.unique(hops)
                for lo, hi in zip(levels, levels[1:]):
                    trip.extend(
                        (k, c_long, c_short)
                        for c_long in classes[hops == hi]
                        for c_short in classes[hops == lo]
                    )
            arr = np.asarray(trip, dtype=np.int64).reshape(-1, 3)
            cached = self._monopairs[key] = (arr[:, 0], arr[:, 1], arr[:, 2])
        return cached


# what one _assemble_* returns: channel-block columns and values, the
# variable count, VLB variables per pair, and the monotonicity rows
# (two consecutive entries each: long class, short class)
_Assembly = Tuple[
    np.ndarray, np.ndarray, int, np.ndarray, np.ndarray, np.ndarray
]


class FastModel:
    """Reusable factored solver: one instance amortizes a whole sweep.

    Construct once per topology; call :meth:`solve` per
    ``(demand, policy)`` point.  Structural state (pair blocks, pattern
    skeletons, row maps) accumulates across calls and is shared by every
    subsequent solve.
    """

    def __init__(
        self,
        topo: Dragonfly,
        chidx: Optional[ChannelIndex] = None,
        max_descriptors: Optional[int] = None,
        seed: int = 0,
        symmetry: str = "auto",
    ) -> None:
        self.topo = topo
        self.blocks = BlockCache(
            topo,
            chidx=chidx,
            max_descriptors=max_descriptors,
            seed=seed,
            symmetry=symmetry,
        )
        legs = self.blocks.legs
        self._splits = [
            _class_split(c, legs) for c in range(legs * legs)
        ]
        self._patterns: Dict[
            Tuple[bytes, Optional[PathPolicy]], _PatternStruct
        ] = {}

    @property
    def chidx(self) -> ChannelIndex:
        return self.blocks.chidx

    def _pattern(
        self, demand: np.ndarray, policy: Optional[PathPolicy]
    ) -> _PatternStruct:
        demand = np.asarray(demand, dtype=np.float64)
        key = (
            hashlib.blake2b(demand.tobytes(), digest_size=16).digest(),
            policy,
        )
        struct = self._patterns.get(key)
        if struct is None:
            if len(self._patterns) >= _PATTERNS_MAX:
                del self._patterns[next(iter(self._patterns))]
            struct = _PatternStruct(self.topo, demand, self.blocks, policy)
            self._patterns[key] = struct
        return struct

    def solve(
        self,
        demand: np.ndarray,
        weight_fn: Optional[WeightFn] = None,
        *,
        policy: Optional[PathPolicy] = None,
        mode: str = "uniform",
        monotonic: bool = True,
    ) -> ModelResult:
        """Same arguments and :class:`ModelResult` as the reference
        assembly in :mod:`repro.model.lp_model`."""
        if mode not in ("uniform", "free"):
            raise ValueError(f"unknown mode {mode!r}")
        exact_policy: Optional[PathPolicy] = None
        if weight_fn is None:
            weight_fn = _all_vlb
            if policy is not None:
                try:
                    weight_fn = weights_for_policy(policy)
                except TypeError:
                    # no class-weight translation (e.g. OrderedVlbPolicy):
                    # the policy's own blocks *are* the candidate set, so
                    # all-ones weights are exact.  ValueError (policies
                    # finer than leg-split classes) still propagates.
                    exact_policy = policy

        struct = self._pattern(demand, exact_policy)
        num_pairs = struct.num_pairs
        if num_pairs == 0:
            return ModelResult(1.0, 1.0, "trivial", 0)

        weights = np.asarray(
            [weight_fn(l1, l2) for l1, l2 in self._splits],
            dtype=np.float64,
        )
        ok = weights > 1e-9
        w_eff = np.where(ok, weights, 0.0)
        incl, ch_rows, n_ch_rows = struct.rowmap(ok)

        pair_sel = struct.pair[incl]
        cls_sel = struct.cls[incl].astype(np.int64)
        is_min_sel = struct.is_min[incl]

        if mode == "uniform":
            out = self._assemble_uniform(
                struct, w_eff, incl, pair_sel, cls_sel, is_min_sel
            )
        else:
            out = self._assemble_free(
                struct, w_eff, ok, incl, pair_sel, cls_sel, is_min_sel,
                monotonic,
            )
        cols, vals, num_vars, nvars_pair, mono_cols, mono_vals = out

        # rows: channel-capacity block, then inj/ej, then monotonic
        num_ie = len(struct.ie_vals)
        num_mono = len(mono_cols) // 2
        r0 = n_ch_rows + num_ie
        num_rows = r0 + num_mono
        rows = np.concatenate(
            [
                ch_rows,
                np.arange(n_ch_rows, r0, dtype=np.int64),
                r0 + np.repeat(np.arange(num_mono, dtype=np.int64), 2),
            ]
        )
        cols = np.concatenate(
            [cols, np.zeros(num_ie, dtype=np.int64), mono_cols]
        )
        vals = np.concatenate([vals, struct.ie_vals, mono_vals])
        b_ub = np.concatenate(
            [
                np.ones(n_ch_rows),
                np.full(num_ie, float(self.topo.p)),
                np.zeros(num_mono),
            ]
        )

        # equality rows: x_k + sum(vlb vars of pair k) - w_k * lambda = 0
        pair_w = np.asarray([w for _s, _d, w in struct.pairs])
        e_rows = np.concatenate(
            [
                np.arange(num_pairs),
                np.repeat(np.arange(num_pairs), nvars_pair),
                np.arange(num_pairs),
            ]
        )
        e_cols = np.concatenate(
            [
                1 + np.arange(num_pairs),
                np.arange(1 + num_pairs, num_vars),
                np.zeros(num_pairs, dtype=np.int64),
            ]
        )
        e_vals = np.concatenate(
            [
                np.ones(num_pairs),
                np.ones(num_vars - 1 - num_pairs),
                -pair_w,
            ]
        )

        # HiGHS's simplex basis is row-sized and the LP as modelled (max
        # lambda s.t. A_ub x <= b_ub, A_eq x = 0, x >= 0, lambda <= 1) has
        # several times more rows than columns, so HiGHS gets the dual: a
        # column u >= 0 per inequality row, t >= 0 for the bound on
        # lambda, a free v per equality row,
        #   min b_ub.u + t   s.t.   -(A_ub'u + t e_0 + A_eq'v) <= -e_0.
        # Its optimum is lambda*; the primal point is minus its row duals.
        num_dual = num_rows + 1 + num_pairs
        cost = np.concatenate([b_ub, [1.0], np.zeros(num_pairs)])
        a_dual = coo_matrix(
            (
                -np.concatenate([vals, [1.0], e_vals]),
                (
                    np.concatenate([cols, [0], e_cols]),
                    np.concatenate([rows, [num_rows], num_rows + 1 + e_rows]),
                ),
            ),
            shape=(num_vars, num_dual),
        ).tocsr()
        bounds = np.zeros((num_dual, 2))
        bounds[:, 1] = np.inf
        bounds[num_rows + 1 :, 0] = -np.inf
        c = np.zeros(num_vars)
        c[0] = -1.0
        res = linprog(
            cost, A_ub=a_dual, b_ub=c, bounds=bounds, method="highs"
        )
        failed = lambda why: RuntimeError(  # noqa: E731
            f"LP solve failed ({why}) on {self.topo!r}, "
            f"{num_pairs} demand pairs, mode {mode!r}, policy "
            f"{policy.describe() if policy is not None else 'weight_fn'}"
        )
        if not res.success:
            raise failed(f"status {res.status}: {res.message}")
        # both sides of the optimum are in hand, so the primal point is
        # checked rather than the status flag trusted:
        # lhs = [A_ub x, x_0, A_eq x] against cost = [b_ub, 1, 0]
        x = -res.ineqlin.marginals
        lhs = -(a_dual.T @ x)
        if not (
            x.min() >= -1e-9
            and np.all(lhs <= cost + 1e-9 * (1.0 + cost))
            and lhs[num_rows + 1 :].min() >= -1e-9
            and abs(x[0] - res.fun) <= 1e-9
        ):
            raise failed(
                "the point recovered from the row duals is not "
                "primal-feasible at the optimum"
            )
        lam = float(x[0])
        x_total = float(x[1 : 1 + num_pairs].sum())
        served = float(lam * pair_w.sum())
        min_frac = x_total / served if served > 0 else 1.0
        return ModelResult(lam, min_frac, "optimal", num_pairs)

    # ------------------------------------------------------------------
    def _assemble_uniform(
        self,
        struct: _PatternStruct,
        w_eff: np.ndarray,
        incl: np.ndarray,
        pair_sel: np.ndarray,
        cls_sel: np.ndarray,
        is_min_sel: np.ndarray,
    ) -> _Assembly:
        """One aggregate VLB variable per pair with nonempty weighted set."""
        num_pairs = struct.num_pairs
        wtotal = struct.counts @ w_eff  # (K,)
        has_vlb = wtotal > 1e-9
        vlb_var = 1 + num_pairs + np.cumsum(has_vlb) - 1  # valid where has_vlb
        num_vars = 1 + num_pairs + int(has_vlb.sum())

        cols = np.where(
            is_min_sel, 1 + pair_sel, vlb_var[pair_sel]
        )
        safe_total = np.where(has_vlb, wtotal, 1.0)
        vals = np.where(
            is_min_sel,
            struct.val[incl],
            w_eff[cls_sel] * struct.val[incl] / safe_total[pair_sel],
        )
        nvars_pair = has_vlb.astype(np.int64)
        return (
            cols, vals, num_vars, nvars_pair,
            np.empty(0, dtype=np.int64), np.empty(0),
        )

    def _assemble_free(
        self,
        struct: _PatternStruct,
        w_eff: np.ndarray,
        ok: np.ndarray,
        incl: np.ndarray,
        pair_sel: np.ndarray,
        cls_sel: np.ndarray,
        is_min_sel: np.ndarray,
        monotonic: bool,
    ) -> _Assembly:
        """One variable per (pair, included leg-split class)."""
        num_pairs = struct.num_pairs
        incl_mat = ok[None, :] & (struct.counts > 0)  # (K, C)
        nvars_pair = incl_mat.sum(axis=1).astype(np.int64)
        var_base = 1 + num_pairs + np.concatenate(
            [[0], np.cumsum(nvars_pair)[:-1]]
        ).astype(np.int64)
        rank = np.cumsum(incl_mat, axis=1) - 1
        var_of = var_base[:, None] + rank  # valid where incl_mat
        num_vars = 1 + num_pairs + int(nvars_pair.sum())

        cols = np.where(
            is_min_sel, 1 + pair_sel, var_of[pair_sel, cls_sel]
        )
        vals = np.where(is_min_sel, struct.val[incl], struct.val_norm[incl])

        mono_cols = np.empty(0, dtype=np.int64)
        mono_vals = np.empty(0)
        if monotonic:
            # y_long / N_long - y_short / N_short <= 0
            k, c_long, c_short = struct.monopairs(ok)
            class_size = w_eff[None, :] * struct.counts  # (K, C)
            mono_cols = np.stack(
                [var_of[k, c_long], var_of[k, c_short]], axis=1
            ).ravel()
            mono_vals = np.stack(
                [1.0 / class_size[k, c_long], -1.0 / class_size[k, c_short]],
                axis=1,
            ).ravel()
        return cols, vals, num_vars, nvars_pair, mono_cols, mono_vals
