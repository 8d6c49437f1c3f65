"""The LP throughput model's assembly pipeline.

Every solve production code makes -- Step-1 sweeps, Algorithm 1, the
adversary search, ``repro model`` -- goes through :class:`FastModel`, on
every topology and for every modelable policy.  The reference assembly
in :mod:`repro.model.lp_model` rebuilds everything per call (it
re-enumerates every VLB path of every demand pair in Python and
re-creates the sparse constraint matrix entry by entry); it is kept as
the parity oracle the tests call directly.

This module splits the solve into three layers, each cached at its own
lifetime:

* **Per topology** -- :class:`PairBlock` path statistics (MIN usage plus
  per leg-split class VLB channel-usage vectors) memoized in
  :class:`BlockCache`.  The class axis is sized from the topology: a MIN
  leg takes ``1 .. 2*max_local_hops + 1`` hops, so there are
  ``(2*max_local_hops + 1)**2`` leg-split classes (9 on fully connected
  groups, 25 on a Cascade grid).  Every block is read from the route
  table the simulator and the verifier use
  (:func:`~repro.routing.table.route_table`): a VLB candidate ``(mid,
  slot1, slot2)`` is two slots of ``min_slots()``, the candidates of a
  pair are the table's ``vlb_candidates`` rows, counted per (class, leg)
  and spread onto channels by ``vlb_usage`` -- no path is ever
  materialized.  A policy with no class-weight translation
  (``OrderedVlbPolicy``, ``ExcludingPolicy``, ``ExplicitPathSet``) gets
  *policy blocks* instead: the same statistics with each candidate
  weighted by how often the policy draws it
  (:func:`~repro.routing.pathset.candidate_weights`, the rule the
  balance step, the verifier and the path-length statistics read the
  same rows by), solved with all-ones class weights.
* **Per pattern** -- a stacked COO skeleton of the channel-capacity block
  (channel / class / pair / value streams in the reference's first-touch
  order) plus injection/ejection rows, derived once per demand matrix.
* **Per solve** -- a cheap patch: leg-split class weights from the
  policy, the first-touch row map and the monotonicity class pairs of
  the induced class mask (both memoized per mask), scaled values,
  equality rows; then the LP's *equitable quotient*
  (:mod:`repro.model.quotient`): rows and columns the demand and the
  topology make interchangeable are merged into classes, refined once
  per skeleton and set of weight ties from labels that do not read the
  weights, and checked against this solve's values (the trivial
  partition -- the LP itself -- where the check fails).  HiGHS solves
  the quotient's *dual*: the LP as modelled has 3-7x more rows than
  columns and HiGHS's simplex basis is row-sized.  The quotient's
  primal point comes back as the row duals, is copied onto every
  column of each class, and is checked against every constraint of the
  *full* LP before a result is returned; a failed or uncertified solve
  raises.

One :class:`FastModel` may be shared by threads: a lock per instance
guards the memo fills (pattern skeletons, pair blocks, row maps,
monotonicity pairs and partitions), while assembly -- which only reads
arrays that are immutable once built -- the equitability check, the
``linprog`` call, which releases the GIL, and the certification run
unlocked in the solving thread.

Results match the reference assembly, which solves the primal, to 1e-9
on throughput (the parity suite in ``tests/test_model_fastpath.py``).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.model import quotient
from repro.model.lp_model import ModelResult, weights_for_policy
from repro.model.quotient import Partition, Quotient
from repro.routing.pathset import PathPolicy, candidate_weights
from repro.routing.table import route_table, spans
from repro.topology.dragonfly import Dragonfly

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.pathstats import PairPathStats

__all__ = ["PairBlock", "BlockCache", "FastModel"]

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
    hold the per-packet MIN channel usage in first-touch order, and the
    VLB side is grouped by leg-split class id (``cls_id`` ascending):
    ``counts[c]`` paths in class ``c``, with aggregate channel-usage
    entries ``(cls_idx[i], cls_val[i])`` (channels ascending) for every
    ``i`` with ``cls_id[i] == c``.  Counts and usages are whole path
    counts, integer-exact in float64.
    """

    src: int
    dst: int
    min_count: int
    min_idx: np.ndarray
    min_val: np.ndarray
    counts: np.ndarray  # (legs**2,) path count per class
    cls_id: np.ndarray  # (nnz,) int8, ascending
    cls_idx: np.ndarray  # (nnz,) channel indices
    cls_val: np.ndarray  # (nnz,) aggregate uses

    @staticmethod
    def from_stats(stats: "PairPathStats", legs: int = 3) -> "PairBlock":
        """Convert the reference's per-path enumerated stats (``legs``
        hop values per leg: 3 on fully connected groups)."""
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


class BlockCache:
    """Memoized :class:`PairBlock` store over the topology's route table.

    ``get(src, dst)`` is the block of every VLB candidate of the pair;
    ``get(src, dst, policy)`` the *policy block*: the candidates
    ``policy`` admits, weighted by
    :func:`~repro.routing.pathset.candidate_weights`.
    Not locked itself: a :class:`FastModel` only calls it under its own
    lock.
    """

    def __init__(self, topo: Dragonfly) -> None:
        self.topo = topo
        self.table = route_table(topo)
        self.num_channels = len(self.table.channel_keys)
        self.legs = _leg_values(topo)
        self._blocks: Dict[Tuple, PairBlock] = {}

    def get(
        self,
        src: int,
        dst: int,
        policy: Optional[PathPolicy] = None,
    ) -> PairBlock:
        key = (src, dst) if policy is None else (policy, src, dst)
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = self._build(src, dst, policy)
        return block

    def __len__(self) -> int:
        return len(self._blocks)

    def _build(
        self,
        src: int,
        dst: int,
        policy: Optional[PathPolicy],
    ) -> PairBlock:
        table = self.table
        slots = table.min_slots()
        n, nchan, legs = table.nsw, self.num_channels, self.legs

        # MIN: the pair's slots in link-slot order, each packet split
        # evenly; a channel's share accumulates one 1/k at a time, in
        # first-touch order, like the reference's dict
        k = int(slots.k[src * n + dst])
        first = slots.first[src * n + dst] + np.arange(k)
        chans = slots.chan[spans(slots.rel[first], slots.hops[first])]
        touched, at, uses = np.unique(
            chans, return_index=True, return_counts=True
        )
        order = np.argsort(at)
        share = np.cumsum(np.full(int(uses.max(initial=0)), 1.0 / max(k, 1)))

        cand = table.vlb_candidates(src, dst)
        weight = (
            np.ones(len(cand.pair))
            if policy is None
            else candidate_weights(policy, table, cand)
        )
        cls = (slots.hops[cand.leg1] - 1) * legs + slots.hops[cand.leg2] - 1
        usage = table.vlb_usage(cand, weight, cls, legs * legs).reshape(-1)
        used = np.flatnonzero(usage)
        return PairBlock(
            src=src,
            dst=dst,
            min_count=k,
            min_idx=touched[order].astype(np.int64),
            min_val=share[uses[order] - 1],
            counts=np.bincount(cls, weight, legs * legs).astype(np.float64),
            cls_id=(used // nchan).astype(np.int8),
            cls_idx=used % nchan,
            cls_val=usage[used],
        )


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

        self.num_channels = blocks.num_channels
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
        self._partitions: Dict[Tuple[Tuple[int, ...], str, bool], Partition] = {}
        self._plan: Optional[Tuple[Tuple[Tuple[int, ...], str, bool], Quotient]] = None

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

    def quotient(
        self,
        key: Tuple[Tuple[int, ...], str, bool],
        refine: Callable[[], Partition],
        plan: Callable[[Partition], Quotient],
    ) -> Quotient:
        """The quotient of the LP under ``key`` -- which classes are
        included and which share a weight, the mode, monotonicity rows or
        not.  Its partition is refined once per key (by ``refine``) and
        kept: it is refined from labels that do not read the weights
        (:meth:`FastModel._labels`), so one serves every solve with the
        same ties.  Its tables (``plan``), which hold a few arrays per
        LP entry, are kept for the last key asked only."""
        if self._plan is None or self._plan[0] != key:
            part = self._partitions.get(key)
            if part is None:
                part = self._partitions[key] = refine()
            self._plan = (key, plan(part))
        return self._plan[1]


# what one _assemble_* returns: channel-block columns and values, the
# variable count, VLB variables per pair, and the monotonicity rows
# (two consecutive entries each: long class, short class)
_Assembly = Tuple[
    np.ndarray, np.ndarray, int, np.ndarray, np.ndarray, np.ndarray
]


class _Lp(NamedTuple):
    """One solve's LP as modelled, entry by entry: ``max x[0]`` s.t. rows
    ``[0, num_ub)`` of ``A x`` are ``<= b`` and the rest ``= 0``, ``x >=
    0``; ``quotient`` over an equitable partition of it, with entries
    ``q_vals``."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray  # (num rows,) 0 on the equality rows
    num_ub: int
    num_vars: int
    num_pairs: int
    pair_w: np.ndarray
    quotient: Quotient
    q_vals: np.ndarray


class FastModel:
    """Reusable factored solver: one instance amortizes a whole sweep.

    Construct once per topology; call :meth:`solve` per
    ``(demand, policy)`` point.  Structural state (pair blocks, pattern
    skeletons, row maps, partitions) accumulates across calls and is
    shared by every subsequent solve, from any thread: concurrent solves
    on one instance return exactly what the same solves return one after
    another.
    """

    def __init__(
        self,
        topo: Dragonfly,
        max_descriptors: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        # ``seed`` and a ``None`` cap are still accepted from callers
        # written when blocks could be subsampled; neither changes a block
        if max_descriptors is not None:
            raise ValueError(
                "max_descriptors was removed: FastModel builds every pair "
                "block exactly from the route table"
            )
        del seed
        self.topo = topo
        self.blocks = BlockCache(topo)
        legs = self.blocks.legs
        self._splits = [
            _class_split(c, legs) for c in range(legs * legs)
        ]
        self._patterns: Dict[
            Tuple[bytes, Optional[PathPolicy]], _PatternStruct
        ] = {}
        self._lock = threading.Lock()

    def _pattern(
        self, demand: np.ndarray, policy: Optional[PathPolicy]
    ) -> _PatternStruct:
        """The memoized skeleton of ``demand`` (call with the lock held)."""
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
        return self._solve(demand, weight_fn, policy, mode, monotonic)[0]

    def shape(
        self,
        demand: np.ndarray,
        weight_fn: Optional[WeightFn] = None,
        *,
        policy: Optional[PathPolicy] = None,
        mode: str = "uniform",
        monotonic: bool = True,
    ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """HiGHS's matrix for :meth:`solve` with these arguments, as
        ``(rows, columns)``: the full LP's and that of its equitable
        quotient, the one HiGHS is given."""
        lp = self._lp(demand, weight_fn, policy, mode, monotonic)
        if lp is None:
            return (0, 0), (0, 0)
        # a row per variable (class), a column per constraint row (class)
        part = lp.quotient.part
        return (lp.num_vars, len(lp.b)), (
            part.num_col_classes, part.num_row_classes
        )

    def _lp(
        self,
        demand: np.ndarray,
        weight_fn: Optional[WeightFn],
        policy: Optional[PathPolicy],
        mode: str,
        monotonic: bool,
    ) -> Optional[_Lp]:
        """The LP of one solve with a verified equitable partition, or
        ``None`` when the demand has no pair to serve."""
        if mode not in ("uniform", "free"):
            raise ValueError(f"unknown mode {mode!r}")
        exact_policy: Optional[PathPolicy] = None
        if weight_fn is None:
            weight_fn = _all_vlb
            if policy is not None:
                try:
                    weight_fn = weights_for_policy(policy)
                except TypeError:
                    # no class-weight translation: the policy's own blocks
                    # *are* the candidate set, so all-ones weights are exact
                    exact_policy = policy

        weights = np.asarray(
            [weight_fn(l1, l2) for l1, l2 in self._splits],
            dtype=np.float64,
        )
        ok = weights > 1e-9
        w_eff = np.where(ok, weights, 0.0)
        with self._lock:  # memo fills only; the rest runs unlocked
            struct = self._pattern(demand, exact_policy)
            if struct.num_pairs == 0:
                return None
            incl, ch_rows, n_ch_rows = struct.rowmap(ok)
            mono = (
                struct.monopairs(ok) if mode == "free" and monotonic else None
            )
        num_pairs = struct.num_pairs

        pair_sel = struct.pair[incl]
        cls_sel = struct.cls[incl].astype(np.int64)
        is_min_sel = struct.is_min[incl]

        if mode == "uniform":
            out = self._assemble_uniform(
                struct, w_eff, incl, pair_sel, cls_sel, is_min_sel
            )
        else:
            out = self._assemble_free(
                struct, w_eff, ok, incl, pair_sel, cls_sel, is_min_sel, mono
            )
        ch_cols, ch_vals, num_vars, nvars_pair, mono_cols, mono_vals = out

        # rows: the inequalities -- channel-capacity block, inj/ej,
        # monotonicity, lambda <= 1 -- then the equality rows of the pairs
        #   x_k + sum(vlb vars of pair k) - w_k * lambda = 0
        num_ie = len(struct.ie_vals)
        num_mono = len(mono_cols) // 2
        r0 = n_ch_rows + num_ie
        num_ub = r0 + num_mono + 1
        pair_w = np.asarray([w for _s, _d, w in struct.pairs])
        rows = np.concatenate(
            [
                ch_rows,
                np.arange(n_ch_rows, r0, dtype=np.int64),
                r0 + np.repeat(np.arange(num_mono, dtype=np.int64), 2),
                [num_ub - 1],
                num_ub + np.arange(num_pairs),
                num_ub + np.repeat(np.arange(num_pairs), nvars_pair),
                num_ub + np.arange(num_pairs),
            ]
        )
        cols = np.concatenate(
            [
                ch_cols,
                np.zeros(num_ie, dtype=np.int64),
                mono_cols,
                [0],
                1 + np.arange(num_pairs),
                np.arange(1 + num_pairs, num_vars),
                np.zeros(num_pairs, dtype=np.int64),
            ]
        )
        vals = np.concatenate(
            [
                ch_vals,
                struct.ie_vals,
                mono_vals,
                [1.0],
                np.ones(num_pairs),
                np.ones(num_vars - 1 - num_pairs),
                -pair_w,
            ]
        )
        b = np.concatenate(
            [
                np.ones(n_ch_rows),
                np.full(num_ie, float(self.topo.p)),
                np.zeros(num_mono),
                [1.0],
                np.zeros(num_pairs),
            ]
        )
        kinds = np.repeat(
            np.arange(5), [n_ch_rows, num_ie, num_mono, 1, num_pairs]
        )
        cost = np.zeros(num_vars)
        cost[0] = 1.0

        # classes of one weight are interchangeable in every coefficient
        ties = np.full(len(ok), -1, np.int64)
        ties[ok] = quotient.classes([w_eff[ok]])

        def refined() -> Partition:
            labels, col_colour = self._labels(
                struct, mode, ties, incl, ch_vals, mono, vals, num_vars
            )
            return quotient.refine(rows, cols, labels, kinds, col_colour)

        def plan(part: Partition) -> Quotient:
            return Quotient(part, rows, cols, len(b), num_vars)

        key = (tuple(ties.tolist()), mode, mono is not None)
        with self._lock:
            q = struct.quotient(key, refined, plan)
        # the memo is a candidate: the LP is solved on it only if these
        # values make it equitable (the trivial partition always is)
        q_vals = q.matrix(vals, (b, kinds), (cost,))
        if q_vals is None:
            q = plan(quotient.trivial(len(b), num_vars))
            q_vals = q.matrix(vals, (b, kinds), (cost,))
        return _Lp(
            rows, cols, vals, b, num_ub, num_vars, num_pairs, pair_w, q, q_vals
        )

    def _solve(
        self,
        demand: np.ndarray,
        weight_fn: Optional[WeightFn],
        policy: Optional[PathPolicy],
        mode: str,
        monotonic: bool,
    ) -> Tuple[ModelResult, Optional[np.ndarray]]:
        """:meth:`solve`, plus the full-size primal point it certified
        (``None`` for a demand with no pair)."""
        lp = self._lp(demand, weight_fn, policy, mode, monotonic)
        if lp is None:
            return ModelResult(1.0, 1.0, "trivial", 0), None
        q, num_pairs, num_ub = lp.quotient, lp.num_pairs, lp.num_ub
        part = q.part

        # HiGHS's simplex basis is row-sized and the LP as modelled (max
        # lambda s.t. A_ub x <= b_ub, A_eq x = 0, x >= 0) has several
        # times more rows than columns, so HiGHS gets the dual of its
        # quotient Q: a column u >= 0 per inequality row class and a free
        # v per equality row class,
        #   min b_ub.u   s.t.   -(Q_ub'u + Q_eq'v) <= -e_lambda.
        # Its optimum is lambda*; the quotient's primal point is minus its
        # row duals, and copied onto every column of each class it is a
        # point of the full LP.
        q_b = np.zeros(part.num_row_classes)
        q_b[part.rows] = lp.b
        a_dual = coo_matrix(
            (-lp.q_vals, (q.q_cols, q.q_rows)),
            shape=(part.num_col_classes, part.num_row_classes),
        ).tocsr()
        bounds = np.zeros((part.num_row_classes, 2))
        bounds[:, 1] = np.inf
        bounds[part.rows[num_ub:], 0] = -np.inf
        c = np.zeros(part.num_col_classes)
        c[part.cols[0]] = -1.0
        failed = lambda why: RuntimeError(  # noqa: E731
            f"LP solve failed ({why}) on {self.topo!r}, "
            f"{num_pairs} demand pairs, mode {mode!r}, policy "
            f"{policy.describe() if policy is not None else 'weight_fn'}"
        )

        def certified(options: Optional[dict]) -> Tuple[bool, np.ndarray]:
            res = linprog(
                q_b, A_ub=a_dual, b_ub=c, bounds=bounds, method="highs",
                options=options,
            )
            if not res.success:
                raise failed(f"status {res.status}: {res.message}")
            # both sides of the optimum are in hand, so the primal point
            # is checked, on the full LP, rather than the status flag
            # trusted: lhs = [A_ub x, A_eq x] against b = [b_ub, 0]
            x = -res.ineqlin.marginals[part.cols]
            lhs = np.bincount(lp.rows, lp.vals * x[lp.cols], len(lp.b))
            return bool(
                x.min() >= -1e-9
                and np.all(lhs <= lp.b + 1e-9 * (1.0 + lp.b))
                and lhs[num_ub:].min() >= -1e-9
                and abs(x[0] - res.fun) <= 1e-9
            ), x

        ok, x = certified(None)
        if not ok:
            # HiGHS returns the row duals (our primal point) only to its
            # dual feasibility tolerance, 1e-7, so a correct optimum can
            # miss the 1e-9 check; one tighter solve settles it.  Only on
            # failure: a tight tolerance on every solve costs 8-17%.
            ok, x = certified({"dual_feasibility_tolerance": 1e-10})
        if not ok:
            raise failed(
                "the point recovered from the row duals is not "
                "primal-feasible at the optimum"
            )
        lam_opt = float(x[0])
        x_total = float(x[1 : 1 + num_pairs].sum())
        served = float(lam_opt * lp.pair_w.sum())
        min_frac = x_total / served if served > 0 else 1.0
        return ModelResult(lam_opt, min_frac, "optimal", num_pairs), x

    # ------------------------------------------------------------------
    def _labels(
        self,
        struct: _PatternStruct,
        mode: str,
        ties: np.ndarray,
        incl: np.ndarray,
        ch_vals: np.ndarray,
        mono: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        vals: np.ndarray,
        num_vars: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Weight-independent ``(entry labels, column colours)`` of an
        assembled LP, entries in :meth:`_lp`'s order.

        ``ties[c]`` numbers the distinct weights of the included classes
        (-1: class ``c`` is masked out).  Every entry's value is a
        function of its label, of the weights and of its column's
        colour: a pattern-only value labels itself; a uniform-mode VLB
        entry ``w_c * val / (counts_k . w)`` is labelled ``(ties[c],
        val)`` and its column coloured by the pair's counts summed per
        tie; a monotonicity entry ``+-1 / (w_c * counts[k, c])`` is
        labelled ``(sign, ties[c], counts[k, c])``.  So a partition
        refined from these is equitable for every weight vector with
        these ties, where one refined from the values could hold for one
        vector only.
        """
        num_pairs = struct.num_pairs
        kind = np.zeros(len(vals), np.int64)  # 0: value is pattern-only
        tie = np.full(len(vals), -1, np.int64)
        value = vals.copy()
        col_colour = np.ones(num_vars, np.int64)
        col_colour[0] = 0  # lambda: the cost and the bound are its own
        if mode == "uniform":
            vlb = np.flatnonzero(~struct.is_min[incl])
            kind[vlb] = 1
            tie[vlb] = ties[struct.cls[incl][vlb]]
            value[vlb] = struct.val[incl][vlb]
            # counts_k . w, the divisor, is a function of these
            per_tie = struct.counts[:, ties >= 0] @ (
                ties[ties >= 0, None] == np.arange(ties.max() + 1)
            )
            has_vlb = per_tie.any(axis=1)
            if has_vlb.any():
                col_colour[1 + num_pairs :] = 2 + quotient.classes(
                    list(per_tie[has_vlb].T)
                )
        if mono is not None:
            k, c_long, c_short = mono
            start = len(ch_vals) + len(struct.ie_vals)
            at = slice(start, start + 2 * len(k))
            cls = np.stack([c_long, c_short], axis=1).ravel()
            kind[at] = np.tile([2, 3], len(k))
            tie[at] = ties[cls]
            value[at] = struct.counts[np.repeat(k, 2), cls]
        return quotient.classes([kind, tie, value]), col_colour

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
        mono: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> _Assembly:
        """One variable per (pair, included leg-split class); ``mono``
        the monotonicity pairs, ``None`` when there are no such rows."""
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
        if mono is not None:
            # y_long / N_long - y_short / N_short <= 0
            k, c_long, c_short = mono
            class_size = w_eff[None, :] * struct.counts  # (K, C)
            mono_cols = np.stack(
                [var_of[k, c_long], var_of[k, c_short]], axis=1
            ).ravel()
            mono_vals = np.stack(
                [1.0 / class_size[k, c_long], -1.0 / class_size[k, c_short]],
                axis=1,
            ).ravel()
        return cols, vals, num_vars, nvars_pair, mono_cols, mono_vals
