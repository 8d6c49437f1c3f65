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
  pair are expanded from ``vlb_image()``, counted per (class, leg slot)
  and spread onto channels with one weighted ``bincount`` -- one
  builder on every topology, no path is ever materialized.  A policy
  with no class-weight translation (``OrderedVlbPolicy``) gets *policy
  blocks* instead: the same statistics over exactly the candidates the
  policy admits (its compiled membership program, or its own
  ``iter_descriptors`` when it has none), keyed by ``(policy, src,
  dst)``, solved with all-ones class weights.
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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.model.lp_model import ModelResult, weights_for_policy
from repro.routing.pathset import PathPolicy, policy_program, program_mask
from repro.routing.table import route_table
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


def _spans(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``start[i] .. start[i] + count[i] - 1`` for every ``i``, concatenated."""
    offset = np.cumsum(count) - count
    return np.repeat(start - offset, count) + np.arange(count.sum())


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
    ``policy`` admits -- its compiled membership program
    (:func:`~repro.routing.pathset.program_mask`, the test the routing
    kernel and the verifier evaluate), or membership in its own
    ``iter_descriptors`` when it only exists as Python.
    """

    def __init__(self, topo: Dragonfly) -> None:
        self.topo = topo
        self.table = route_table(topo)
        self.num_channels = len(self.table.channel_keys)
        self.legs = _leg_values(topo)
        self._blocks: Dict[Tuple, PairBlock] = {}

    def get(
        self, src: int, dst: int, policy: Optional[PathPolicy] = None
    ) -> PairBlock:
        key = (src, dst) if policy is None else (policy, src, dst)
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = self._build(src, dst, policy)
        return block

    def __len__(self) -> int:
        return len(self._blocks)

    def _build(
        self, src: int, dst: int, policy: Optional[PathPolicy]
    ) -> PairBlock:
        table = self.table
        slots = table.min_slots()
        image = table.vlb_image()
        n, nchan, legs = table.nsw, self.num_channels, self.legs

        # MIN: the pair's slots in link-slot order, each packet split
        # evenly; a channel's share accumulates one 1/k at a time, in
        # first-touch order, like the reference's dict
        k = int(slots.k[src * n + dst])
        first = slots.first[src * n + dst] + np.arange(k)
        chans = slots.chan[_spans(slots.rel[first], slots.hops[first])]
        touched, at, uses = np.unique(
            chans, return_index=True, return_counts=True
        )
        order = np.argsort(at)
        share = np.cumsum(np.full(int(uses.max(initial=0)), 1.0 / max(k, 1)))

        # VLB candidates: through every intermediate switch, each leg
        # row (one MIN slot) of the first leg times each of the second;
        # rows number the first legs of all mids, then the second legs
        pair = image.switch_group[src] * table.g + image.switch_group[dst]
        groups = image.group[image.first[pair] : image.first[pair] + image.n[pair]]
        mids = image.switches[groups].ravel().astype(np.int64)
        k1 = slots.k[src * n + mids].astype(np.int64)
        k2 = slots.k[mids * n + dst].astype(np.int64)
        rows1 = int(k1.sum())
        row_slot = np.concatenate(
            [
                _spans(slots.first[src * n + mids], k1),
                _spans(slots.first[mids * n + dst], k2),
            ]
        )
        row_mid = np.repeat(np.arange(len(mids)), k1)  # of the first legs
        reps = k2[row_mid]
        row1 = np.repeat(np.arange(rows1), reps)
        row2 = rows1 + _spans((np.cumsum(k2) - k2)[row_mid], reps)
        if policy is not None:
            mid = mids[row_mid[row1]]
            slot1 = row_slot[row1] - slots.first[src * n + mid]
            slot2 = row_slot[row2] - slots.first[mid * n + dst]
            program = policy_program(policy, table)
            if program is not None:
                ends = np.full(len(mid), src, np.int64)
                keep = program_mask(
                    program, table, ends, np.full_like(ends, dst), mid, slot1, slot2
                )
            else:
                listed = set(policy.iter_descriptors(self.topo, src, dst))
                keep = np.fromiter(
                    (
                        desc in listed
                        for desc in zip(
                            mid.tolist(), slot1.tolist(), slot2.tolist()
                        )
                    ),
                    bool,
                    len(mid),
                )
            row1, row2 = row1[keep], row2[keep]

        row_hops = slots.hops[row_slot].astype(np.int64)
        cls = (row_hops[row1] - 1) * legs + row_hops[row2] - 1
        # candidates per (class, leg row) ...
        rows = len(row_slot)
        base = cls * rows
        per_row = np.bincount(
            np.concatenate([base + row1, base + row2]),
            minlength=legs * legs * rows,
        )
        entry = np.flatnonzero(per_row)
        leg = row_slot[entry % rows]
        hops = slots.hops[leg]
        # ... spread onto the legs' channels
        spread = np.repeat(np.arange(len(entry)), hops)
        usage = np.bincount(
            (entry // rows)[spread] * nchan
            + slots.chan[_spans(slots.rel[leg], hops)],
            weights=per_row[entry][spread].astype(np.float64),
            minlength=legs * legs * nchan,
        )
        used = np.flatnonzero(usage)
        return PairBlock(
            src=src,
            dst=dst,
            min_count=k,
            min_idx=touched[order].astype(np.int64),
            min_val=share[uses[order] - 1],
            counts=np.bincount(cls, minlength=legs * legs).astype(np.float64),
            cls_id=(used // nchan).astype(np.int8),
            cls_idx=used % nchan,
            # (a bincount of no entries is integer even with weights)
            cls_val=usage[used].astype(np.float64),
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
