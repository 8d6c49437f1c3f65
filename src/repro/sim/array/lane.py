"""Routing decisions as kernel calls: the Python side of ``RouteCtx``.

:class:`RouteLane` binds one run's routing decisions to the two routing
entry points of ``kernel.c``.  It owns what those calls read and write
besides the network's own arrays -- pointers into the topology's
flattened tables (:class:`~repro.routing.table.MinImage`,
:class:`~repro.routing.table.VlbImage`), the policy's membership program,
the run's candidate store, the word buffer -- and answers the kernel's
requests: a call that cannot complete a decision returns its index and a
status, the lane provides what was missing (more words, pool or arena
space, a pair's enumeration, the reference's ``ValueError`` for a VC
ladder that does not exist) and re-enters at that index.

Random words follow :class:`~repro.sim.draws.WordSource`'s protocol,
once per call: snapshot, bulk draw, and on return restore and re-draw
exactly what the decisions consumed, so the generator ends where the
per-packet procedure's scalar draws would have left it.

:class:`~repro.sim.routing.RoutingAlgorithm` builds a lane when its
strategy and policy compile (``RoutingAlgorithm.compile``); the
per-packet procedure there stays the reference this is tested against.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.routing.pathset import PathPolicy, PolicyProgram
from repro.routing.table import MinImage, RouteTable
from repro.sim.array import native
from repro.sim.array.network import ArrayNetwork
from repro.sim.draws import WordSource

__all__ = ["RouteLane"]

_INITIAL_POOL = 1 << 14  # int32 entries
_RESERVOIR = 3 * 256  # what one sparse-policy reservoir may need

_EMPTY = {
    dtype: np.zeros(1, dtype) for dtype in (np.int32, np.int64, np.uint32)
}

# (pool id, spliced channel row, head VC, VLB shape, VLB hops) of one
# packet PAR re-routes
Revision = Tuple[int, Tuple[int, ...], int, str, int]


class RouteLane:
    """One run's routing decisions, made by ``repro_route_batch`` /
    ``repro_revise_batch`` over ``network``'s arrays."""

    def __init__(
        self,
        network: ArrayNetwork,
        table: RouteTable,
        image: MinImage,
        policy: PathPolicy,
        program: PolicyProgram,
        kind: int,
        rng: np.random.Generator,
    ) -> None:
        self.network = network
        self.table = table
        self.image = image
        self.policy = policy
        self.rng = rng
        self.words_drawn = 0
        params = network.params
        rows = table.vlb_image()
        first, descriptors = (
            program.lists
            if program.lists is not None
            else (_EMPTY[np.int64], _EMPTY[np.int32])
        )
        nsw = table.nsw
        # everything the context points at, kept alive here
        self._arrays: Dict[str, np.ndarray] = {
            "sw_of": rows.node_switch,
            "grp_of": rows.switch_group,
            "mi_k": image.k,
            "mi_first": image.first,
            "mi_hops": image.hops,
            "mi_vcs0": image.vcs0,
            "mi_rel": image.rel,
            "mi_chan": image.chan,
            "mi_shape": image.shape,
            "shape_local": image.shape_local,
            "combo_off": image.combo_off,
            "combo_vc": image.combo_vc,
            "vr_first": rows.first,
            "vr_n": rows.n,
            "vr_group": rows.group,
            "vr_in": rows.links_in,
            "vr_out": rows.links_out,
            "grp_sw": rows.switches,
            "ops": np.array(program.ops, np.int64).reshape(-1, 4),
            "keys": np.array(program.keys, np.int64),
            "mask": np.frombuffer(bytes(program.mask), np.uint8),
            "ex_first": first,
            "ex_desc": descriptors,
            "pair": np.zeros((nsw * nsw, native.PS_STRIDE), np.int32),
            "pool": np.zeros(_INITIAL_POOL, np.int32),
        }
        self.ctx = ctx = native.CRouteCtx()
        for name, array in self._arrays.items():
            assert array.flags.c_contiguous, name
            setattr(ctx, name, array.ctypes.data)
        ctx.nsw = nsw
        ctx.ngroups = table.g
        ctx.a = network.topo.a
        ctx.nshapes = len(image.shapes)
        ctx.nops = len(program.ops)
        ctx.by_index = program.lists is not None
        ctx.key_bound = table.slot_bound
        ctx.kind = kind
        ctx.threshold = params.ugal_threshold
        ctx.extra_min = params.min_candidates - 1
        ctx.extra_vlb = params.vlb_candidates - 1
        ctx.cache_cap = params.vlb_cache_per_pair
        ctx.credit_cap = params.buffer_size * network.num_vcs
        # the whole MinImage, interned once: MIN candidates are arena rows
        ctx.image_base = network.intern_route(image.chan, image.vc)
        ctx.pool_cap = _INITIAL_POOL
        self._ctx_ref = ctypes.byref(ctx)
        self._route = network._kernel.repro_route_batch
        self._revise = network._kernel.repro_revise_batch
        # picks one decision can make, and the longest route one can add
        self._picks = 1 + max(0, params.vlb_candidates - 1)
        self._max_hops = 2 * int(image.hops.max(initial=0))
        # words per decision, for sizing the bulk draw: starts at a guess
        # (none where no pair has a choice to make), then follows the run
        self._rate = 12.0 if kind else float(image.k.max(initial=0) > 1)
        topo = network.topo
        self._records = np.zeros((topo.num_nodes, 8), np.int32)
        # at most one entry per channel in a delivery bucket
        self._revise_rows = np.zeros((len(network._S.ch_kind), 4), np.int32)

    # ------------------------------------------------------------------
    # The two calls
    # ------------------------------------------------------------------
    def route(
        self, cycle: int, srcs: np.ndarray, dests: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Decide one cycle's packets, in order: their ``SE_*`` records
        (a reused buffer: consume before the next call) and how many
        chose VLB."""
        count = srcs.size
        records = self._records[:count]
        srcs = np.ascontiguousarray(srcs, np.int64)
        dests = np.ascontiguousarray(dests, np.int64)
        state = self.network._cstate_ref
        before = self.ctx.cnt[native.RC_VLB]
        self._drive(
            count,
            count,
            lambda start: self._route(
                state,
                self._ctx_ref,
                start,
                count,
                srcs.ctypes.data,
                dests.ctypes.data,
                cycle,
                records.ctypes.data,
            ),
        )
        return records, self.ctx.cnt[native.RC_VLB] - before

    def revise(self, bucket: int) -> List[Revision]:
        """PAR's re-decisions for delivery bucket ``bucket`` (its credit
        returns applied first); one entry per packet that re-routes."""
        S = self.network._S
        state = self.network._cstate_ref
        out = self._revise_rows
        self.ctx.nout = 0
        self._drive(
            int(S.dw_n[bucket]),
            int(S.rev_n[bucket]),
            lambda start: self._revise(
                state, self._ctx_ref, bucket, start, out.ctypes.data
            ),
        )
        shapes = self.image.shapes
        arena = S.arena_chan
        revisions = []
        for pid, off, hops, combo in out[: self.ctx.nout].tolist():
            head, tail = divmod(combo, len(shapes))
            taken = int(arena[S.p_route_off[pid]])
            revisions.append(
                (
                    pid,
                    (taken, *arena[off : off + hops].tolist()),
                    int(S.p_vc0[pid]),
                    shapes[head] + shapes[tail],
                    hops,
                )
            )
        return revisions

    def _drive(
        self, end: int, decisions: int, call: Callable[[int], int]
    ) -> None:
        """Run ``call(start)`` to ``end`` over a fresh word buffer,
        providing whatever an incomplete call reports missing."""
        network = self.network
        ctx = self.ctx
        network._commit_routes()  # the kernel appends at the arena's end
        self._reserve(decisions * self._picks)
        source = WordSource(self.rng)
        size = int(2 * self._rate * decisions) + 32 if self._rate else 0
        words = source.take(size) if size else _EMPTY[np.uint32]
        spent = 0  # words consumed from buffers already replaced
        ctx.words = words.ctypes.data
        ctx.nwords = size
        ctx.wpos = 0
        ctx.arena_len = network._arena_len
        try:
            start = 0
            while True:
                start = call(start)
                network._arena_len = ctx.arena_len
                if start == end:
                    break
                status = ctx.status
                if status == native.RS_WORDS:
                    spent += ctx.wpos
                    words = np.concatenate(
                        [words[ctx.wpos :], source.take(max(256, 2 * size))]
                    )
                    size = len(words)
                    ctx.words = words.ctypes.data
                    ctx.nwords = size
                    ctx.wpos = 0
                elif status == native.RS_POOL:
                    self._grow_pool(2 * ctx.pool_cap)
                elif status == native.RS_ARENA:
                    network._grow_arena(2 * network._arena_cap)
                    ctx.arena_cap = network._arena_cap
                elif status == native.RS_ENUM:
                    self._enumerate(ctx.fail_a)
                else:
                    self._raise_ladder(ctx.fail_a, bool(ctx.fail_b))
        finally:
            consumed = spent + ctx.wpos
            source.close(consumed)
        self.words_drawn += consumed
        if decisions:
            self._rate = max(consumed / decisions, 0.9 * self._rate)

    # ------------------------------------------------------------------
    # What the kernel may ask for
    # ------------------------------------------------------------------
    def _reserve(self, picks: int) -> None:
        """Room for the common case, so calls rarely come back early: a
        route per pick in the arena, a first candidate block per pick
        (and one reservoir) in the pool."""
        network = self.network
        ctx = self.ctx
        need = network._arena_len + picks * self._max_hops
        if need > network._arena_cap:
            network._grow_arena(need)
        ctx.arena_cap = network._arena_cap
        need = ctx.pool_len + 32 * picks + _RESERVOIR
        if need > ctx.pool_cap:
            self._grow_pool(need)

    def _grow_pool(self, need: int) -> None:
        ctx = self.ctx
        capacity = ctx.pool_cap
        while capacity < need:
            capacity *= 2
        pool = np.zeros(capacity, np.int32)
        pool[: ctx.pool_len] = self._arrays["pool"][: ctx.pool_len]
        self._arrays["pool"] = pool
        ctx.pool = pool.ctypes.data
        ctx.pool_cap = capacity

    def _enumerate(self, pair: int) -> None:
        """Hand the kernel ``iter_descriptors`` of a pair whose policy
        set rejection sampling could not find (rng-free; the kernel
        reservoir-samples it at the word the reference would)."""
        src, dst = divmod(pair, self.table.nsw)
        flat = [
            int(x)
            for desc in self.policy.iter_descriptors(
                self.network.topo, src, dst
            )
            for x in desc
        ]
        ctx = self.ctx
        if ctx.pool_len + len(flat) + _RESERVOIR > ctx.pool_cap:
            self._grow_pool(ctx.pool_len + len(flat) + _RESERVOIR)
        offset = ctx.pool_len
        self._arrays["pool"][offset : offset + len(flat)] = flat
        ctx.pool_len = offset + len(flat)
        row = self._arrays["pair"][pair]
        row[native.PS_EOFF] = offset
        row[native.PS_ELEN] = len(flat) // 3
        row[native.PS_FLAGS] |= native.PF_ENUM

    def _raise_ladder(self, combo: int, revised: bool) -> None:
        """Too few VCs for a two-leg shape: raise what the per-packet
        procedure raises when it builds that candidate."""
        shapes = self.image.shapes
        head, tail = divmod(combo, len(shapes))
        network = self.network
        self.table.ladders(
            network.params.vc_scheme,
            network.num_vcs,
            revised=revised,
            hop_offset=int(revised),
        )[shapes[head] + shapes[tail]]
        raise RuntimeError(  # pragma: no cover - tables out of sync
            f"routing kernel found no VC ladder for shape pair {combo}"
        )

    def contains(self, descriptors: np.ndarray) -> np.ndarray:
        """The compiled membership test, asked directly: one bool per
        ``(src, dst, mid, slot1, slot2)`` row (each must name a path).
        What a new policy's program is checked against ``contains``
        with."""
        rows = np.ascontiguousarray(descriptors, np.int32).reshape(-1, 5)
        out = np.zeros(len(rows), np.uint8)
        self.network._kernel.repro_contains_batch(
            self._ctx_ref, len(rows), rows.ctypes.data, out.ctypes.data
        )
        return out.astype(bool)

    def counts(self) -> Dict[str, int]:
        """Decision counters, by metric name."""
        cnt = self.ctx.cnt
        return {
            "routing.sample_attempts": cnt[native.RC_ATTEMPTS],
            "routing.sample_accepts": cnt[native.RC_ACCEPTS],
            "routing.cache_reuses": cnt[native.RC_REUSES],
            "routing.fallback_picks": cnt[native.RC_FALLBACK],
            "routing.words_drawn": self.words_drawn,
            "routing.revisions_considered": cnt[native.RC_CONSIDERED],
        }
