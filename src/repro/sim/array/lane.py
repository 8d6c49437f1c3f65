"""Routing decisions and the cycle loop as kernel calls: the Python side
of ``RouteCtx``.

:class:`RouteLane` binds one run to the routing half of ``kernel.c``.  It
owns what those calls read and write besides the network's own arrays --
pointers into the topology's flattened tables
(:class:`~repro.routing.table.MinImage`,
:class:`~repro.routing.table.VlbImage`), the policy's membership program,
the run's candidate store, the traffic pattern's destination program --
and answers the kernel's requests: a call that cannot go on returns a
status, the lane provides what was missing (pool, arena, ring or packet
space, a drained ejection buffer, a pair's enumeration, a cycle's
destinations, the reference's ``ValueError`` for a VC ladder that does
not exist) and re-enters where the call stopped.

The kernel draws from the run's own generator, through the ``bitgen_t``
interface NumPy publishes as ``rng.bit_generator.ctypes``: the calls are
the ones ``Generator.random`` / ``Generator.integers`` make, on the same
state, so the draws of C and of Python (``sample_destinations`` of a
pattern without a program) interleave and the generator ends where the
per-packet procedure's scalar draws would have left it.

Three entries, one protocol: :meth:`RouteLane.run` advances whole windows
(``repro_run``: injection, destinations, decisions, queueing, PAR
revisions and the step of every cycle); :meth:`route` and :meth:`revise`
are the one-cycle forms of its two routing phases.
:class:`~repro.sim.routing.RoutingAlgorithm` builds a lane when its
strategy and policy compile (``RoutingAlgorithm.compile``); the
per-packet procedure there stays the reference this is tested against.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Dict, Optional

import numpy as np

from repro.routing.pathset import PathPolicy, PolicyProgram
from repro.routing.table import MinImage, RouteTable
from repro.sim.array import native
from repro.sim.array.network import ArrayNetwork
from repro.traffic.patterns import NO_TRAFFIC, DestinationProgram

__all__ = ["RouteLane"]

_INITIAL_POOL = 1 << 14  # int32 entries
_INITIAL_REPLAY = 1 << 10  # words one decision may draw before growth
_RESERVOIR = 3 * 256  # what one sparse-policy reservoir may need

_EMPTY = {
    dtype: np.zeros(1, dtype)
    for dtype in (np.int32, np.int64, np.uint8)
}

# why a kernel call came back, by status: the reason names of the
# ``engine.loop.returns.*`` counters
REASONS = {
    native.RS_OK: "segment",
    native.RS_DRAIN: "drain",
    native.RS_PACKETS: "pool",
    native.RS_POOL: "pool",
    native.RS_ARENA: "arena",
    native.RS_SOURCE: "ring",
    native.RS_REPLAY: "ring",
    native.RS_ENUM: "enum",
    native.RS_DESTS: "destinations",
}


class RouteLane:
    """One run's routing decisions and cycle loop, made by ``kernel.c``
    over ``network``'s arrays with ``rng``'s own bit generator."""

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
        # how often the kernel was entered, and what it came back for
        self.kernel_calls = 0
        self.returns: Dict[str, int] = dict.fromkeys(REASONS.values(), 0)
        self._sample: Optional[Callable[[np.ndarray], np.ndarray]] = None
        params = network.params
        rows = table.vlb_image()
        first, descriptors = (
            program.lists
            if program.lists is not None
            else (_EMPTY[np.int64], _EMPTY[np.int32])
        )
        nsw = table.nsw
        nodes = network.topo.num_nodes
        # PAR's revised routes hang off one chain per (about) switch pair
        chains = 1 << (nsw * nsw).bit_length() if kind == native.RK_PAR else 1
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
            "keys": program.key_array,
            "mask": np.frombuffer(bytes(program.mask), np.uint8),
            "ex_first": first,
            "ex_desc": descriptors,
            "pair": np.zeros((nsw * nsw, native.PS_STRIDE), np.int32),
            "pool": np.zeros(_INITIAL_POOL, np.int32),
            "rv_head": np.full(chains, -1, np.int32),
            "replay": np.zeros(_INITIAL_REPLAY, np.uint32),
            # one cycle of the loop: who sends, where to, as what record
            "srcs": np.zeros(nodes, np.int64),
            "dsts": np.zeros(nodes, np.int64),
            "records": np.zeros((nodes, 8), np.int32),
        }
        self.ctx = ctx = native.CRouteCtx()
        for name, array in self._arrays.items():
            assert array.flags.c_contiguous, name
            setattr(ctx, name, array.ctypes.data)
        # the interface object owns the bitgen_t the address points at
        self._bitgen = rng.bit_generator.ctypes
        ctx.gen = self._bitgen.bit_generator.value
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
        ctx.rv_mask = chains - 1
        ctx.replay_cap = _INITIAL_REPLAY
        ctx.ur_prob = -1.0
        self._ctx_ref = ctypes.byref(ctx)
        kernel = network._kernel
        self._route = kernel.repro_route_batch
        self._revise = kernel.repro_revise_batch
        self._run = kernel.repro_run

    # ------------------------------------------------------------------
    # The three calls
    # ------------------------------------------------------------------
    def traffic(
        self,
        load: float,
        max_source_queue: int,
        program: Optional[DestinationProgram],
        sample: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        """What :meth:`run` injects: each node with probability ``load``
        per cycle, to ``program``'s destinations -- or, without one, to
        ``sample(srcs)``, asked every cycle -- unless its source queue
        already holds ``max_source_queue`` packets."""
        ctx = self.ctx
        ctx.load = load
        ctx.max_queue = max_source_queue
        ctx.has_program = program is not None
        self._sample = sample
        if program is None:
            return
        nodes = len(self._arrays["srcs"])
        if program.fixed is not None:
            fixed = self._destinations(program.fixed, nodes)
            self._arrays["dest_map"] = fixed
            ctx.dest_map = fixed.ctypes.data
        if program.ur_mask is not None:
            mask = np.ascontiguousarray(program.ur_mask, np.uint8)
            if mask.shape != (nodes,):
                raise ValueError("ur_mask must have one entry per node")
            self._arrays["ur_mask"] = mask
            ctx.ur_mask = mask.ctypes.data
        if program.ur_probability is not None:
            ctx.ur_prob = program.ur_probability

    def _destinations(self, dests, count: int) -> np.ndarray:
        """``dests`` as the kernel reads them: ``count`` node ids or
        ``NO_TRAFFIC`` (what a pattern hands over is checked here,
        because the kernel indexes with it)."""
        dests = np.ascontiguousarray(dests, np.int64)
        nodes = len(self._arrays["srcs"])
        if dests.shape != (count,) or (
            count and not NO_TRAFFIC <= dests.min() <= dests.max() < nodes
        ):
            raise ValueError(
                f"a pattern must give {count} destinations, each a node "
                f"id below {nodes} or NO_TRAFFIC"
            )
        return dests

    def run(self, until: int) -> None:
        """Advance the network to cycle ``until`` (needs :meth:`traffic`):
        every cycle's injection, decisions, queueing, revisions and step
        in the kernel."""
        network = self.network
        if until <= network.cycle:
            return
        self.ctx.cycle = network.cycle
        state = network._cstate_ref
        self._drive(lambda: self._run(state, self._ctx_ref, until))
        network.cycle = until

    def route(
        self, cycle: int, srcs: np.ndarray, dests: np.ndarray
    ) -> np.ndarray:
        """Decide one cycle's packets, in order: their ``SE_*`` records
        (a reused buffer: consume before the next call)."""
        count = srcs.size
        records = self._arrays["records"][:count]
        srcs = np.ascontiguousarray(srcs, np.int64)
        dests = np.ascontiguousarray(dests, np.int64)
        state = self.network._cstate_ref
        self._drive(
            lambda: self._route(
                state,
                self._ctx_ref,
                count,
                srcs.ctypes.data,
                dests.ctypes.data,
                cycle,
                records.ctypes.data,
            )
        )
        return records

    def revise(self, bucket: int) -> None:
        """PAR's re-decisions for delivery bucket ``bucket`` (its credit
        returns applied first); the packets that re-route are moved onto
        their spliced routes in the arrays."""
        state = self.network._cstate_ref
        self._drive(lambda: self._revise(state, self._ctx_ref, bucket))

    def _drive(self, call: Callable[[], int]) -> None:
        """Enter the kernel, with the same arguments, until it reports
        ``RS_OK``, providing whatever an incomplete call came back for
        (the context remembers where to resume)."""
        network = self.network
        ctx = self.ctx
        returns = self.returns
        network._commit_routes()  # the kernel appends at the arena's end
        ctx.arena_len = network._arena_len
        ctx.arena_cap = network._arena_cap
        while True:
            status = call()
            self.kernel_calls += 1
            network._arena_len = ctx.arena_len
            if status < 0:
                raise RuntimeError(
                    f"array kernel invariant violation (code {status}) "
                    f"at cycle {ctx.cycle}"
                )
            if status == native.RS_LADDER:
                self._raise_ladder(ctx.fail_a, bool(ctx.fail_b))
            returns[REASONS[status]] += 1
            if status == native.RS_OK:
                return
            if status == native.RS_DRAIN:
                network._flush_ejections()
            elif status == native.RS_DESTS:
                srcs = self._arrays["srcs"][: ctx.nsrc].copy()
                self._arrays["dsts"][: ctx.nsrc] = self._destinations(
                    self._sample(srcs), ctx.nsrc
                )
            elif status == native.RS_PACKETS:
                network._grow_pool()
            elif status == native.RS_SOURCE:
                network._grow_src()
            elif status == native.RS_POOL:
                self._grow("pool", 2 * ctx.pool_cap, ctx.pool_len)
            elif status == native.RS_REPLAY:
                self._grow("replay", 2 * ctx.replay_cap, ctx.rlen)
            elif status == native.RS_ARENA:
                network._grow_arena(2 * network._arena_cap)
                ctx.arena_cap = network._arena_cap
            else:
                self._enumerate(ctx.fail_a)

    # ------------------------------------------------------------------
    # What the kernel may ask for
    # ------------------------------------------------------------------
    def _grow(self, name: str, need: int, used: int) -> None:
        """Move buffer ``name`` (``pool`` / ``replay``) into one of at
        least ``need`` entries, keeping its first ``used``."""
        ctx = self.ctx
        capacity = getattr(ctx, name + "_cap")
        while capacity < need:
            capacity *= 2
        old = self._arrays[name]
        grown = np.zeros(capacity, old.dtype)
        grown[:used] = old[:used]
        self._arrays[name] = grown
        setattr(ctx, name, grown.ctypes.data)
        setattr(ctx, name + "_cap", capacity)

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
        offset = ctx.pool_len
        need = offset + len(flat) + _RESERVOIR
        if need > ctx.pool_cap:
            self._grow("pool", need, offset)
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

    def destinations(self, srcs: np.ndarray) -> np.ndarray:
        """The destination program given to :meth:`traffic`, asked
        directly: what the loop draws for source nodes ``srcs``.  What a
        new pattern's program is checked against
        ``sample_destinations`` with."""
        count = len(srcs)
        self._arrays["srcs"][:count] = srcs
        self.ctx.nsrc = count
        self.network._kernel.repro_destinations(
            self._ctx_ref, len(self._arrays["srcs"])
        )
        return self._arrays["dsts"][:count].copy()

    def counts(self) -> Dict[str, int]:
        """What the decisions and the loop did, by metric name."""
        cnt = self.ctx.cnt
        counts = {
            "routing.sample_attempts": cnt[native.RC_ATTEMPTS],
            "routing.sample_accepts": cnt[native.RC_ACCEPTS],
            "routing.cache_reuses": cnt[native.RC_REUSES],
            "routing.fallback_picks": cnt[native.RC_FALLBACK],
            "routing.words_drawn": cnt[native.RC_WORDS],
            "routing.revisions_considered": cnt[native.RC_CONSIDERED],
            "engine.packets_injected": cnt[native.RC_INJECTED],
            "engine.inject_stalls": cnt[native.RC_STALLED],
            "engine.loop.kernel_calls": self.kernel_calls,
        }
        for reason, count in self.returns.items():
            counts[f"engine.loop.returns.{reason}"] = count
        return counts
