"""ArrayNetwork: struct-of-arrays batched cycle engine.

The engine every run gets (``repro.sim.build_network``), behind the
:class:`repro.sim.network.Network` interface it inherits.  All
flit/credit/VC state lives in numpy struct-of-arrays -- per-channel
credit tables, output-queue rings, router input-buffer rings, sorted
active-slot tables, and fixed-capacity timing wheels -- and the
per-cycle phases are advanced for the whole network per call:

* the hot path is the native kernel (``kernel.c``, built on demand by
  :mod:`repro.sim.array.native`), a bit-exact transliteration of the
  wheel engine's deliver -> crossbar -> transmit phases over the shared
  arrays, with batched timing-wheel pops, cache-packed per-packet
  records, and allocation-free inner loops;
* order-insensitive bulk work stays vectorized numpy on the Python side:
  ejection statistics are buffered in-kernel across many cycles and
  drained as array batches (``StatsCollector.record_ejection_batch``),
  and every observability read (utilization, flit totals, VC occupancy,
  backlog) is a vectorized reduction over the same arrays;
* the only order-sensitive randomness inside a step -- PAR's hop-1
  revision draws -- is handled *before* the cycle's step runs, in
  delivery-bucket order, which is exactly the wheel engine's call order:
  in the kernel for the whole bucket when the routing algorithm compiled
  (``on_arrival_batch``, see :mod:`repro.sim.array.lane`), by
  ``on_arrival`` per packet otherwise (arbitration itself is kept
  scalar-exact: exact RNG-order parity is infeasible inside a blindly
  vectorized arbitration step);
* :meth:`ArrayNetwork.step` / :meth:`ArrayNetwork.inject` are the
  one-cycle forms (the per-packet lane, tests, the benchmark's mirror
  driver); a compiled run advances whole windows per kernel call
  (``repro_run``, driven by :meth:`repro.sim.array.lane.RouteLane.run`),
  which this module serves only when the kernel comes back for a buffer
  to grow or the ejection buffer to drain;
* when no C compiler is available (gate ``REPRO_ARRAYNET_NATIVE``), the
  engine transparently falls back to the inherited scalar wheel path --
  slower, logged once, and the reference the kernel is held to.

Because ejections are buffered lazily, callers that drive ``step()``
directly must call :meth:`finalize` before reading final statistics
(``simulate`` does this); per-ejection hook order and cycle stamps are
preserved exactly, only the hook call *time* is deferred.

Results are bit-identical between the kernel and the wheel path across
seed x routing x load x network parameters (pinned, together with the
values themselves, by ``tests/test_routing_parity_matrix.py`` and
``tests/test_array_engine.py``), which is why the path taken is a fact
about the host and not part of a run's identity: both share cache
entries and spec fingerprints.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hugepages import zeros as _alloc
from repro.sim.network import Network, SimChannel
from repro.sim.packet import Packet
from repro.sim.array.native import (
    CNT_EJ,
    CNT_FREE,
    CNT_PC,
    CNT_PD,
    CNT_PT,
    COUNTERS_LEN,
    EW_CVC,
    EW_DST,
    EW_SPID,
    EW_SRC,
    EW_STRIDE,
    PK_STRIDE,
    CState,
    POINTER_FIELD_NAMES,
    SCALAR_FIELDS,
    load_kernel,
)

__all__ = ["ArrayChannel", "ArrayNetwork"]

# what Network._build_objects provides that code outside the wheel
# engine's own step path reads
_OBJECTS = frozenset(
    {"routers", "channels", "inject_channels", "eject_channels"}
)

_PTR_OF_DTYPE = {
    np.dtype(np.int32): ctypes.POINTER(ctypes.c_int32),
    np.dtype(np.int64): ctypes.POINTER(ctypes.c_int64),
}

_INITIAL_PACKET_CAP = 1024
_INITIAL_ARENA_CAP = 4096
_INITIAL_SRC_CAP = 32
# ejection-buffer entries (never fewer than two worst-case cycles' worth):
# hundreds of cycles between drains on the paper's topologies, and small
# enough that the kernel's appends stay in cache
_EJ_ENTRIES = 1 << 14


class ArrayChannel(SimChannel):
    """A SimChannel whose live state may reside in the SoA arrays.

    Construction is identical to :class:`SimChannel` (each channel's
    dense ``index`` is its row in the arrays); in native mode the
    network hands every routable channel the array bag so
    :meth:`load_metric` -- the UGAL congestion estimate of a single
    routing decision -- answers from the arrays the kernel updates.  (The
    bag, not the network: a back reference would tie every network into
    a reference cycle that only the cyclic collector frees.)
    In fallback mode the bag stays ``None`` and the inherited
    deque/credit state remains authoritative.
    """

    __slots__ = ("_soa",)

    def load_metric(self) -> int:
        soa = self._soa
        if soa is None:
            return SimChannel.load_metric(self)
        i = self.index
        return (
            int(soa.out_len[i])
            + self.credit_capacity
            - int(soa.cred_total[i])
        )


class _SoA:
    """Bag of the numpy arrays shared between Python and the kernel.

    Attribute names for the contiguous base arrays match ``struct State``
    in kernel.c field for field.  Convenience *views* into the packed
    bases keep the wheel engine's vocabulary on the Python side
    (``out_head``/``out_len``/``cred``/``cred_total`` and the int64
    ``busy_until``/``flits`` tail into ``outrow``, the
    ``p_*`` columns into ``pkt``, ...); only base arrays are handed to C.
    A few arrays are Python-only and never cross: ``p_src``,
    ``p_inject_cycle``, ``p_used_vlb``, ``is_global``.
    """


class ArrayNetwork(Network):
    """Struct-of-arrays engine behind the Network interface (native
    kernel, or the inherited reference path when ``backend`` says so).

    A native network steps, injects and reports from its arrays alone,
    so it does not build the inherited channel and router objects until
    something asks for them (the per-packet routing procedure, a test):
    ``channels`` / ``inject_channels`` / ``eject_channels`` / ``routers``
    appear on first access, as views of the same
    :class:`~repro.sim.network.ChannelLayout` rows.
    """

    channel_cls = ArrayChannel

    def __init__(self, topo, params, num_vcs: int) -> None:
        self._S: Optional[_SoA] = None
        self._kernel = load_kernel()
        # the SoA is built only in native mode (fallback keeps the
        # inherited wheel structures live, and needs them now)
        super().__init__(topo, params, num_vcs, objects=self._kernel is None)
        self._num_switch_channels = len(self.layout.keys)
        # routed packets handed to inject() since the last flush
        self._pending: List[Packet] = []
        if self._kernel is not None:
            self._build_soa()

    def __getattr__(self, name: str):
        # reached only for a name not set yet
        if name in _OBJECTS and "routers" not in self.__dict__:
            self._build_objects()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _build_objects(self) -> None:
        super()._build_objects()
        # array order is ``channel.index`` order; a node's injection
        # queue is not routable and keeps answering for itself
        soa = self._S
        for channel in self.inject_channels:
            channel._soa = None
        for channel in self.channels.values():
            channel._soa = soa
        for channel in self.eject_channels:
            channel._soa = soa

    # ------------------------------------------------------------------
    # SoA construction (native mode only)
    # ------------------------------------------------------------------
    def _build_soa(self) -> None:
        topo = self.topo
        params = self.params
        layout = self.layout
        nV = self.num_vcs
        nR = topo.num_switches
        radix = topo.radix
        nSr = radix * nV
        nNodes = topo.num_nodes
        nSw = self._num_switch_channels
        nC = len(layout.kind)
        ws = self._wheel_size
        psize = params.packet_size

        S = _SoA()
        self._S = S
        # --- static per-channel tables: the layout's columns, shared
        # with every network on it (the kernel only reads them) ---
        S.ch_latency = layout.latency
        S.ch_delay = layout.delay
        S.ch_dst_router = layout.dst_router
        S.ch_gslot = layout.gslot
        S.ch_kind = layout.kind
        S.is_global = layout.is_global
        # --- dynamic channel state.  The grant-time output side of a
        # channel (ring head/len + per-VC credits + credit total, then
        # an 8-byte-aligned int64 tail: output budget stamp/count,
        # busy_until, flits_sent) packs into one line-padded row, so the
        # crossbar's hottest random accesses per grant collapse into a
        # single cache line.  Output ports map 1:1 onto non-injection
        # channels (checked by channel_layout), so the per-port output
        # budget legally lives per channel.  Python keeps named strided
        # views into the rows (kernel.c OR_* columns) ---
        cred_stride = nV + 1
        or_bud = (2 + cred_stride + 1) & ~1  # even: int64-aligned tail
        outrow_stride = -(-(or_bud + 8) // 16) * 16
        S.outrow = _alloc((nC, outrow_stride), np.int32)
        S.out_head = S.outrow[:, 0]
        S.out_len = S.outrow[:, 1]
        S.cred = S.outrow[:, 2 : 2 + nV]
        S.cred_total = S.outrow[:, 2 + nV]
        S.cred[:] = params.buffer_size
        S.cred_total[:] = params.buffer_size * nV
        outrow64 = S.outrow.view(np.int64)  # [nC][outrow_stride // 2]
        outrow64[:, or_bud // 2] = -1  # budget stamp: no cycle yet
        S.busy_until = outrow64[:, or_bud // 2 + 2]
        S.flits = outrow64[:, or_bud // 2 + 3]
        out_cap = params.output_queue_size
        S.out_buf = _alloc((nC, out_cap, 2), np.int32)
        self._src_cap = _INITIAL_SRC_CAP
        # each ring slot is a packed queued-packet entry (kernel.c SE_*):
        # records materialize in the pool only at network entry
        S.src_buf = _alloc((nNodes, self._src_cap, 8), np.int32)
        S.src_meta = np.zeros((nNodes, 2), np.int32)
        S.src_head = S.src_meta[:, 0]
        S.src_len = S.src_meta[:, 1]
        # --- router state ---
        in_cap = max(1, params.buffer_size // psize)
        S.in_buf = _alloc((nR * nSr, in_cap), np.int32)
        # stride 8: head, len, cached head pid / out channel / next VC
        # (columns 2-4, kernel-owned; see kernel.c IM_* doc)
        S.in_meta = _alloc((nR * nSr, 8), np.int32)
        S.in_head = S.in_meta[:, 0]
        S.in_len = S.in_meta[:, 1]
        S.act_slots = np.zeros((nR, nSr), np.int32)
        S.act_len = np.zeros(nR, np.int32)
        S.act_list = np.zeros(nR, np.int32)
        S.act_pos = np.zeros(nR, np.int32)
        S.rr = np.zeros(nR, np.int32)
        S.in_bud = np.zeros((nR * radix, 2), np.int64)
        S.in_bud[:, 0] = -1  # stamp: no cycle yet
        S.rsnap = np.zeros(nR, np.int32)
        S.osnap = np.zeros(nSr, np.int32)
        # deferred second-head refill scratch (kernel crossbar pass)
        S.rf_q = np.zeros(nR * nSr, np.int32)
        S.rf_pos = np.zeros(nR * nSr, np.int32)
        S.rf_off = np.zeros(nR * nSr, np.int32)
        # --- timing wheels (capacity bounds proven in kernel.c header) ---
        dw_cap = nC
        cw_cap = nC * params.speedup
        tw_cap = nC
        S.dw_chan = _alloc((ws, dw_cap), np.int32)
        S.dw_pid = _alloc((ws, dw_cap), np.int32)
        S.dw_meta = _alloc((ws, dw_cap), np.int32)
        S.dw_n = np.zeros(ws, np.int32)
        S.rev_n = np.zeros(ws, np.int32)
        S.cw_chan = _alloc((ws, cw_cap), np.int32)
        S.cw_vc = _alloc((ws, cw_cap), np.int32)
        S.cw_n = np.zeros(ws, np.int32)
        S.tw_chan = _alloc((ws, tw_cap), np.int32)
        S.tw_n = np.zeros(ws, np.int32)
        # lazily drained ejection buffer: worst case nNodes per cycle;
        # drained whenever fewer than nNodes slots remain
        ej_cap = max(_EJ_ENTRIES, 2 * nNodes)
        self._ej_flush = ej_cap - nNodes
        S.ej_cycle = np.zeros(ej_cap, np.int32)
        S.ej_lat = np.zeros(ej_cap, np.int32)
        S.ej_hops = np.zeros(ej_cap, np.int32)
        S.ej_vlb = np.zeros(ej_cap, np.int32)
        S.ej_who = np.zeros((ej_cap, EW_STRIDE), np.int32)
        # --- packed per-packet record pool (one cache line per packet).
        # Sized by in-network occupancy, NOT by the source backlog or by
        # what waits in the ejection buffer: the kernel pops pool ids
        # from the free stack at injection-transmit and pushes them back
        # at ejection ---
        cap = _INITIAL_PACKET_CAP
        self._packet_cap = cap
        S.pkt = _alloc((cap, PK_STRIDE), np.int32)
        S.pmeta = _alloc((cap, 4), np.int32)
        S.free_stack = _alloc(cap, np.int32)
        # descending init so pids pop in ascending order
        S.free_stack[:] = np.arange(cap - 1, -1, -1, dtype=np.int32)
        self._refresh_pkt_views()
        # --- route arena ---
        self._arena_cap = _INITIAL_ARENA_CAP
        self._arena_len = 0
        S.arena_chan = np.zeros(self._arena_cap, np.int32)
        S.arena_vc = np.zeros(self._arena_cap, np.int32)
        # routes handed out by route_handle() since the last commit
        self._staged_chan: List[int] = []
        self._staged_vc: List[int] = []
        S.counters = np.zeros(COUNTERS_LEN, np.int64)
        S.counters[CNT_FREE] = cap

        self._next_spid = 1  # staging ids for revisable Packet objects
        self._live: Dict[int, Packet] = {}  # spid -> revisable Packet

        self._scalars = {
            "nR": nR,
            "radix": radix,
            "nV": nV,
            "nSr": nSr,
            "nC": nC,
            "inj_base": nSw,
            "ej_base": nSw + nNodes,
            "nNodes": nNodes,
            "ws": ws,
            "dw_cap": dw_cap,
            "cw_cap": cw_cap,
            "tw_cap": tw_cap,
            "out_cap": out_cap,
            "in_cap": in_cap,
            "src_cap": self._src_cap,
            "speedup": params.speedup,
            "psize": psize,
            "cred_stride": cred_stride,
            "ej_cap": ej_cap,
            "outrow_stride": outrow_stride,
        }
        self._inj_base = nSw
        self._ej_base = nSw + nNodes
        self._cstate = CState()
        self._sync_struct()
        self._step_native = self._kernel.repro_step_cycle
        self._enqueue = self._kernel.repro_enqueue
        self._cstate_ref = ctypes.byref(self._cstate)

    def _refresh_pkt_views(self) -> None:
        """Re-derive the column views after (re)allocating the pool."""
        S = self._S
        pkt = S.pkt
        S.p_hop = pkt[:, 0]
        S.p_path_hops = pkt[:, 1]
        S.p_current_vc = pkt[:, 2]
        S.p_vc0 = pkt[:, 3]
        S.p_dst = pkt[:, 4]
        S.p_revisable = pkt[:, 5]
        S.p_arrived = pkt[:, 6]
        S.p_route_off = pkt[:, 7]
        pm = S.pmeta
        S.pm_src = pm[:, 0]
        S.pm_icyc = pm[:, 1]
        S.pm_vlb = pm[:, 2]
        S.pm_spid = pm[:, 3]

    def _sync_struct(self, grown=POINTER_FIELD_NAMES) -> None:
        """Point the C struct at the current arrays (after growth: at
        the ``grown`` ones)."""
        st = self._cstate
        S = self._S
        for name in grown:
            arr = getattr(S, name)
            setattr(st, name, arr.ctypes.data_as(_PTR_OF_DTYPE[arr.dtype]))
        self._scalars["src_cap"] = self._src_cap
        for name in SCALAR_FIELDS:
            setattr(st, name, self._scalars[name])

    @property
    def backend(self) -> str:
        """Which step implementation is live: ``native`` or fallback."""
        return "native" if self._S is not None else "wheel-fallback"

    # ------------------------------------------------------------------
    # Growth (Python-side only; the kernel never allocates)
    # ------------------------------------------------------------------
    def _grow_pool(self) -> None:
        """Double the packet-record pool, stacking the new ids as free."""
        S = self._S
        old_cap = self._packet_cap
        new_cap = old_cap * 2
        for name, width in (("pkt", PK_STRIDE), ("pmeta", 4)):
            old = getattr(S, name)
            grown = _alloc((new_cap, width), np.int32)
            grown[:old_cap] = old
            setattr(S, name, grown)
        nfree = int(S.counters[CNT_FREE])
        stack = _alloc(new_cap, np.int32)
        stack[:nfree] = S.free_stack[:nfree]
        # new ids above the old stack, descending so they pop ascending
        stack[nfree : nfree + old_cap] = np.arange(
            new_cap - 1, old_cap - 1, -1, dtype=np.int32
        )
        S.free_stack = stack
        S.counters[CNT_FREE] = nfree + old_cap
        self._refresh_pkt_views()
        self._packet_cap = new_cap
        self._sync_struct(("pkt", "pmeta", "free_stack"))

    def _grow_arena(self, need: int) -> None:
        S = self._S
        new_cap = self._arena_cap
        while new_cap < need:
            new_cap *= 2
        for name in ("arena_chan", "arena_vc"):
            old = getattr(S, name)
            grown = _alloc(new_cap, old.dtype)
            grown[: self._arena_len] = old[: self._arena_len]
            setattr(S, name, grown)
        self._arena_cap = new_cap
        self._sync_struct(("arena_chan", "arena_vc"))

    def _grow_src(self) -> None:
        """Double source-queue ring capacity, unwrapping each ring."""
        S = self._S
        old_cap = self._src_cap
        new_cap = old_cap * 2
        grown = _alloc((S.src_buf.shape[0], new_cap, 8), np.int32)
        lens = S.src_len
        heads = S.src_head
        for node in np.nonzero(lens)[0].tolist():
            n = int(lens[node])
            idx = (int(heads[node]) + np.arange(n)) % old_cap
            grown[node, :n] = S.src_buf[node, idx]
        S.src_buf = grown
        S.src_head[:] = 0
        self._src_cap = new_cap
        self._sync_struct(("src_buf",))

    # ------------------------------------------------------------------
    # Injection (native) -- mirrors Network.inject over the arrays
    # ------------------------------------------------------------------
    def route_handle(self, chans, vcs) -> int:
        """The arena offset of a route, staged for the next commit.

        Routing registers every candidate once, when it builds it, so
        the arena holds each distinct candidate -- PAR-revised ones
        included -- once, however many packets take it.  Arena layout is
        bookkeeping only; results never depend on it.
        """
        if self._S is None:
            return 0
        off = self._arena_len + len(self._staged_chan)
        self._staged_chan += chans
        self._staged_vc += vcs
        return off

    def _commit_routes(self) -> None:
        """Write the staged routes into the arena (before the kernel or
        anything else reads it)."""
        if self._staged_chan:
            chans, vcs = self._staged_chan, self._staged_vc
            self._staged_chan, self._staged_vc = [], []
            self.intern_route(chans, vcs)

    def inject(self, packet: Packet) -> None:
        """Queue a routed packet at its node's source queue.

        Natively the packet only joins ``_pending``; the cycle's
        injections land through one :meth:`inject_batch` when
        :meth:`step` starts (or earlier, the moment anything reads
        source-queue state -- the clock does not move in between, so
        deferring is invisible).  Queue entries are packed value records
        (kernel.c ``SE_*``); no pool id is allocated until the kernel
        moves the packet into the network at injection-transmit, so deep
        source backlogs never inflate the hot record pool.  Revisable
        packets additionally park their Python object in ``_live`` under
        a staging id the kernel threads through to ``pmeta``.
        """
        if self._S is None:
            super().inject(packet)
            return
        self._pending.append(packet)

    def _flush_pending(self) -> None:
        """Move ``_pending`` into the source queues, in inject() order."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        # node + one SE_* record per packet, appended straight into a
        # typed buffer numpy can view without converting element-wise
        buf = array("i")
        add_row = buf.extend
        for packet in pending:
            hops = packet.path_hops
            vc0 = packet.vcs[0] if hops else 0
            spid = 0
            if packet.revisable:
                spid = self._next_spid
                self._next_spid = spid + 1
                self._live[spid] = packet
            add_row(
                (
                    packet.src_node,
                    hops,
                    vc0,
                    packet.dst_node,
                    packet.revisable,
                    packet.route_ref,
                    packet.inject_cycle,
                    spid,
                    packet.used_vlb,
                )
            )
        rows = np.frombuffer(buf, np.intc).reshape(len(pending), 9)
        self.inject_batch(rows[:, 0], rows[:, 1:])

    def intern_route(self, chan_indices, vcs) -> int:
        """Append an image of routes given by raw channel indices to the
        arena, now; returns its offset.  (The routing lane interns the
        table's whole ``MinImage`` this way, once per run.)
        """
        self._commit_routes()
        S = self._S
        off = self._arena_len
        need = off + len(chan_indices)
        if need > self._arena_cap:
            self._grow_arena(need)
        S.arena_chan[off:need] = chan_indices
        S.arena_vc[off:need] = vcs
        self._arena_len = need
        return off

    def inject_batch(self, src_nodes: np.ndarray, records: np.ndarray) -> None:
        """Queue already-routed packets at this cycle, in order.

        ``records`` holds one row per packet in kernel.c ``SE_*`` column
        order: path hops, injection VC, destination node, revisable
        flag, route arena offset (:meth:`intern_route`), inject cycle,
        ``_live`` staging id, used-VLB flag.  The caller has applied the
        source-queue cap.  The queue entries written, the timing-wheel
        appends for previously-empty queues and the counter updates are
        what a per-packet loop over the wheel engine's ``inject``
        produces (``repro_enqueue``, the function the kernel's own cycle
        loop queues with).
        """
        nodes = np.ascontiguousarray(src_nodes, np.int64)
        records = np.ascontiguousarray(records, np.int32)
        count = len(nodes)
        done = 0
        while True:
            done = self._enqueue(
                self._cstate_ref,
                done,
                count,
                nodes.ctypes.data,
                records.ctypes.data,
                self.cycle,
            )
            if done == count:
                return
            if done < 0:
                raise RuntimeError(
                    f"array kernel invariant violation (code {done}) "
                    f"queueing at cycle {self.cycle}"
                )
            self._grow_src()

    # ------------------------------------------------------------------
    # Per-cycle step (native)
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one cycle (deliver -> crossbar -> transmit)."""
        S = self._S
        if S is None:
            super().step()
            return
        self._flush_pending()
        cycle = self.cycle
        idx = cycle % self._wheel_size
        # at most one packet per node can enter the network per cycle
        if S.counters[CNT_FREE] < self.topo.num_nodes:
            self._grow_pool()
        skip_credits = 0
        if S.rev_n[idx] and (
            self.on_arrival_batch is not None or self.on_arrival is not None
        ):
            # the wheel applies this cycle's credit returns before the
            # delivery loop, so PAR revisions must see post-credit
            # load_metric state; apply them first, run the revisions in
            # delivery-bucket order (== the wheel's on_arrival call
            # order, pinning the RNG draw sequence), then let the kernel
            # run the rest of the cycle
            self._process_revisions(idx)
            skip_credits = 1
        self._commit_routes()
        rc = self._step_native(self._cstate_ref, cycle, skip_credits)
        if rc:
            raise RuntimeError(
                f"array kernel invariant violation (code {rc}) at "
                f"cycle {cycle}"
            )
        # ejections accumulate in-kernel and drain in large batches; the
        # buffer must be flushed before the next cycle could overflow it
        if S.counters[CNT_EJ] > self._ej_flush:
            self._flush_ejections()
        self.cycle += 1

    def finalize(self) -> None:
        """Flush pending injections and buffered ejections, so queue
        state and statistics hooks are complete."""
        if self._S is None:
            return
        self._flush_pending()
        self._flush_ejections()

    def _apply_credit_bucket(self, idx: int) -> None:
        S = self._S
        n = int(S.cw_n[idx])
        if not n:
            return
        psize = self.params.packet_size
        cred = S.cred
        cred_total = S.cred_total
        for c, vc in zip(
            S.cw_chan[idx, :n].tolist(), S.cw_vc[idx, :n].tolist()
        ):
            cred[c, vc] += psize
            cred_total[c] += psize
        S.cw_n[idx] = 0
        S.counters[CNT_PC] -= n

    def _process_revisions(self, idx: int) -> None:
        """Run PAR's revisions for this bucket's hop-1 revisable packets.

        Bucket order equals the wheel's delivery-loop order; ejections
        and buffer appends interleaved by the wheel cannot influence a
        revision (they never touch load_metric state), so running all
        revisions up front is bit-identical.  ``on_arrival_batch`` takes
        the whole bucket in one call (credit returns included) and
        re-routes in the arrays; ``on_arrival`` is asked per packet, with
        a ``Packet`` to rewrite.
        """
        S = self._S
        if self.on_arrival_batch is not None:
            self.on_arrival_batch(idx)
            return
        self._apply_credit_bucket(idx)
        n = int(S.dw_n[idx])
        revisable = S.p_revisable
        hops = S.p_hop
        dst_router = S.ch_dst_router
        on_arrival = self.on_arrival
        live = self._live
        pids = S.dw_pid[idx, :n].tolist()
        chans = S.dw_chan[idx, :n].tolist()
        for i in range(n):
            pid = pids[i]
            if revisable[pid] and hops[pid] == 1:
                packet = live.pop(int(S.pm_spid[pid]))
                packet.hop = 1
                packet.current_vc = int(S.p_current_vc[pid])
                on_arrival(packet, int(dst_router[chans[i]]))
                revisable[pid] = 0
                S.p_route_off[pid] = packet.route_ref
                S.p_path_hops[pid] = packet.path_hops
                S.pm_vlb[pid] = 1 if packet.used_vlb else 0
        S.rev_n[idx] = 0

    def _flush_ejections(self) -> None:
        """Hand the buffered ejections to the hooks, in ejection order.
        (Their pool ids went back on the free stack as they ejected;
        everything a hook may ask about them is in the buffer.)"""
        S = self._S
        count = int(S.counters[CNT_EJ])
        if not count:
            return
        S.counters[CNT_EJ] = 0
        cycles = S.ej_cycle[:count]
        who = S.ej_who[:count]
        batch_hook = self.on_eject_batch
        scalar_hook = self.on_eject
        live = self._live
        if batch_hook is not None:
            # hook order and per-packet eject cycles match the wheel's
            # per-cycle on_eject sequence exactly; the drain passes flat
            # slices -- views into reused buffers that must be consumed
            # in-call
            batch_hook(
                S.ej_lat[:count],
                S.ej_hops[:count],
                S.ej_vlb[:count],
                cycles,
            )
        elif scalar_hook is not None:
            rows = zip(
                who.tolist(),
                cycles.tolist(),
                S.ej_lat[:count].tolist(),
                S.ej_hops[:count].tolist(),
                S.ej_vlb[:count].tolist(),
            )
            for row, cycle, latency, hops, vlb in rows:
                packet = live.pop(row[EW_SPID], None)
                if packet is None:
                    packet = Packet(
                        row[EW_SRC], row[EW_DST], cycle - latency
                    )
                packet.path_hops = packet.hop = hops
                packet.used_vlb = bool(vlb)
                packet.current_vc = row[EW_CVC]
                scalar_hook(packet, cycle)
            return
        if live:
            spids = who[:, EW_SPID]
            for spid in spids[spids > 0].tolist():
                live.pop(spid, None)

    # ------------------------------------------------------------------
    # Introspection / observability (vectorized over the arrays)
    # ------------------------------------------------------------------
    def source_queue_len(self, node: int) -> int:
        if self._S is None:
            return super().source_queue_len(node)
        if self._pending:  # asked once per generated packet
            self._flush_pending()
        return int(self._S.src_len[node])

    def load_snapshot(self) -> Optional[List[int]]:
        S = self._S
        if S is None:
            return None
        n = self._num_switch_channels
        capacity = self.params.buffer_size * self.num_vcs
        return (S.out_len[:n] + capacity - S.cred_total[:n]).tolist()

    def reset_channel_counters(self) -> None:
        if self._S is None:
            super().reset_channel_counters()
            return
        self._S.flits[:] = 0

    def channel_utilization(self, cycles: int) -> Dict[str, float]:
        if self._S is None:
            return super().channel_utilization(cycles)
        S = self._S
        nSw = self._num_switch_channels
        flits = S.flits[:nSw]
        glob_mask = S.is_global[:nSw]
        # same element order and the same elementwise int/int true
        # divisions as the wheel's per-channel loop, so the pairwise
        # numpy reductions see identical float64 inputs
        local = flits[~glob_mask] / max(cycles, 1)
        glob = flits[glob_mask] / max(cycles, 1)
        local_arr = local if local.size else np.zeros(1)
        glob_arr = glob if glob.size else np.zeros(1)
        return {
            "local_mean": float(local_arr.mean()),
            "local_max": float(local_arr.max()),
            "global_mean": float(glob_arr.mean()),
            "global_max": float(glob_arr.max()),
        }

    def channel_flit_totals(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._S is None:
            return super().channel_flit_totals()
        S = self._S
        nSw = self._num_switch_channels
        flits = S.flits[:nSw]
        glob_mask = S.is_global[:nSw]
        return (
            flits[~glob_mask].astype(float),
            flits[glob_mask].astype(float),
        )

    def vc_occupancy(self) -> List[int]:
        if self._S is None:
            return super().vc_occupancy()
        return (
            self._S.in_len.reshape(-1, self.num_vcs)
            .sum(axis=0, dtype=np.int64)
            .tolist()
        )

    def injection_backlog(self) -> int:
        if self._S is None:
            return super().injection_backlog()
        self._flush_pending()
        return int(self._S.src_len.sum())

    def in_flight(self) -> int:
        if self._S is None:
            return super().in_flight()
        S = self._S
        return (
            int(S.counters[CNT_PD])
            + int(S.in_len.sum())
            + int(S.out_len[: self._inj_base].sum())
            + int(S.out_len[self._ej_base :].sum())
        )

    def quiescent(self) -> bool:
        if self._S is None:
            return super().quiescent()
        self._flush_pending()
        counters = self._S.counters
        return (
            not counters[CNT_PT]
            and not counters[CNT_PD]
            and not counters[CNT_PC]
            and self.in_flight() == 0
        )
