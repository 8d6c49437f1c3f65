"""ArrayNetwork: the struct-of-arrays network the native kernel steps.

An array-lane run (``repro.sim.engine.Run``, ``lane == "array"``) gets
this network, and nothing enters it except the kernel's cycle loop
``repro_run``, driven whole windows at a time by
:meth:`repro.sim.array.lane.RouteLane.run`.  All flit/credit/VC state
lives in numpy struct-of-arrays -- per-channel credit tables,
output-queue rings, router input-buffer rings, per-router bitsets of
occupied input slots, and fixed-capacity timing wheels -- that the kernel
(``kernel.c``, built on demand by :mod:`repro.sim.array.native`) reads
and writes:

* the kernel's step is a bit-exact transliteration of the wheel
  :class:`~repro.sim.network.Network`'s deliver -> crossbar -> transmit
  phases over the shared arrays, with batched timing-wheel pops,
  cache-packed per-packet records, and allocation-free inner loops;
  PAR's hop-1 revisions run before each cycle's step, in delivery-bucket
  order, which is exactly the wheel's ``on_arrival`` call order;
* this module allocates and grows the arrays (the kernel never
  allocates: it comes back for a buffer to grow) and drains the
  ejection buffer into ``on_eject_batch``
  (``StatsCollector.record_ejection_batch``) in large batches;
* every observability read (utilization, flit totals, VC occupancy,
  backlog) is a vectorized reduction over the same arrays.

Nothing here steps one cycle or takes a ``Packet``: a run routed packet
by packet in Python -- and any caller that drives a network with
``inject()`` / ``step()`` -- gets the wheel ``Network`` instead.  Results
are bit-identical between the two (pinned, together with the values
themselves, by ``tests/test_routing_parity_matrix.py`` and
``tests/test_array_engine.py``), which is why the engine a run took is
a fact about the host and not part of its identity: both share cache
entries and spec fingerprints.
"""

from __future__ import annotations

import ctypes
from typing import List, Tuple

import numpy as np

from repro.hugepages import zeros as _alloc
from repro.sim.network import channel_layout
from repro.sim.array.native import (
    CNT_EJ,
    CNT_FREE,
    CNT_PD,
    COUNTERS_LEN,
    PK_STRIDE,
    PM_STRIDE,
    SE_STRIDE,
    CState,
    NativeKernelUnavailable,
    POINTER_FIELD_NAMES,
    SCALAR_FIELDS,
    load_kernel,
)

__all__ = ["ArrayNetwork"]

_PTR_OF_DTYPE = {
    np.dtype(np.int32): ctypes.POINTER(ctypes.c_int32),
    np.dtype(np.int64): ctypes.POINTER(ctypes.c_int64),
    np.dtype(np.uint64): ctypes.POINTER(ctypes.c_uint64),
}

_INITIAL_PACKET_CAP = 1024
_INITIAL_SRC_CAP = 32
# ejection-buffer entries (never fewer than two worst-case cycles' worth):
# hundreds of cycles between drains on the paper's topologies, and small
# enough that the kernel's appends stay in cache
_EJ_ENTRIES = 1 << 14


class _SoA:
    """Bag of the numpy arrays shared between Python and the kernel.

    Attribute names for the contiguous base arrays match ``struct State``
    in kernel.c field for field.  Convenience *views* into the packed
    bases keep the wheel engine's vocabulary on the Python side
    (``out_head``/``out_len``/``cred``/``cred_total`` and the int64
    ``busy_until``/``flits`` tail into ``outrow``, ...); only base arrays
    are handed to C.  ``is_global`` is Python-only and never crosses.
    """


class ArrayNetwork:
    """The network of an array-lane run: the kernel's arrays, sized for
    ``topo`` under ``params`` with ``num_vcs`` VCs.

    Raises :class:`~repro.sim.array.native.NativeKernelUnavailable` where
    the kernel does not load (``REPRO_ARRAYNET_NATIVE=0``, no compiler):
    such a host runs every run on the wheel ``Network``.
    """

    def __init__(self, topo, params, num_vcs: int) -> None:
        kernel = load_kernel()
        if kernel is None:
            raise NativeKernelUnavailable(
                "ArrayNetwork needs the native kernel; without it a run "
                "steps the wheel Network"
            )
        self._kernel = kernel
        self.topo = topo
        self.params = params
        self.num_vcs = num_vcs
        self.cycle = 0
        self.layout = channel_layout(topo, params, num_vcs)
        self._wheel_size = self.layout.wheel_size
        self._num_switch_channels = len(self.layout.keys)
        # callable(latencies, hops, used_vlb, cycles) over the arrays of
        # every packet ejected since the last drain, in ejection order
        self.on_eject_batch = None
        self._build_soa()

    def _build_soa(self) -> None:
        """Allocate the kernel's arrays and point the C struct at them."""
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
        S.src_buf = _alloc((nNodes, self._src_cap, SE_STRIDE), np.int32)
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
        # a bit per input slot (kernel.c ASLOT_WORDS words a router)
        S.act_slots = np.zeros((nR, -(-nSr // 64)), np.uint64)
        S.act_len = np.zeros(nR, np.int32)
        S.act_list = np.zeros(nR, np.int32)
        S.rr = np.zeros(nR, np.int32)
        S.in_bud = np.zeros((nR * radix, 2), np.int64)
        S.in_bud[:, 0] = -1  # stamp: no cycle yet
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
        # --- packed per-packet record pool (one cache line per packet).
        # Sized by in-network occupancy, NOT by the source backlog or by
        # what waits in the ejection buffer: the kernel pops pool ids
        # from the free stack at injection-transmit and pushes them back
        # at ejection ---
        cap = _INITIAL_PACKET_CAP
        self._packet_cap = cap
        S.pkt = _alloc((cap, PK_STRIDE), np.int32)
        S.pmeta = _alloc((cap, PM_STRIDE), np.int32)
        S.free_stack = _alloc(cap, np.int32)
        # descending init so pids pop in ascending order
        S.free_stack[:] = np.arange(cap - 1, -1, -1, dtype=np.int32)
        # --- what a packet's route refers to: the route table's channel
        # image and VC ladders (read_routes; none until then) ---
        S.route_chan = S.route_vc = np.zeros(1, np.int32)
        S.counters = np.zeros(COUNTERS_LEN, np.int64)
        S.counters[CNT_FREE] = cap

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
        self._cstate_ref = ctypes.byref(self._cstate)

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

    # ------------------------------------------------------------------
    # Growth (Python-side only; the kernel never allocates)
    # ------------------------------------------------------------------
    def _grow_pool(self) -> None:
        """Double the packet-record pool, stacking the new ids as free."""
        S = self._S
        old_cap = self._packet_cap
        new_cap = old_cap * 2
        for name, width in (("pkt", PK_STRIDE), ("pmeta", PM_STRIDE)):
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
        self._packet_cap = new_cap
        self._sync_struct(("pkt", "pmeta", "free_stack"))

    def _grow_src(self) -> None:
        """Double source-queue ring capacity, unwrapping each ring."""
        S = self._S
        old_cap = self._src_cap
        new_cap = old_cap * 2
        grown = _alloc((S.src_buf.shape[0], new_cap, SE_STRIDE), np.int32)
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
    # The route table and the ejection drain (RouteLane's)
    # ------------------------------------------------------------------
    def read_routes(self, chan: np.ndarray, ladder_vc: np.ndarray) -> None:
        """Point the kernel at what its packets' routes refer to: a
        :class:`~repro.routing.table.MinImage`'s ``chan`` and
        ``ladder_vc`` (the routing lane's, set once per run; the arrays
        must outlive the network)."""
        S = self._S
        S.route_chan = chan
        S.route_vc = ladder_vc
        self._sync_struct(("route_chan", "route_vc"))

    def _flush_ejections(self) -> None:
        """Hand the buffered ejections to ``on_eject_batch``, in ejection
        order.  (Their pool ids went back on the free stack as they
        ejected; everything the hook is given is in the buffer.)"""
        S = self._S
        count = int(S.counters[CNT_EJ])
        if not count:
            return
        S.counters[CNT_EJ] = 0
        if self.on_eject_batch is not None:
            # hook order and per-packet eject cycles match the wheel's
            # per-cycle on_eject sequence exactly; the drain passes flat
            # slices -- views into reused buffers that must be consumed
            # in-call
            self.on_eject_batch(
                S.ej_lat[:count],
                S.ej_hops[:count],
                S.ej_vlb[:count],
                S.ej_cycle[:count],
            )

    def finalize(self) -> None:
        """Drain the buffered ejections, so the statistics are complete
        (``Run.finish`` calls it before reading them)."""
        self._flush_ejections()

    # ------------------------------------------------------------------
    # Introspection / observability (vectorized over the arrays; the
    # same values as the Network methods of the same names)
    # ------------------------------------------------------------------
    def reset_channel_counters(self) -> None:
        """Zero per-channel traversal counters (at the warmup boundary)."""
        self._S.flits[:] = 0

    def channel_flit_totals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cumulative flits sent per switch channel (local, global)."""
        S = self._S
        nSw = self._num_switch_channels
        flits = S.flits[:nSw]
        glob_mask = S.is_global[:nSw]
        return (
            flits[~glob_mask].astype(float),
            flits[glob_mask].astype(float),
        )

    def vc_occupancy(self) -> List[int]:
        """Flits buffered per VC, summed over every router input port."""
        return (
            self._S.in_len.reshape(-1, self.num_vcs)
            .sum(axis=0, dtype=np.int64)
            .tolist()
        )

    def injection_backlog(self) -> int:
        """Packets waiting in node source queues (not yet on the wire)."""
        return int(self._S.src_len.sum())

    def in_flight(self) -> int:
        """Packets anywhere in the network (excluding source queues)."""
        S = self._S
        return (
            int(S.counters[CNT_PD])
            + int(S.in_len.sum())
            + int(S.out_len[: self._inj_base].sum())
            + int(S.out_len[self._ej_base :].sum())
        )
