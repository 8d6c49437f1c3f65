"""The cycle-level network: channels, routers, and the per-cycle engine.

Model (a deliberately simplified BookSim-style input-queued router):

* every directed switch-to-switch link is a :class:`SimChannel` with an
  upstream **output queue** (drained at 1 flit/cycle onto the wire) and a
  downstream per-VC **input buffer** governed by credit-based flow control
  (credits returned with wire latency, as in BookSim);
* each router moves flits from input buffers to output queues through a
  crossbar that can accept/emit up to ``speedup`` flits per port per cycle
  (the paper's "switch speed-up" that relieves head-of-line blocking);
* terminal (injection/ejection) ports are channels too: the node's source
  queue is unbounded, ejection always sinks.

Packets are source-routed: the UGAL decision (see ``repro.sim.routing``)
fixes the channel/VC sequence at injection, except that PAR may rewrite the
remaining route once when the packet reaches the second switch of its
source group.

Per-cycle phases: (1) wire deliveries + credit returns, (2) crossbar
(switch allocation + traversal), (3) wire transmission from output queues,
(4) injection.  Only active elements are touched, so cost scales with
in-flight flits rather than network size.

Hot-path engineering (the structures below are chosen for the per-cycle
inner loops, see ``docs/performance.md``):

* future events (wire deliveries, credit returns, transmission starts)
  live in **timing wheels** sized by the maximum schedulable delay rather
  than a dict of cycle -> list buckets or a per-cycle scan over every
  channel with queued flits;
* each router's set of occupied ``(port, vc)`` input slots is a **sorted
  list**, so the rotating round-robin order is a ring rotation (one bisect
  plus two slices) instead of a per-cycle ``sorted(...)`` with a modular
  key;
* crossbar port budgets are **flat per-port arrays** with a cycle stamp
  (no clearing, no dict hashing);
* every channel caches the total of its credit counters so
  :meth:`SimChannel.load_metric` -- the UGAL congestion estimate queried
  per routing decision -- is O(1) instead of ``sum(self.credits)``;
* work lists are wheels or insertion-ordered dicts, never ``set``s of
  objects, so iteration order (and therefore the whole simulation) is a
  pure function of the seed rather than of ``id()`` hashes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs import channel_utilization
from repro.routing.paths import LOCAL_SLOT, Path
from repro.routing.table import RouteTable, route_table
from repro.sim.packet import Packet
from repro.sim.params import SimParams
from repro.topology.dragonfly import Dragonfly

__all__ = ["SimChannel", "Router", "ChannelLayout", "channel_layout", "Network"]


class SimChannel:
    """A directed channel plus its upstream output queue and credits."""

    __slots__ = (
        "index",
        "src_router",
        "dst_router",
        "src_port",
        "dst_port",
        "latency",
        "is_global_link",
        "is_ejection",
        "is_injection",
        "delivery_delay",
        "dst_slot_base",
        "out_queue",
        "out_capacity",
        "credits",
        "credit_total",
        "credit_capacity",
        "buffer_size",
        "flits_sent",
        "busy_until",
    )

    def __init__(
        self,
        src_router: Optional[int],
        dst_router: Optional[int],
        dst_port: int,
        latency: int,
        num_vcs: int,
        buffer_size: int,
        out_capacity: int,
        is_global_link: bool = False,
        is_ejection: bool = False,
        src_port: int = 0,
    ) -> None:
        # dense id, assigned by Network.__init__: switch channels in
        # insertion (== route table) order, then injection, then ejection
        self.index = -1
        self.src_router = src_router
        self.dst_router = dst_router
        self.src_port = src_port  # output port at src_router (0 if none)
        self.dst_port = dst_port
        self.latency = latency
        self.is_global_link = is_global_link
        self.is_ejection = is_ejection
        self.is_injection = src_router is None and not is_ejection
        # filled by Network.__init__ (depends on SimParams constants):
        # cycles from transmission start to tail-flit delivery, and the
        # flattened (dst_port, vc=0) input-slot index downstream
        self.delivery_delay = latency
        self.dst_slot_base = dst_port * num_vcs
        self.out_queue: deque = deque()
        self.out_capacity = out_capacity
        self.credits = [buffer_size] * num_vcs
        # cached sum(self.credits); every credit mutation keeps it current
        self.credit_total = buffer_size * num_vcs
        self.credit_capacity = buffer_size * num_vcs
        self.buffer_size = buffer_size
        self.flits_sent = 0  # measurement-window traversals (engine-reset)
        self.busy_until = 0  # wire occupied until this cycle (multi-flit)

    def load_metric(self) -> int:
        """Locally known congestion of this channel: flits queued at the
        output plus downstream buffer slots currently committed (credits
        spent).  This is what UGAL-L reads for its first hop and UGAL-G
        sums along the whole path.  O(1): the credit sum is maintained
        incrementally by the engine."""
        return len(self.out_queue) + self.credit_capacity - self.credit_total


class Router:
    """Per-router input buffers and round-robin crossbar state."""

    __slots__ = (
        "idx",
        "num_ports",
        "num_vcs",
        "total_slots",
        "queues",
        "active",
        "rr",
        "in_budget",
        "in_stamp",
        "out_budget",
        "out_stamp",
    )

    def __init__(self, idx: int, num_ports: int, num_vcs: int) -> None:
        self.idx = idx
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.total_slots = num_ports * num_vcs
        # input buffer per (port, vc), flattened
        self.queues: List[deque] = [
            deque() for _ in range(num_ports * num_vcs)
        ]
        # flat (port, vc) indices with flits, kept sorted ascending; the
        # round-robin order of the crossbar is then a ring rotation
        self.active: List[int] = []
        self.rr = 0  # rotating arbitration priority
        # per-cycle crossbar budgets, valid only when stamp == cycle
        # (stamping avoids clearing the arrays every cycle)
        self.in_budget = [0] * num_ports
        self.in_stamp = [-1] * num_ports
        self.out_budget = [0] * num_ports
        self.out_stamp = [-1] * num_ports

    def slot(self, port: int, vc: int) -> int:
        return port * self.num_vcs + vc


class ChannelLayout(NamedTuple):
    """The static structure of a network, one row per channel.

    Rows are in ``SimChannel.index`` order: switch-to-switch channels in
    route-table order (``keys``), then one injection and one ejection
    channel per node.  Nothing here changes while a network runs, and
    nothing depends on more than the topology, the latencies, the
    packet size and the VC count -- so it is computed once per such
    combination (:func:`channel_layout`) and every network built on it,
    object or array form, reads the same columns.
    """

    keys: List[Tuple[int, int, int]]  # (src, dst, slot) per switch channel
    src_router: np.ndarray  # -1: the channel leaves a node
    dst_router: np.ndarray  # -1: the channel enters a node
    src_port: np.ndarray  # output port at src_router (0 if none)
    dst_port: np.ndarray
    latency: np.ndarray
    delay: np.ndarray  # transmission start -> tail-flit delivery
    is_global: np.ndarray
    kind: np.ndarray  # 0 switch-to-switch, 1 injection, 2 ejection
    gslot: np.ndarray  # flattened (dst_router, dst_port, vc=0) input slot
    max_latency: int
    wheel_size: int


def channel_layout(
    topo: Dragonfly, params: SimParams, num_vcs: int
) -> ChannelLayout:
    """The :class:`ChannelLayout` of ``topo`` under ``params``, built once
    per route table (:meth:`~repro.routing.table.RouteTable.fill`).

    Port layout per router: ``0..p-1`` terminal, then one local port per
    intra-group neighbor (``topo.local_neighbors`` order), then global
    ports in the order of ``topo.global_links_of_switch``.
    """
    key = (
        num_vcs,
        params.local_latency,
        params.global_latency,
        params.injection_latency,
        params.router_latency,
        params.packet_size,
    )
    table = route_table(topo)
    return table.fill(
        "layout", key, lambda: _build_layout(table, params, num_vcs)
    )


def _build_layout(
    table: RouteTable, params: SimParams, num_vcs: int
) -> ChannelLayout:
    topo = table.topo
    p = topo.p
    local_degree = topo.local_degree
    # local port of neighbor v at router u: p + rank of v among group
    local_port: Dict[Tuple[int, int], int] = {}
    for u in range(topo.num_switches):
        for rank, v in enumerate(topo.local_neighbors(u)):
            local_port[(u, v)] = p + rank
    global_port: Dict[Tuple[int, int, int], int] = {}
    for u in range(topo.num_switches):
        for rank, link in enumerate(topo.global_links_of_switch(u)):
            global_port[(link.other_end(u), u, link.slot)] = (
                p + local_degree + rank
            )
    # (src_router, dst_router, src_port, dst_port, latency, kind): the
    # switch channels in the route table's order, then the terminals
    keys = table.channel_keys
    rows: List[Tuple[int, int, int, int, int, int]] = [
        (u, v, local_port[(u, v)], local_port[(v, u)],
         params.local_latency, 0)
        if slot == LOCAL_SLOT
        else (u, v, global_port[(v, u, slot)], global_port[(u, v, slot)],
              params.global_latency, 0)
        for u, v, slot in keys
    ]
    nodes = range(topo.num_nodes)
    rows += [
        (-1, topo.switch_of_node(node), 0, node % p,
         params.injection_latency, 1)
        for node in nodes
    ]
    rows += [
        (topo.switch_of_node(node), -1, node % p, 0,
         params.injection_latency, 2)
        for node in nodes
    ]
    src_router, dst_router, src_port, dst_port, latency, kind = (
        np.array(column, np.int32) for column in zip(*rows)
    )
    is_global = np.zeros(len(rows), bool)
    is_global[: len(keys)] = [slot != LOCAL_SLOT for _u, _v, slot in keys]
    # output ports map 1:1 onto non-injection channels, so per-port
    # state may legally live per channel
    out_ports = (src_router * topo.radix + src_port)[kind != 1]
    assert len(np.unique(out_ports)) == len(out_ports), (
        "output port shared by channels"
    )
    max_latency = max(
        params.local_latency, params.global_latency, params.injection_latency
    )
    # wire latency + serialization (+ downstream router pipeline)
    delay = latency + (params.packet_size - 1)
    delay[kind == 0] += params.router_latency
    layout = ChannelLayout(
        keys,
        src_router,
        dst_router,
        src_port,
        dst_port,
        latency,
        delay,
        is_global,
        kind,
        np.where(
            dst_router < 0,
            0,
            (dst_router * topo.radix + dst_port) * num_vcs,
        ).astype(np.int32),
        max_latency,
        # the farthest any event is scheduled ahead is a delivery:
        # channel latency + router pipeline + packet serialization
        max_latency + params.router_latency + params.packet_size + 1,
    )
    for column in layout:
        if isinstance(column, np.ndarray):
            column.flags.writeable = False  # shared by every network
    return layout


class Network:
    """Builds the simulation network for a topology and runs cycles.

    What is where is :func:`channel_layout`'s; this class materializes
    it as channel and router objects and steps them, one cycle per
    :meth:`step`, with packets routed in Python and queued by
    :meth:`inject`.  It is the engine of every packet-lane run and of
    every caller that drives a network itself (``build_network``), and
    the reference the native kernel is held bit-identical to.
    """

    def __init__(
        self,
        topo: Dragonfly,
        params: SimParams,
        num_vcs: int,
    ) -> None:
        self.topo = topo
        self.params = params
        self.num_vcs = num_vcs
        self.cycle = 0
        self.layout = layout = channel_layout(topo, params, num_vcs)
        self._max_latency = layout.max_latency
        self._wheel_size = layout.wheel_size

        # hooks filled by the engine
        self.on_eject = None  # callable(packet, cycle)
        self.on_arrival = None  # callable(packet, router_idx) for PAR

        # the layout as channel and router objects, plus the event
        # wheels that step them
        num_ports = topo.radix
        self.routers = [
            Router(i, num_ports, num_vcs)
            for i in range(topo.num_switches)
        ]
        ordered: List[SimChannel] = []
        for index, (src, dst, src_port, dst_port, latency, delay, is_global,
                    kind) in enumerate(
            zip(
                layout.src_router.tolist(),
                layout.dst_router.tolist(),
                layout.src_port.tolist(),
                layout.dst_port.tolist(),
                layout.latency.tolist(),
                layout.delay.tolist(),
                layout.is_global.tolist(),
                layout.kind.tolist(),
            )
        ):
            channel = SimChannel(
                None if src < 0 else src,
                None if dst < 0 else dst,
                dst_port,
                latency,
                num_vcs,
                params.buffer_size,
                # an injection channel's queue is the node's source
                # queue, unbounded
                1 << 30 if kind == 1 else params.output_queue_size,
                is_global_link=is_global,
                is_ejection=kind == 2,
                src_port=src_port,
            )
            channel.index = index
            channel.delivery_delay = delay
            ordered.append(channel)
        switch_channels = len(layout.keys)
        nodes = topo.num_nodes
        # keyed by (src, dst, slot), in index order
        self.channels: Dict[Tuple[int, int, int], SimChannel] = dict(
            zip(layout.keys, ordered)
        )
        self.inject_channels = ordered[switch_channels:][:nodes]
        self.eject_channels = ordered[switch_channels + nodes :]

        # --- event timing wheels: slot (cycle % size) -> work items ---
        self._delivery_wheel: List[List[Tuple[SimChannel, Packet]]] = [
            [] for _ in range(self._wheel_size)
        ]
        # (channel, vc) pairs; every return is exactly packet_size credits
        self._credit_wheel: List[List[Tuple[SimChannel, int]]] = [
            [] for _ in range(self._wheel_size)
        ]
        # flat slot index -> input port, shared by all routers
        self._port_of = [
            s // num_vcs for s in range(num_ports * num_vcs)
        ]
        self._pending_deliveries = 0  # packets on wires
        self._pending_credits = 0  # credit returns in flight
        # transmit wheel: channels due to start a transmission at a cycle.
        # A channel is scheduled exactly once while its output queue is
        # non-empty: on the empty->non-empty transition (at
        # ``max(now, busy_until)``), then re-scheduled ``packet_size``
        # cycles after each transmission while flits remain (or next cycle
        # when an injection channel stalls on terminal credits).  This
        # replaces the seed's per-cycle scan over every channel with
        # queued flits.
        self._transmit_wheel: List[List[SimChannel]] = [
            [] for _ in range(self._wheel_size)
        ]
        self._pending_transmits = 0  # channels scheduled on the wheel
        # the router work list is an insertion-ordered dict
        # (dict-as-ordered-set): a set would iterate in hash order, which
        # for id()-hashed objects would make results depend on memory
        # layout instead of only on the seed
        self._active_routers: Dict[int, None] = {}

    # ------------------------------------------------------------------
    # Route helpers
    # ------------------------------------------------------------------
    def path_channels(self, path: Path) -> List[SimChannel]:
        """Materialize the SimChannels of a switch-level path."""
        return [
            self.channels[(path.switches[i], path.switches[i + 1], slot)]
            for i, slot in enumerate(path.slots)
        ]

    # ------------------------------------------------------------------
    # Engine phases
    # ------------------------------------------------------------------
    def _deliver(self) -> None:
        """Wire arrivals into downstream input buffers; credit returns."""
        idx = self.cycle % self._wheel_size
        returns = self._credit_wheel[idx]
        if returns:
            self._credit_wheel[idx] = []
            self._pending_credits -= len(returns)
            psize = self.params.packet_size
            for channel, vc in returns:
                channel.credits[vc] += psize
                channel.credit_total += psize
        items = self._delivery_wheel[idx]
        if not items:
            return
        self._delivery_wheel[idx] = []
        self._pending_deliveries -= len(items)
        routers = self.routers
        active_routers = self._active_routers
        on_arrival = self.on_arrival
        on_eject = self.on_eject
        cycle = self.cycle
        for channel, packet in items:
            if channel.is_ejection:
                on_eject(packet, cycle)
                continue
            ridx = channel.dst_router
            router = routers[ridx]
            if packet.revisable and packet.hop == 1 and on_arrival:
                on_arrival(packet, ridx)
            # the flit occupies the buffer of the VC it traveled on
            slot = channel.dst_slot_base + packet.current_vc
            queue = router.queues[slot]
            if not queue:
                # first flit on this slot; a router with any occupied slot
                # is already in the work list (invariant kept by _crossbar)
                insort(router.active, slot)
                active_routers[ridx] = None
            queue.append(packet)
            packet.arrived_channel = channel

    def _crossbar(self) -> None:
        """Move head flits from input buffers to output queues.

        VC allocation happens here, BookSim-style: a flit leaves its input
        buffer only once a downstream credit for its next VC is reserved,
        so output queues never block and VC isolation (hence deadlock
        freedom) is preserved end to end.
        """
        speedup = self.params.speedup
        psize = self.params.packet_size
        cycle = self.cycle
        eject_channels = self.eject_channels
        credit_wheel = self._credit_wheel
        wheel_size = self._wheel_size
        transmit_wheel = self._transmit_wheel
        port_of = self._port_of
        # bound bucket appends per credit-return delay (a handful of
        # distinct wire latencies), resolved once per cycle per delay
        # instead of once per forwarded packet
        credit_append = [
            credit_wheel[(cycle + d) % wheel_size].append
            for d in range(self._max_latency + 1)
        ]
        pending_credits = 0
        pending_transmits = 0
        for ridx in list(self._active_routers):
            router = self.routers[ridx]
            active = router.active
            if not active:
                del self._active_routers[ridx]
                continue
            rr = router.rr
            if len(active) == 1:
                order = [active[0]]
            else:
                # rotate the sorted slot list so slots >= rr come first:
                # identical order to sorting by (slot - rr) % total
                start = bisect_left(active, rr)
                order = active[start:] + active[:start]
            router.rr = rr + 1 if rr + 1 < router.total_slots else 0
            in_budget = router.in_budget
            in_stamp = router.in_stamp
            out_budget = router.out_budget
            out_stamp = router.out_stamp
            queues = router.queues
            for slot in order:
                queue = queues[slot]
                if not queue:
                    active.remove(slot)
                    continue
                port = port_of[slot]
                if in_stamp[port] != cycle:
                    in_stamp[port] = cycle
                    in_budget[port] = 0
                elif in_budget[port] >= speedup:
                    continue
                packet = queue[0]
                hop = packet.hop
                ejecting = hop >= packet.path_hops
                if ejecting:
                    out_channel = eject_channels[packet.dst_node]
                    next_vc = 0
                else:
                    out_channel = packet.route[hop]
                    next_vc = packet.vcs[hop]
                out_port = out_channel.src_port
                if out_stamp[out_port] != cycle:
                    out_stamp[out_port] = cycle
                    out_budget[out_port] = 0
                elif out_budget[out_port] >= speedup:
                    continue
                out_queue = out_channel.out_queue
                if len(out_queue) >= out_channel.out_capacity:
                    continue
                if not ejecting and out_channel.credits[next_vc] < psize:
                    continue  # not enough downstream space for the packet
                queue.popleft()
                if not queue:
                    active.remove(slot)
                in_budget[port] += 1
                out_budget[out_port] += 1
                # free the input buffer space: return credits upstream
                arrived = packet.arrived_channel
                if arrived is not None:
                    credit_append[arrived.latency](
                        (arrived, packet.current_vc)
                    )
                    pending_credits += 1
                if not ejecting:
                    out_channel.credits[next_vc] -= psize
                    out_channel.credit_total -= psize
                    packet.current_vc = next_vc
                    packet.hop = hop + 1
                if not out_queue:
                    # queue was empty: schedule the transmission start
                    when = out_channel.busy_until
                    if when < cycle:
                        when = cycle
                    transmit_wheel[when % wheel_size].append(out_channel)
                    pending_transmits += 1
                out_queue.append(packet)
            if not router.active:
                self._active_routers.pop(ridx, None)
        self._pending_credits += pending_credits
        self._pending_transmits += pending_transmits

    def _transmit(self) -> None:
        """Start the transmissions scheduled for this cycle.

        A ``packet_size``-flit packet occupies the wire for that many
        cycles (virtual cut-through serialization); the packet is
        delivered when its tail flit lands.  Channels with more queued
        flits re-schedule themselves ``packet_size`` cycles ahead, so each
        wheel bucket holds exactly the channels that act this cycle -- no
        scan over idle or serializing channels.
        """
        cycle = self.cycle
        wheel_size = self._wheel_size
        idx = cycle % wheel_size
        todo = self._transmit_wheel[idx]
        if not todo:
            return
        self._transmit_wheel[idx] = []
        psize = self.params.packet_size
        delivery_wheel = self._delivery_wheel
        transmit_wheel = self._transmit_wheel
        # bound bucket appends per delivery delay, resolved once per cycle
        deliver_append = [
            delivery_wheel[(cycle + d) % wheel_size].append
            for d in range(wheel_size)
        ]
        next_append = transmit_wheel[(cycle + psize) % wheel_size].append
        retry_append = transmit_wheel[(cycle + 1) % wheel_size].append
        pending = 0
        retired = 0
        for channel in todo:
            out_queue = channel.out_queue
            if not out_queue:  # defensive: drained while scheduled
                retired += 1
                continue
            if channel.is_injection:
                # injection channel: reserve the terminal buffer credit here
                packet = out_queue[0]
                vc = packet.vcs[0] if packet.path_hops else 0
                if channel.credits[vc] < psize:
                    # terminal buffer full: retry next cycle
                    retry_append(channel)
                    continue
                channel.credits[vc] -= psize
                channel.credit_total -= psize
                packet.current_vc = vc
                out_queue.popleft()
            else:
                packet = out_queue.popleft()
            channel.busy_until = cycle + psize
            channel.flits_sent += psize
            deliver_append[channel.delivery_delay]((channel, packet))
            pending += 1
            if out_queue:
                next_append(channel)
            else:
                retired += 1
        self._pending_deliveries += pending
        self._pending_transmits -= retired

    def inject(self, packet: Packet) -> None:
        """Queue a routed packet at its node's source queue."""
        channel = self.inject_channels[packet.src_node]
        out_queue = channel.out_queue
        if not out_queue:
            when = channel.busy_until
            if when < self.cycle:
                when = self.cycle
            self._transmit_wheel[when % self._wheel_size].append(channel)
            self._pending_transmits += 1
        out_queue.append(packet)

    def source_queue_len(self, node: int) -> int:
        """Packets waiting in ``node``'s source queue."""
        return len(self.inject_channels[node].out_queue)

    def step(self) -> None:
        """Advance one cycle (deliver -> crossbar -> transmit)."""
        self._deliver()
        self._crossbar()
        self._transmit()
        self.cycle += 1

    # ------------------------------------------------------------------
    # Introspection for tests
    # ------------------------------------------------------------------
    def reset_channel_counters(self) -> None:
        """Zero per-channel traversal counters (at the warmup boundary)."""
        for channel in self.channels.values():
            channel.flits_sent = 0
        for channel in self.inject_channels:
            channel.flits_sent = 0
        for channel in self.eject_channels:
            channel.flits_sent = 0

    def channel_utilization(self, cycles: int) -> Dict[str, float]:
        """Utilization statistics of switch-to-switch channels.

        Returns mean/max utilization (flits per cycle) separately for
        local and global channels over ``cycles`` -- used to verify the
        load-balance properties that T-VLB selection relies on.
        """
        return channel_utilization(self.channel_flit_totals(), cycles)

    # ------------------------------------------------------------------
    # Observability hooks (repro.obs) -- read-only samples of live state.
    # None of these are called from the per-cycle hot path; the engine's
    # EngineSampler invokes them every K cycles when tracing is enabled.
    # ------------------------------------------------------------------
    def channel_flit_totals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cumulative ``flits_sent`` per switch channel (local, global).

        Array order is the deterministic channel-insertion order, so an
        element-wise difference of two snapshots is the per-channel flit
        count of the interval between them (the sampler's utilization).
        """
        local = []
        glob = []
        # repro: allow[DET102]: deterministic channel-insertion order is
        # the documented contract of these snapshot arrays
        for channel in self.channels.values():
            if channel.is_global_link:
                glob.append(channel.flits_sent)
            else:
                local.append(channel.flits_sent)
        return (
            np.asarray(local, dtype=float),
            np.asarray(glob, dtype=float),
        )

    def vc_occupancy(self) -> List[int]:
        """Flits buffered per VC, summed over every router input port.

        Iterates only occupied ``(port, vc)`` slots (the routers' active
        lists), so the cost scales with buffered flits, not network size.
        """
        occupancy = [0] * self.num_vcs
        num_vcs = self.num_vcs
        for router in self.routers:
            queues = router.queues
            for slot in router.active:
                occupancy[slot % num_vcs] += len(queues[slot])
        return occupancy

    def injection_backlog(self) -> int:
        """Packets waiting in node source queues (not yet on the wire)."""
        return sum(len(c.out_queue) for c in self.inject_channels)

    def quiescent(self) -> bool:
        """True when nothing is in flight and no events remain scheduled."""
        return (
            not self._pending_transmits
            and not self._pending_deliveries
            and not self._pending_credits
            and self.in_flight() == 0
        )

    def finalize(self) -> None:
        """Nothing to flush: this engine fires every hook inline.  (The
        array engine buffers ejections across cycles and drains them
        here; ``Run.finish`` calls it on either before reading stats.)
        """

    def in_flight(self) -> int:
        """Packets anywhere in the network (excluding source queues)."""
        total = self._pending_deliveries
        for router in self.routers:
            for q in router.queues:
                total += len(q)
        # repro: allow[DET102]: integer occupancy total; addition order
        # cannot change the sum
        for channel in self.channels.values():
            total += len(channel.out_queue)
        for channel in self.eject_channels:
            total += len(channel.out_queue)
        return total
