"""Interned route tables: path construction as a lookup.

A T-VLB set is an offline, per-topology table, and so is everything a
routing decision needs to know about a candidate path: how many hops it
has, which channels it crosses, which VC each hop rides.  This module
holds that knowledge once per topology per process, as integer rows, so
the simulator's per-packet decision never builds a
:class:`~repro.routing.paths.Path`.

Rows are MIN *legs*.  ``min_legs(src, dst)`` is the tuple of canonical
MIN paths of a switch pair in link-slot order (one local leg inside a
group), each a :class:`Leg` ``(hops, chans, shape)``:

* ``chans`` -- dense channel indices in :class:`ChannelIndex` order,
  which is also the insertion order of ``Network.channels`` and the
  array engine's SoA channel order;
* ``shape`` -- one ``'l'``/``'g'`` character per hop.  VC ladders depend
  on nothing else, so ``ladders(scheme, num_vcs)[shape]`` runs
  :func:`~repro.sim.vc.assign_vcs` once per distinct shape (overflow
  ``ValueError`` and PAR's ``revised`` / ``hop_offset`` ladders included).

A MIN candidate is one leg; a VLB candidate ``(mid, slot1, slot2)`` is
two legs, its channels and shape their concatenation.  These rows are
filled lazily, per pair, on first touch; nothing here depends on an rng,
a policy or a network instance, so one table serves every run, engine
and model pass on an equal topology (see :func:`route_table`).

The same rows also exist flattened into numpy arrays --
:class:`MinImage` (all MIN candidates, their shape ids, and the VC
ladder of every ordered pair of shapes) and :class:`VlbImage` (the
sampling rows of all group pairs) -- which is the form the simulator's
routing kernel reads; a policy's membership test joins them as a
:class:`~repro.routing.pathset.PolicyProgram`.  The images are not
enumerated pair by pair: a MIN path is *local leg, global link, local
leg*, so they are *composed* with numpy gathers from two small tables
-- the local leg of every ordered switch pair of a group and the
directed global links of every group pair -- whose Python fill is
O(``nsw * a`` + links), milliseconds where the per-pair walk took
seconds.  ``min_legs`` / ``vlb_row`` stay the per-pair definition the
images are tested against.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.hugepages import zeros
from repro.routing.channels import ChannelIndex
from repro.routing.minimal import min_paths
from repro.routing.paths import LOCAL_SLOT, Path

__all__ = [
    "Leg",
    "MinImage",
    "MinSlots",
    "VlbImage",
    "RouteTable",
    "route_table",
    "topology_key",
]

# (switch_id tuples of the eligible intermediate groups, link counts
# src-group->mid-group, link counts mid-group->dst-group), index-aligned
VlbRow = Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...], Tuple[int, ...]]


class Leg(NamedTuple):
    """One canonical MIN path as an integer row."""

    hops: int
    chans: Tuple[int, ...]  # channel indices, in traversal order
    shape: str  # 'l' (local) / 'g' (global) per hop


class MinImage(NamedTuple):
    """Every MIN candidate of a topology, flattened for array use.

    Pair ``src * nsw + dst`` owns candidate slots ``first[pair]`` ..
    ``first[pair] + k[pair] - 1``; slot ``i`` has ``hops[i]`` hops, head
    VC ``vcs0[i]``, and its (channel, VC) sequence starts at ``rel[i]``
    in the concatenated ``chan`` / ``vc`` image.

    A VLB candidate ``(mid, slot1, slot2)`` of the pair is slots
    ``first[src * nsw + mid] + slot1`` and ``first[mid * nsw + dst] +
    slot2`` back to back.  Its VC ladder depends only on the two slots'
    shapes: with ``S = len(shapes)``, ``combo_off[revised, shape[i] * S
    + shape[j]]`` is where the ladder of ``shapes[shape[i]] +
    shapes[shape[j]]`` starts in ``combo_vc`` (row 1: PAR's
    ``revised=True, hop_offset=1`` ladder), or ``-1`` where
    ``assign_vcs`` raises for that shape under this VC budget.
    """

    k: np.ndarray
    first: np.ndarray
    hops: np.ndarray
    vcs0: np.ndarray
    rel: np.ndarray
    chan: np.ndarray
    vc: np.ndarray
    shape: np.ndarray  # per slot: index into ``shapes``
    shapes: Tuple[str, ...]
    shape_local: np.ndarray  # per shape: 1 when its first hop is local
    combo_off: np.ndarray  # [2, S * S]
    combo_vc: np.ndarray


class VlbImage(NamedTuple):
    """:meth:`RouteTable.vlb_row` of every group pair, flattened.

    Group pair ``gs * g + gd`` owns entries ``first[pair]`` ..
    ``first[pair] + n[pair] - 1`` (``n == 0``: no VLB path), one per
    eligible intermediate group ``group[e]`` in ascending order, with
    ``links_in[e]`` / ``links_out[e]`` global links towards the source /
    destination group; ``switches[gm]`` are a group's switch ids in the
    order uniform descriptor sampling indexes them.  ``switch_group``
    and ``node_switch`` are ``group_of`` / ``switch_of_node`` as arrays.
    """

    first: np.ndarray
    n: np.ndarray
    group: np.ndarray
    links_in: np.ndarray
    links_out: np.ndarray
    switches: np.ndarray  # [g, a]
    switch_group: np.ndarray
    node_switch: np.ndarray
    slot_bound: int  # exclusive upper bound of every descriptor's slots


class _LegParts(NamedTuple):
    """What the images are composed from, as arrays.

    Row ``u * a + q`` of ``local`` holds the channel indices of the
    canonical intra-group route from ``u`` to the ``q``-th switch of its
    group (``position``: a switch's ``q``), ``-1`` padded, ``local_hops``
    of them (none for ``u`` itself).  Group pair ``gs * g + gd`` has
    ``links[pair]`` global links in slot order; link ``r`` leaves through
    the ``near_position[pair, r]``-th switch of ``gs``, arrives at the
    switch whose ``local`` rows start at ``far_row[pair, r]``, and rides
    channel ``link_chan[pair, r]``.
    """

    position: np.ndarray
    local: np.ndarray  # [nsw * a, longest local route]
    local_hops: np.ndarray
    links: np.ndarray  # [g * g]
    near_position: np.ndarray  # [g * g, most links of a pair]
    far_row: np.ndarray
    link_chan: np.ndarray


class MinSlots(NamedTuple):
    """The part of a :class:`MinImage` no VC budget changes (fields as
    there); every image of one table shares these arrays, and the
    static verifier (:mod:`repro.verify.cdg`) reads its dependencies
    from them."""

    k: np.ndarray
    first: np.ndarray
    hops: np.ndarray
    rel: np.ndarray
    chan: np.ndarray
    shape: np.ndarray
    shapes: Tuple[str, ...]


# candidates composed per numpy pass: temporaries this size come from
# reused heap memory instead of fresh pages
_BLOCK = 1 << 18


def _ragged(
    rows: int, row: List[int], values: List[int], fill: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``values[i]`` appended to row ``row[i]`` (rows ascending), as one
    int32 matrix padded with ``fill`` -- at least one column, so gathers
    on an empty table stay legal -- plus the length of every row."""
    owner = np.array(row, np.int64)
    counts = np.bincount(owner, minlength=rows).astype(np.int32)
    column = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    table = np.full((rows, max(1, counts.max(initial=0))), fill, np.int32)
    table[owner, column] = values
    return table, counts


class _Ladders(Dict[str, List[int]]):
    """shape -> shared VC list under one (scheme, num_vcs, revised,
    hop_offset); a miss runs ``assign_vcs`` on a stand-in path of that
    shape, so its hop-naming overflow error fires exactly as before
    (and is not memoized)."""

    def __init__(
        self, scheme: str, num_vcs: int, revised: bool, hop_offset: int
    ) -> None:
        super().__init__()
        self._args = (scheme, num_vcs, revised, hop_offset)

    def __missing__(self, shape: str) -> List[int]:
        # lazy: repro.sim sits above repro.routing
        from repro.sim.vc import assign_vcs

        scheme, num_vcs, revised, hop_offset = self._args
        stand_in = Path(
            tuple(range(len(shape) + 1)),
            tuple(LOCAL_SLOT if c == "l" else 0 for c in shape),
        )
        vcs = assign_vcs(
            stand_in,
            scheme,
            hop_offset=hop_offset,
            revised=revised,
            num_vcs=num_vcs,
        )
        self[shape] = vcs
        return vcs


class RouteTable:
    """Lazily filled MIN-leg rows, sampling rows and VC ladders of one
    topology.  Obtain through :func:`route_table`."""

    def __init__(self, topo) -> None:
        self.topo = topo
        self.nsw: int = topo.num_switches
        self.g: int = topo.g
        self.group: List[int] = [
            topo.group_of(s) for s in range(self.nsw)
        ]
        # (src, dst, slot) per channel index, in ChannelIndex order
        chidx = ChannelIndex(topo)
        self.channel_keys: List[Tuple[int, int, int]] = [
            (ch.src, ch.dst, ch.slot)
            for ch in map(chidx.channel, range(len(chidx)))
        ]
        self._index = {key: i for i, key in enumerate(self.channel_keys)}
        self._legs: Dict[int, Tuple[Leg, ...]] = {}
        self._vlb_rows: Dict[int, Optional[VlbRow]] = {}
        self._ladders: Dict[Tuple[str, int, bool, int], _Ladders] = {}
        # wall seconds spent composing images: provenance for run
        # manifests (a run that found its images ready adds nothing)
        self.fill_seconds = 0.0
        self._parts: Optional[_LegParts] = None
        self._slots: Optional[MinSlots] = None
        self._images: Dict[Tuple[str, int], MinImage] = {}
        self._vlb_image: Optional[VlbImage] = None
        # compiled membership tests by (hashable) policy; see
        # repro.routing.pathset.policy_program
        self.programs: Dict[object, object] = {}
        # static network structure by (VC count, latencies, packet
        # size); see repro.sim.network.channel_layout
        self.layouts: Dict[Tuple[int, ...], Any] = {}

    # ------------------------------------------------------------------
    # Legs
    # ------------------------------------------------------------------
    def min_legs(self, src: int, dst: int) -> Tuple[Leg, ...]:
        """The MIN candidates of ``src != dst`` in link-slot order."""
        key = src * self.nsw + dst
        legs = self._legs.get(key)
        if legs is None:
            index = self._index
            legs = tuple(
                Leg(
                    path.num_hops,
                    tuple(
                        index[(path.switches[i], path.switches[i + 1], slot)]
                        for i, slot in enumerate(path.slots)
                    ),
                    sys.intern(
                        "".join(
                            "l" if slot == LOCAL_SLOT else "g"
                            for slot in path.slots
                        )
                    ),
                )
                for path in min_paths(self.topo, src, dst)
            )
            self._legs[key] = legs
        return legs

    def vlb_legs(self, src: int, dst: int, desc) -> Tuple[Leg, Leg]:
        """The two MIN legs of VLB descriptor ``(mid, slot1, slot2)``.

        Raises ``ValueError`` for an intermediate inside the source or
        destination group and ``IndexError`` for an intermediate or link
        slot that does not exist.
        """
        mid = desc.mid
        if not 0 <= mid < self.nsw:
            raise IndexError(f"VLB intermediate {mid} is not a switch")
        group = self.group
        gm = group[mid]
        if gm == group[src] or gm == group[dst]:
            raise ValueError(
                f"VLB intermediate {mid} lies in the source or destination "
                f"group ({group[src]}, {group[dst]})"
            )
        # the dict reads are min_legs' hit path, inlined: this runs per
        # rejection-sampling attempt
        nsw = self.nsw
        legs = self._legs
        first = legs.get(src * nsw + mid) or self.min_legs(src, mid)
        second = legs.get(mid * nsw + dst) or self.min_legs(mid, dst)
        return first[desc.slot1], second[desc.slot2]

    def channel_index(self, src: int, dst: int, slot: int) -> Optional[int]:
        """Dense index of a directed channel, ``None`` if there is none."""
        return self._index.get((src, dst, slot))

    def path_of(self, src: int, chans: Sequence[int]) -> Path:
        """Materialize the switch-level path of a channel-index row."""
        keys = self.channel_keys
        return Path(
            (src,) + tuple(keys[c][1] for c in chans),
            tuple(keys[c][2] for c in chans),
        )

    # ------------------------------------------------------------------
    # Sampling rows
    # ------------------------------------------------------------------
    def vlb_row(self, gs: int, gd: int) -> Optional[VlbRow]:
        """What uniform descriptor sampling needs for a group pair: the
        eligible intermediate groups (as switch-id tuples) with their
        link counts towards both ends; ``None`` without any."""
        key = gs * self.g + gd
        try:
            return self._vlb_rows[key]
        except KeyError:
            pass
        topo = self.topo
        mids = [gm for gm in range(self.g) if gm != gs and gm != gd]
        row: Optional[VlbRow] = None
        if mids:
            row = (
                tuple(
                    tuple(topo.switch_id(gm, k) for k in range(topo.a))
                    for gm in mids
                ),
                tuple(len(topo.links_between_groups(gs, gm)) for gm in mids),
                tuple(len(topo.links_between_groups(gm, gd)) for gm in mids),
            )
        self._vlb_rows[key] = row
        return row

    @property
    def slot_bound(self) -> int:
        """Exclusive upper bound of every VLB descriptor's link slots."""
        return self.vlb_image().slot_bound

    @contextmanager
    def _filling(self) -> Iterator[None]:
        # repro: allow[DET104]: fill_seconds is runtime metadata for
        # manifests, never part of a result or a cache key
        start = time.perf_counter()
        try:
            yield
        finally:
            # repro: allow[DET104]: closes the fill_seconds measurement
            self.fill_seconds += time.perf_counter() - start

    def vlb_image(self) -> VlbImage:
        """:meth:`vlb_row` of all group pairs as flat arrays."""
        image = self._vlb_image
        if image is None:
            with self._filling():
                image = self._vlb_image = self._compose_vlb_image()
        return image

    def _compose_vlb_image(self) -> VlbImage:
        g = self.g
        topo = self.topo
        links = self._leg_parts().links.reshape(g, g)
        gs = np.repeat(np.arange(g), g)
        gd = np.tile(np.arange(g), g)
        mids = np.arange(g)
        eligible = (mids != gs[:, None]) & (mids != gd[:, None])
        n = eligible.sum(axis=1, dtype=np.int32)
        pair, group = np.nonzero(eligible)  # row-major: mids ascending
        links_in = links[gs[pair], group]
        links_out = links[group, gd[pair]]
        return VlbImage(
            (np.cumsum(n) - n).astype(np.int32),
            n,
            group.astype(np.int32),
            links_in,
            links_out,
            np.array(
                [
                    [topo.switch_id(gm, k) for k in range(topo.a)]
                    for gm in range(g)
                ],
                np.int32,
            ).reshape(g, topo.a),
            np.array(self.group, np.int32),
            np.array(
                [topo.switch_of_node(node) for node in range(topo.num_nodes)],
                np.int32,
            ),
            int(max(1, links_in.max(initial=0), links_out.max(initial=0))),
        )

    # ------------------------------------------------------------------
    # VC ladders
    # ------------------------------------------------------------------
    def ladders(
        self,
        scheme: str,
        num_vcs: int,
        *,
        revised: bool = False,
        hop_offset: int = 0,
    ) -> Dict[str, List[int]]:
        """``shape -> VC list`` (shared lists: never mutate them)."""
        key = (scheme, num_vcs, revised, hop_offset)
        ladders = self._ladders.get(key)
        if ladders is None:
            ladders = self._ladders[key] = _Ladders(*key)
        return ladders

    # ------------------------------------------------------------------
    # Flattened MIN image (the routing kernel's candidate tables)
    # ------------------------------------------------------------------
    def min_image(self, scheme: str, num_vcs: int) -> MinImage:
        """All MIN candidates as flat arrays, in :meth:`min_legs` order.

        Raises the ladders' ``ValueError`` when a MIN shape does not fit
        ``num_vcs``; a two-leg shape that does not fit is only marked
        (``combo_off == -1``).
        """
        image = self._images.get((scheme, num_vcs))
        if image is None:
            with self._filling():
                image = self._compose_min_image(scheme, num_vcs)
            self._images[(scheme, num_vcs)] = image
        return image

    def _compose_min_image(self, scheme: str, num_vcs: int) -> MinImage:
        slots = self.min_slots()
        shapes = slots.shapes
        count = len(shapes)
        total = len(slots.hops)
        ladders = self.ladders(scheme, num_vcs)
        # per shape, then gathered per slot
        longest = max(map(len, shapes), default=1)
        ladder = np.zeros((count, longest), np.int32)
        for i, name in enumerate(shapes):
            ladder[i, : len(name)] = ladders[name]
        hop = np.arange(ladder.shape[1], dtype=np.int32)
        vc = zeros(len(slots.chan), np.int32)
        for lo in range(0, total, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            vcs = ladder[slots.shape[block]][hop < slots.hops[block, None]]
            vc[slots.rel[lo] : slots.rel[lo] + len(vcs)] = vcs
        combo_off = np.full((2, count * count), -1, np.int32)
        combo_vc: List[int] = []
        for revised in (0, 1):
            two_leg = (
                self.ladders(scheme, num_vcs, revised=True, hop_offset=1)
                if revised
                else ladders
            )
            for i, head in enumerate(shapes):
                for j, tail in enumerate(shapes):
                    try:
                        vcs = two_leg[head + tail]
                    except ValueError:
                        continue  # too few VCs: marked, raised on use
                    combo_off[revised, i * count + j] = len(combo_vc)
                    combo_vc.extend(vcs)
        return MinImage(
            slots.k,
            slots.first,
            slots.hops,
            np.take(
                ladder[:, 0],
                slots.shape,
                out=zeros(total, np.int32),
                mode="clip",
            ),
            slots.rel,
            slots.chan,
            vc,
            slots.shape,
            shapes,
            np.array([name.startswith("l") for name in shapes], np.int32),
            combo_off,
            np.array(combo_vc, np.int32),
        )

    def _leg_parts(self) -> _LegParts:
        """The two tables every image is composed from: O(``nsw * a``)
        ``local_route`` calls, one ``links_between_groups`` call per
        ordered group pair."""
        parts = self._parts
        if parts is not None:
            return parts
        topo = self.topo
        g, a = self.g, topo.a
        index = self._index
        position = np.zeros(self.nsw, np.int32)
        # flat (row, value) lists: no per-row containers to allocate
        row: List[int] = []
        chans: List[int] = []
        for group in range(g):
            members = [topo.switch_id(group, q) for q in range(a)]
            position[members] = range(a)
            for u in members:
                for q, v in enumerate(members):
                    if u != v:
                        walk = [u, *topo.local_route(u, v), v]
                        for here, there in zip(walk, walk[1:]):
                            row.append(u * a + q)
                            chans.append(index[(here, there, LOCAL_SLOT)])
        local, local_hops = _ragged(self.nsw * a, row, chans, -1)
        row, chans = [], []
        near: List[int] = []
        far: List[int] = []
        for gs in range(g):
            for gd in range(g):
                if gs == gd:
                    continue
                for link in topo.links_between_groups(gs, gd):
                    x, y = link.endpoint_in(gs), link.endpoint_in(gd)
                    row.append(gs * g + gd)
                    near.append(x)
                    far.append(y)
                    chans.append(index[(x, y, link.slot)])
        parts = self._parts = _LegParts(
            position,
            local,
            local_hops,
            _ragged(g * g, row, row, 0)[1],
            _ragged(g * g, row, position[near], 0)[0],
            _ragged(g * g, row, np.array(far, np.int32) * a, 0)[0],
            _ragged(g * g, row, chans, 0)[0],
        )
        return parts

    def min_slots(self) -> MinSlots:
        """Every MIN candidate, composed: a pair of two groups has one
        candidate per global link ``x -> y`` of its group pair -- the
        legs ``s -> x`` and ``y -> d`` around the link's channel; a
        pair ``(s, d)`` of one group has the local leg ``s -> d``."""
        slots = self._slots
        if slots is not None:
            return slots
        parts = self._leg_parts()
        nsw, g = self.nsw, self.g
        group = np.array(self.group, np.int32)
        src = np.repeat(np.arange(nsw, dtype=np.int32), nsw)
        dst = np.tile(np.arange(nsw, dtype=np.int32), nsw)
        inside = group[src] == group[dst]
        group_pair = group[src] * g + group[dst]
        k = np.where(inside, src != dst, parts.links[group_pair]).astype(
            np.int32
        )
        first = np.cumsum(k, dtype=np.int64) - k
        total = int(k.sum())
        reach = parts.local.shape[1]  # longest local route
        width = reach + 1
        # a shape is (head hops, crossing or not, tail hops), as a code
        code = zeros(total, np.int16)
        chan = zeros(total * (2 * reach + 1), np.int32)  # upper bound
        filled = 0
        # whole source switches at a time, _BLOCK slots or so
        step = nsw * max(1, _BLOCK * nsw // max(1, total))
        for lo in range(0, nsw * nsw, step):
            rows = slice(lo, lo + step)
            walk, block = self._compose(
                src[rows],
                dst[rows],
                inside[rows],
                group_pair[rows],
                k[rows],
                first[rows] - first[lo],
            )
            code[first[lo] : first[lo] + len(block)] = block
            walk = walk[walk >= 0]
            chan[filled : filled + len(walk)] = walk
            filled += len(walk)
        first[src == dst] = 0  # a switch has no MIN row to itself
        # shapes are numbered in order of first appearance, like the rows
        seen: Dict[int, int] = {}  # code -> its first slot
        for c in range(2 * width * width if total else 0):
            slot = int(np.argmax(code == c))
            if code[slot] == c:
                seen[c] = slot
        codes = sorted(seen, key=seen.__getitem__)
        parse = [(c // width // 2, c // width % 2, c % width) for c in codes]
        shape_of = np.zeros(2 * width * width, np.int32)
        shape_of[codes] = range(len(codes))
        hops_of = np.zeros_like(shape_of)
        hops_of[codes] = [sum(lengths) for lengths in parse]
        # (clip: codes are in range, and "raise" would buffer the output)
        hops = np.take(hops_of, code, out=zeros(total, np.int32), mode="clip")
        rel = zeros(total, np.int64)
        np.cumsum(hops[:-1], out=rel[1:])
        slots = self._slots = MinSlots(
            k,
            first,
            hops,
            rel,
            chan[:filled],
            np.take(shape_of, code, out=zeros(total, np.int32), mode="clip"),
            tuple(
                sys.intern("l" * before + "g" * link + "l" * after)
                for before, link, after in parse
            ),
        )
        return slots

    def _compose(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        inside: np.ndarray,
        group_pair: np.ndarray,
        k: np.ndarray,
        first: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The candidates of some switch pairs (``first``: where each
        pair's start among them): per candidate its channels, ``-1``
        padded, and its shape code."""
        parts = self._leg_parts()
        a = self.topo.a
        most = parts.link_chan.shape[1]
        # every slot as a link slot (row ``group_pair`` of the link
        # tables, column = rank within the pair) ...
        link = np.repeat((group_pair * most - first).astype(np.int32), k)
        link += np.arange(len(link), dtype=np.int32)
        head = np.repeat(src * a, k)
        head += parts.near_position.reshape(-1)[link]
        tail = np.repeat(parts.position[dst], k)
        tail += parts.far_row.reshape(-1)[link]
        crossing = parts.link_chan.reshape(-1)[link]
        # ... then the few slots inside a group: the head leg is the
        # whole path, there is no link and the tail leg d -> d is empty
        local = np.flatnonzero(inside & (src != dst))
        at = first[local]
        head[at] = src[local] * a + parts.position[dst[local]]
        tail[at] = dst[local] * a + parts.position[dst[local]]
        crossing[at] = -1
        reach = parts.local.shape[1]
        walk = np.empty((len(link), 2 * reach + 1), np.int32)
        for hop in range(reach):
            column = parts.local[:, hop]
            walk[:, hop] = column[head]
            walk[:, reach + 1 + hop] = column[tail]
        walk[:, reach] = crossing
        width = reach + 1
        code = (parts.local_hops * (2 * width)).astype(np.int16)[head]
        code += parts.local_hops.astype(np.int16)[tail]
        code += width
        code[at] -= width
        return walk, code


# ----------------------------------------------------------------------
# Process memo: one table per distinct topology
# ----------------------------------------------------------------------
_MAX_TABLES = 4
_TABLES: Dict[Tuple, RouteTable] = {}
# the previous lookup (topology, table): membership tests ask for the
# same topology object's table millions of times in a row
_LAST: Tuple[object, Optional[RouteTable]] = (None, None)


def topology_key(topo) -> Tuple:
    """Constructor identity of a topology, for per-process memos: its
    class plus every dataclass init field (so two Cascade grids over one
    ``(p, a, h, g)`` never alias).  Topologies that are not dataclasses
    only ever equal themselves."""
    cls = type(topo)
    if not dataclasses.is_dataclass(topo):
        return (cls.__module__, cls.__qualname__, id(topo))
    return (cls.__module__, cls.__qualname__) + tuple(
        getattr(topo, f.name) for f in dataclasses.fields(topo) if f.init
    )


def route_table(topo) -> RouteTable:
    """The process-wide :class:`RouteTable` of ``topo``.

    Equal topologies (same class and constructor fields) share one
    table; at most ``_MAX_TABLES`` are kept, oldest evicted first.
    """
    global _LAST
    if topo is _LAST[0]:
        return _LAST[1]  # type: ignore[return-value]
    key = topology_key(topo)
    table = _TABLES.get(key)
    if table is None:
        if len(_TABLES) >= _MAX_TABLES:
            del _TABLES[next(iter(_TABLES))]
        table = _TABLES[key] = RouteTable(topo)
    _LAST = (topo, table)
    return table
