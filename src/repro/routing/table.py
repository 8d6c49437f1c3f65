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
two legs, its channels and shape their concatenation.  Everything is
filled lazily, per pair, on first touch; nothing here depends on an rng,
a policy or a network instance, so one table serves every run, engine
and model pass on an equal topology (see :func:`route_table`).

The same rows also exist flattened into numpy arrays --
:class:`MinImage` (all MIN candidates, their shape ids, and the VC
ladder of every ordered pair of shapes) and :class:`VlbImage` (the
sampling rows of all group pairs) -- which is the form the simulator's
routing kernel reads; a policy's membership test joins them as a
:class:`~repro.routing.pathset.PolicyProgram`.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.routing.channels import ChannelIndex
from repro.routing.minimal import min_paths
from repro.routing.paths import LOCAL_SLOT, Path

__all__ = [
    "Leg",
    "MinImage",
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
        self._images: Dict[Tuple[str, int], MinImage] = {}
        self._vlb_image: Optional[VlbImage] = None
        # compiled membership tests by (hashable) policy; see
        # repro.routing.pathset.policy_program
        self.programs: Dict[object, object] = {}

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

    def vlb_image(self) -> VlbImage:
        """:meth:`vlb_row` of all group pairs as flat arrays."""
        image = self._vlb_image
        if image is not None:
            return image
        g = self.g
        first = np.zeros(g * g, np.int32)
        n = np.zeros(g * g, np.int32)
        group: List[int] = []
        links_in: List[int] = []
        links_out: List[int] = []
        for gs in range(g):
            for gd in range(g):
                row = self.vlb_row(gs, gd)
                first[gs * g + gd] = len(group)
                if row is None:
                    continue
                mids, m_in, m_out = row
                n[gs * g + gd] = len(mids)
                group.extend(self.group[switches[0]] for switches in mids)
                links_in.extend(m_in)
                links_out.extend(m_out)
        topo = self.topo
        image = self._vlb_image = VlbImage(
            first,
            n,
            np.array(group, np.int32),
            np.array(links_in, np.int32),
            np.array(links_out, np.int32),
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
            max([1, *links_in, *links_out]),
        )
        return image

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
        """All MIN candidates as flat arrays; fills every MIN row.

        Raises the ladders' ``ValueError`` when a MIN shape does not fit
        ``num_vcs``; a two-leg shape that does not fit is only marked
        (``combo_off == -1``).
        """
        image = self._images.get((scheme, num_vcs))
        if image is not None:
            return image
        nsw = self.nsw
        ladders = self.ladders(scheme, num_vcs)
        k = np.zeros(nsw * nsw, np.int32)
        first = np.zeros(nsw * nsw, np.int64)
        hops: List[int] = []
        vcs0: List[int] = []
        rel: List[int] = []
        chan: List[int] = []
        vc: List[int] = []
        shape: List[int] = []
        shape_ids: Dict[str, int] = {}
        for s in range(nsw):
            for d in range(nsw):
                if s == d:
                    continue
                legs = self.min_legs(s, d)
                first[s * nsw + d] = len(hops)
                k[s * nsw + d] = len(legs)
                for leg in legs:
                    vcs = ladders[leg.shape]
                    rel.append(len(chan))
                    hops.append(leg.hops)
                    vcs0.append(vcs[0])
                    chan.extend(leg.chans)
                    vc.extend(vcs)
                    shape.append(
                        shape_ids.setdefault(leg.shape, len(shape_ids))
                    )
        shapes = tuple(shape_ids)
        count = len(shapes)
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
        image = self._images[(scheme, num_vcs)] = MinImage(
            k,
            first,
            np.array(hops, np.int32),
            np.array(vcs0, np.int32),
            np.array(rel, np.int64),
            np.array(chan, np.int32),
            np.array(vc, np.int32),
            np.array(shape, np.int32),
            shapes,
            np.array([name.startswith("l") for name in shapes], np.int32),
            combo_off,
            np.array(combo_vc, np.int32),
        )
        return image


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
