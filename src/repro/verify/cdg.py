"""Channel-dependency-graph construction and static deadlock certification.

Dally's criterion: a source-routed network is deadlock-free if the channel
dependency graph (CDG) over *virtual* channels -- nodes are ``(channel,
vc)`` pairs, with an edge whenever some admissible path holds the first
while waiting for the second -- is acyclic.  This module enumerates every
hop-to-hop dependency a ``(topology, path set, vc scheme)`` configuration
can create (MIN paths, the policy's VLB paths, and PAR-revised fragments
with their shifted VC levels) and runs cycle detection, reporting a
concrete dependency cycle as a counterexample on failure.

The **array builder** certifies the tables the simulator routes from.  A
VLB candidate ``(src, dst, mid, slot1, slot2)`` is two MIN slots of
:meth:`RouteTable.min_slots() <repro.routing.table.RouteTable.min_slots>`;
its hop channels are those slots' ``chan`` rows, its VC levels the
``table.ladders`` (:func:`~repro.sim.vc.assign_vcs` itself) of the two
slots' shapes, and whether the policy admits it is
:func:`~repro.routing.pathset.program_mask` over the policy's compiled
:class:`~repro.routing.pathset.PolicyProgram`.  Paths are never
materialized and nothing is specific to a hop template or a topology
class, so fully connected groups, Cascade and the full mesh take the
same code; the paper's ``dfly(4,8,4,9)`` full-VLB set (~4.6M paths)
certifies in about a second.

The **generic builder** walks ``policy.iter_descriptors`` pair by pair and
materializes every path.  It is the oracle the array builder is tested
against edge for edge, the only builder for a policy that exists only as
Python (no program), and the one that can be sampled (``max_pairs`` /
``max_descriptors``, and by default on topologies whose candidate space
is too large to enumerate), in which case the result is only a bounded
check, not a certificate.

Injection and ejection channels are not modeled: terminal channels are
pure sources/sinks and cannot participate in a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.routing.minimal import min_paths
from repro.routing.paths import LOCAL_SLOT, Channel, Path
from repro.routing.pathset import (
    AllVlbPolicy,
    PathPolicy,
    PolicyProgram,
    policy_program,
    program_mask,
)
from repro.routing.table import RouteTable, route_table
from repro.routing.vlb import max_vlb_hops, vlb_path
from repro.sim.vc import assign_vcs
from repro.topology.dragonfly import Dragonfly

__all__ = [
    "VC_SCHEMES",
    "ChannelDependencyGraph",
    "CdgResult",
    "build_cdg",
    "certify_deadlock_freedom",
]

VC_SCHEMES = ("won", "perhop", "none")

# beyond this many (src, dst, mid, slot1, slot2) candidates `method="auto"`
# stops enumerating and runs the generic builder on a sample of this size
_ROW_LIMIT = 50_000_000
_SAMPLED_PAIRS = 200
_SAMPLED_DESCRIPTORS = 512

# candidates the array builder expands per numpy pass
_CHUNK_ROWS = 1 << 14

# the analysis has no VC budget: ladders are asked for without a limit
_NO_VC_LIMIT = 1 << 30

VcNode = Tuple[Channel, int]


def _vcs_for(path: Path, scheme: str, revised: bool = False) -> List[int]:
    """Per-hop VC levels under ``scheme``, including the analysis-only
    ``none`` scheme (a single shared VC level -- no VC protection)."""
    if scheme == "none":
        return [0] * path.num_hops
    # a revised fragment starts one hop in: `perhop` reads the offset,
    # `won` the flag (the call `_levels` makes through `table.ladders`)
    return assign_vcs(
        path, scheme, hop_offset=int(revised), revised=revised, num_vcs=_NO_VC_LIMIT
    )


@dataclass
class CdgResult:
    """Outcome of one deadlock-freedom analysis.

    ``num_paths`` counts the distinct admissible paths a packet chooses
    among: the MIN paths between different groups plus the policy's VLB
    paths.  PAR's revised fragments are those same VLB paths again and
    intra-group MIN routes offer no choice, so neither is counted
    (both contribute their dependencies).
    """

    scheme: str
    routing: str
    num_nodes: int
    num_edges: int
    num_paths: int
    exhaustive: bool
    cycle: Optional[List[VcNode]]

    @property
    def deadlock_free(self) -> bool:
        """No dependency cycle was found (on the analyzed path set)."""
        return self.cycle is None

    @property
    def certified(self) -> bool:
        """Acyclic *and* every admissible dependency was enumerated."""
        return self.cycle is None and self.exhaustive

    def describe(self) -> str:
        """One-line human-readable verdict."""
        if self.cycle is not None:
            return (
                f"DEADLOCK RISK: dependency cycle of length "
                f"{len(self.cycle)} (scheme {self.scheme!r})"
            )
        kind = "certified" if self.exhaustive else "no cycle found (sampled)"
        return (
            f"deadlock-free: {kind} -- CDG acyclic "
            f"({self.num_nodes} nodes, {self.num_edges} edges, "
            f"scheme {self.scheme!r}, routing {self.routing!r})"
        )


class ChannelDependencyGraph:
    """The CDG of one configuration, with integer-encoded nodes.

    A node is a ``(channel, vc)`` pair encoded as ``channel * num_levels
    + vc``, with channels numbered as everywhere else: the route table's
    :class:`~repro.routing.channels.ChannelIndex` order, in which
    parallel links between one switch pair stay distinct.
    """

    def __init__(self, topo: Dragonfly, scheme: str) -> None:
        if scheme not in VC_SCHEMES:
            raise ValueError(
                f"unknown vc scheme {scheme!r}; choose from {VC_SCHEMES}"
            )
        self.topo = topo
        self.scheme = scheme
        self.table: RouteTable = route_table(topo)
        # enough VC levels for any scheme incl. PAR offsets on this topo
        self.num_levels = max_vlb_hops(topo) + 2
        self.num_node_ids = len(self.table.channel_keys) * self.num_levels
        self._edges: Set[int] = set()
        self.exhaustive = True
        self.num_paths = 0

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _node(self, ch: Channel, vc: int) -> int:
        index = self.table.channel_index(ch.src, ch.dst, ch.slot)
        if index is None:
            raise ValueError(f"{ch} is not a channel of {self.topo}")
        return index * self.num_levels + vc

    def decode_node(self, node: int) -> VcNode:
        """Map an encoded node id back to its ``(channel, vc)`` pair."""
        index, vc = divmod(node, self.num_levels)
        return Channel(*self.table.channel_keys[index]), vc

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_dependency(self, ch1: Channel, vc1: int, ch2: Channel, vc2: int) -> None:
        """Record that a packet may hold ``(ch1, vc1)`` while waiting for
        ``(ch2, vc2)`` (public: tests hand-build cyclic fixtures with it)."""
        self._edges.add(
            self._node(ch1, vc1) * self.num_node_ids + self._node(ch2, vc2)
        )

    def _add_hops(self, path: Path, vcs: Sequence[int]) -> None:
        if len(vcs) != path.num_hops:
            raise ValueError(
                f"{path.num_hops}-hop path got {len(vcs)} VC assignments"
            )
        channels = list(path.channels())
        for i in range(len(channels) - 1):
            self.add_dependency(
                channels[i], vcs[i], channels[i + 1], vcs[i + 1]
            )

    def add_path(self, path: Path, vcs: Sequence[int]) -> None:
        """Add the consecutive-hop dependencies of one routed path."""
        self._add_hops(path, vcs)
        self.num_paths += 1

    def add_dependencies(
        self,
        ch1: np.ndarray,
        vc1: np.ndarray,
        ch2: np.ndarray,
        vc2: np.ndarray,
    ) -> None:
        """:meth:`add_dependency` of whole arrays, channels by index."""
        lv = self.num_levels
        edges = (ch1 * lv + vc1) * np.int64(self.num_node_ids) + ch2 * lv + vc2
        self._edges.update(np.unique(edges).tolist())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def num_nodes(self) -> int:
        nodes = set()
        # repro: allow[DET101]: feeds only len(); order cannot matter
        for e in self._edges:
            nodes.add(e // self.num_node_ids)
            nodes.add(e % self.num_node_ids)
        return len(nodes)

    def iter_dependencies(self) -> Iterable[Tuple[VcNode, VcNode]]:
        """Yield every dependency as ``((ch, vc), (ch, vc))`` pairs."""
        # repro: allow[DET101]: int elements hash to themselves, so set
        # order is value-determined and PYTHONHASHSEED-independent
        for e in self._edges:
            n1, n2 = divmod(e, self.num_node_ids)
            yield self.decode_node(n1), self.decode_node(n2)

    def find_cycle(self) -> Optional[List[VcNode]]:
        """A dependency cycle as ``[(channel, vc), ...]``, or ``None``.

        The returned list is the cycle in traversal order: each element
        depends on the next, and the last depends on the first.  A single
        three-color iterative DFS over the dependencies in node order, so
        the counterexample reported is the same whatever order they were
        added in.
        """
        adj: Dict[int, List[int]] = {}
        for e in sorted(self._edges):
            n1, n2 = divmod(e, self.num_node_ids)
            adj.setdefault(n1, []).append(n2)
        white, gray, black = 0, 1, 2
        color: Dict[int, int] = {}
        for start in adj:
            if color.get(start, white) != white:
                continue
            color[start] = gray
            stack = [(start, iter(adj[start]))]
            trail = [start]
            while stack:
                node, successors = stack[-1]
                for nxt in successors:
                    c = color.get(nxt, white)
                    if c == gray:
                        cyc = trail[trail.index(nxt):]
                        return [self.decode_node(n) for n in cyc]
                    if c == white:
                        color[nxt] = gray
                        stack.append((nxt, iter(adj.get(nxt, ()))))
                        trail.append(nxt)
                        break
                else:
                    color[node] = black
                    stack.pop()
                    trail.pop()
        return None


# ---------------------------------------------------------------------------
# Array builder: dependencies read from the route table
# ---------------------------------------------------------------------------
def _levels(
    table: RouteTable, scheme: str, shapes: Sequence[str], revised: bool
) -> np.ndarray:
    """Row ``i``: the VC level of every hop of ``shapes[i]`` -- the
    table's own ladders (PAR's ``revised=True, hop_offset=1`` ones for a
    revised fragment), or all zero under the analysis-only ``none``."""
    levels = np.zeros((len(shapes), max(map(len, shapes), default=1)), np.int64)
    if scheme != "none":
        ladders = table.ladders(
            scheme, _NO_VC_LIMIT, revised=revised, hop_offset=int(revised)
        )
        for i, shape in enumerate(shapes):
            levels[i, : len(shape)] = ladders[shape]
    return levels


def _local_arrivals(table: RouteTable) -> np.ndarray:
    """Row ``r``: the channels of the local hops ``s -> r`` a packet can
    reach switch ``r`` over, ``-1`` padded."""
    rows = [
        [
            table.channel_index(s, r, LOCAL_SLOT)
            for s in table.topo.local_neighbors(r)
        ]
        for r in range(table.nsw)
    ]
    arrivals = np.full((table.nsw, max(1, *map(len, rows))), -1, np.int64)
    for r, row in enumerate(rows):
        arrivals[r, : len(row)] = row
    return arrivals


def _add_leg_hops(
    graph: ChannelDependencyGraph,
    slot: np.ndarray,
    levels: np.ndarray,
    start: np.ndarray,
) -> None:
    """The consecutive-hop dependencies inside MIN slots ``slot``, hop
    ``h`` of ``slot[r]`` riding VC level ``levels[r, start[r] + h]``."""
    slots = graph.table.min_slots()
    hops = slots.hops[slot]
    for hop in range(int(hops.max(initial=1)) - 1):
        on = np.flatnonzero(hops > hop + 1)
        at = slots.rel[slot[on]] + hop
        level = start[on] + hop
        graph.add_dependencies(
            slots.chan[at],
            levels[on, level],
            slots.chan[at + 1],
            levels[on, level + 1],
        )


def _candidates(table: RouteTable, gm: int) -> Iterator[Tuple[np.ndarray, ...]]:
    """Every VLB candidate through intermediate group ``gm`` as columns
    ``(src, dst, mid, slot1, slot2, fragment)``, about ``_CHUNK_ROWS``
    at a time.  ``fragment``: the candidate is also a PAR-revised
    fragment, its source being a switch some first MIN hop lands on --
    always for another group's destination, inside a group only where
    local routes have a second hop (revision fires at hop 1)."""
    slots = table.min_slots()
    image = table.vlb_image()
    n = table.nsw
    group = image.switch_group
    mids = image.switches[gm].astype(np.int64)
    # second legs: every mid offers the same (dst, slot2) list
    dsts = np.flatnonzero(group != gm)
    count = slots.k[mids[0] * n + dsts]
    dst2 = np.repeat(dsts, count)
    slot2 = np.arange(len(dst2)) - np.repeat(np.cumsum(count) - count, count)
    if not len(dst2):
        return
    for gs in range(table.g):
        srcs = image.switches[gs].astype(np.int64)
        links = int(slots.k[srcs[0] * n + mids[0]])
        if gs == gm or not links:
            continue
        firsts = [
            column.ravel()
            for column in np.meshgrid(srcs, mids, np.arange(links), indexing="ij")
        ]
        fragment2 = (group[dst2] != gs) | (table.topo.max_local_hops > 1)
        step = max(1, _CHUNK_ROWS // len(dst2))
        for lo in range(0, len(firsts[0]), step):
            src, mid, slot1 = (
                np.repeat(column[lo : lo + step], len(dst2)) for column in firsts
            )
            dst, s2, fragment = (
                np.tile(column, len(src) // len(dst2))
                for column in (dst2, slot2, fragment2)
            )
            yield src, dst, mid, slot1, s2, fragment


def _build_array(
    program: PolicyProgram,
    scheme: str,
    include_par: bool,
    graph: ChannelDependencyGraph,
) -> None:
    table = graph.table
    slots = table.min_slots()
    n, nchan = table.nsw, len(table.channel_keys)
    group = table.vlb_image().switch_group
    shapes = slots.shapes
    shape = slots.shape.astype(np.int64)
    first_chan = slots.chan[slots.rel].astype(np.int64)
    last_chan = slots.chan[slots.rel + slots.hops - 1].astype(np.int64)

    # ---- MIN paths: every slot once ----
    _add_leg_hops(
        graph,
        np.arange(len(shape)),
        _levels(table, scheme, shapes, False)[shape],
        np.zeros(len(shape), np.int64),
    )
    between_groups = group[:, None] != group[None, :]
    graph.num_paths += int(slots.k.reshape(n, n)[between_groups].sum())

    # ---- VLB paths: two slots back to back, on the ladder of their
    # shape pair; under PAR once more, as fragments, on the revised one
    pair_shapes = [head + tail for head in shapes for tail in shapes]
    pairs = len(pair_shapes)
    head_hops = np.repeat([len(name) for name in shapes], len(shapes))
    ladders = [_levels(table, scheme, pair_shapes, False)]
    if include_par and scheme != "none":
        ladders.append(_levels(table, scheme, pair_shapes, True))
        arrivals = _local_arrivals(table)
        channel_source = np.array(table.channel_keys)[:, 0]
    for gm in range(table.g):
        # what the candidates' dependencies hang on -- a first-leg slot,
        # a second-leg slot, the two channels of a junction -- each as
        # ``(what * pairs + shape pair) * 2 + fragment``, deduplicated
        found: Tuple[List[np.ndarray], ...] = ([], [], [])
        for columns in _candidates(table, gm):
            src, dst, mid, slot1, slot2, fragment = columns
            keep = src != dst
            if program.ops:
                keep &= program_mask(program, table, *columns[:5])
            src, dst, mid, slot1, slot2, fragment = (
                column[keep] for column in columns
            )
            graph.num_paths += len(src)
            leg1 = slots.first[src * n + mid] + slot1
            leg2 = slots.first[mid * n + dst] + slot2
            joint = last_chan[leg1] * nchan + first_chan[leg2]
            tag = (shape[leg1] * len(shapes) + shape[leg2]) * 2 + fragment
            for keys, what in zip(found, (leg1, leg2, joint)):
                keys.append(np.unique(what * (2 * pairs) + tag))
        if not found[0]:
            continue
        merged = [np.unique(np.concatenate(keys)) for keys in found]
        for revised, levels in enumerate(ladders):
            (leg1, pair1), (leg2, pair2), (joint, pair) = (
                np.divmod(key[key & 1 > 0] >> 1 if revised else key >> 1, pairs)
                for key in merged
            )
            _add_leg_hops(graph, leg1, levels[pair1], np.zeros_like(pair1))
            _add_leg_hops(graph, leg2, levels[pair2], head_hops[pair2])
            graph.add_dependencies(
                joint // nchan,
                levels[pair, head_hops[pair] - 1],
                joint % nchan,
                levels[pair, head_hops[pair]],
            )
            if revised:
                # the hop that brought the packet to the revision switch
                # is held, at level 0, while the fragment's first hop is
                # awaited: one dependency per local neighbour
                head = first_chan[leg1]
                held = arrivals[channel_source[head]]
                row, column = np.nonzero(held >= 0)
                graph.add_dependencies(
                    held[row, column], 0, head[row], levels[pair1[row], 0]
                )


# ---------------------------------------------------------------------------
# Generic builder
# ---------------------------------------------------------------------------
def _build_generic(
    topo: Dragonfly,
    policy: PathPolicy,
    scheme: str,
    include_par: bool,
    graph: ChannelDependencyGraph,
    max_pairs: Optional[int],
    max_descriptors: Optional[int],
    seed: int,
) -> None:
    pairs = [
        (s, d)
        for s in range(topo.num_switches)
        for d in range(topo.num_switches)
        if s != d
    ]
    if max_pairs is not None and max_pairs < len(pairs):
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[i] for i in sorted(idx)]
        graph.exhaustive = False
    for src, dst in pairs:
        # this pair can be the (revision switch, dst) of a PAR re-route
        # when some packet's first MIN hop lands on `src`: always possible
        # for inter-group traffic, and for intra-group traffic only on
        # topologies with multi-hop local routes (revision fires at hop 1)
        inter_group = topo.group_of(src) != topo.group_of(dst)
        fragment_pair = inter_group or topo.max_local_hops > 1
        neighbors = topo.local_neighbors(src) if fragment_pair else []
        for p in min_paths(topo, src, dst):
            graph._add_hops(p, _vcs_for(p, scheme))
            graph.num_paths += inter_group  # see CdgResult
        seen: Set[Tuple[int, int, int]] = set()
        for desc in policy.iter_descriptors(topo, src, dst):
            if max_descriptors is not None and len(seen) >= max_descriptors:
                graph.exhaustive = False
                break
            if tuple(desc) in seen:
                continue  # listed twice: one path
            seen.add(tuple(desc))
            try:
                p = vlb_path(topo, src, dst, desc)
            except (ValueError, IndexError):
                continue  # malformed descriptor; the linter reports these
            graph.add_path(p, _vcs_for(p, scheme))
            if include_par and fragment_pair and scheme != "none":
                # this pair doubles as the (revision switch, dst) pair of
                # a PAR re-route: same path, VC levels shifted up one,
                # held while the pre-revision source-group hop drains
                vcs = _vcs_for(p, scheme, revised=True)
                graph._add_hops(p, vcs)
                first = next(p.channels())
                for s in neighbors:
                    graph.add_dependency(
                        Channel(s, src), 0, first, vcs[0]
                    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def _estimated_rows(topo: Dragonfly) -> int:
    m = max(topo.links_per_group_pair, 1)
    return topo.g * topo.g * max(topo.g - 2, 0) * topo.a**3 * m * m


def build_cdg(
    topo: Dragonfly,
    policy: Optional[PathPolicy] = None,
    *,
    scheme: str = "won",
    routing: str = "par",
    method: str = "auto",
    max_pairs: Optional[int] = None,
    max_descriptors: Optional[int] = None,
    seed: int = 0,
) -> ChannelDependencyGraph:
    """Build the CDG of a ``(topo, policy, scheme, routing)`` configuration.

    ``routing`` decides which dependencies exist: any ``par`` variant adds
    the PAR-revised path fragments (one VC level up) on top of the MIN and
    VLB dependencies every UGAL variant creates.  ``method`` is ``fast``
    (the array builder, which needs the policy to compile to a program),
    ``generic``, or ``auto``: the array builder when the policy has a
    program, no sampling cap is given and the candidate space is
    tractable; otherwise the generic builder -- sampled, when the caller
    gave no caps, on a candidate space too large to enumerate.  Sampling
    caps only apply to the generic builder and clear the graph's
    ``exhaustive`` flag.
    """
    policy = policy if policy is not None else AllVlbPolicy()
    base = routing.lower()
    base = base[2:] if base.startswith("t-") else base
    include_par = base == "par"
    graph = ChannelDependencyGraph(topo, scheme)
    if method not in ("auto", "fast", "generic"):
        raise ValueError(f"unknown method {method!r}")
    program = policy_program(policy, graph.table)
    if method == "auto" and max_pairs is None and max_descriptors is None:
        if _estimated_rows(topo) > _ROW_LIMIT:
            max_pairs, max_descriptors = _SAMPLED_PAIRS, _SAMPLED_DESCRIPTORS
        elif program is not None:
            method = "fast"
    if method != "fast":
        _build_generic(
            topo,
            policy,
            scheme,
            include_par,
            graph,
            max_pairs,
            max_descriptors,
            seed,
        )
    elif program is None:
        raise ValueError(
            f"policy {policy.describe()!r} has no membership program; "
            f"use method='generic'"
        )
    else:
        _build_array(program, scheme, include_par, graph)
    return graph


def certify_deadlock_freedom(
    topo: Dragonfly,
    policy: Optional[PathPolicy] = None,
    *,
    scheme: str = "won",
    routing: str = "par",
    method: str = "auto",
    max_pairs: Optional[int] = None,
    max_descriptors: Optional[int] = None,
    seed: int = 0,
) -> CdgResult:
    """Build the CDG and run cycle detection; see :class:`CdgResult`."""
    graph = build_cdg(
        topo,
        policy,
        scheme=scheme,
        routing=routing,
        method=method,
        max_pairs=max_pairs,
        max_descriptors=max_descriptors,
        seed=seed,
    )
    cycle = graph.find_cycle()
    return CdgResult(
        scheme=scheme,
        routing=routing,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_paths=graph.num_paths,
        exhaustive=graph.exhaustive,
        cycle=cycle,
    )
