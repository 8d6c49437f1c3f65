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
VLB candidate ``(src, dst, mid, slot1, slot2)`` is a row of
:meth:`RouteTable.vlb_candidates
<repro.routing.table.RouteTable.vlb_candidates>`: two MIN slots of
``min_slots()``, whose hop channels are those slots' ``chan`` rows and
whose VC levels are the ``table.ladders``
(:func:`~repro.sim.vc.assign_vcs` itself) of the two slots' shapes.  It
is admitted when the policy draws it at all -- weight > 0 under
:func:`~repro.routing.pathset.candidate_weights`, the rule the LP, the
balance step and lint read the same rows by -- so a compiled policy and
one that exists only as Python certify the same way.  Paths are never
materialized and nothing is specific to a hop template or a topology
class, so fully connected groups, Cascade and the full mesh take the
same code; the paper's ``dfly(4,8,4,9)`` full-VLB set (~4.6M paths)
certifies in a fraction of a second.

The **generic builder** walks ``policy.iter_descriptors`` pair by pair and
materializes every path.  It is the oracle the array builder is tested
against edge for edge, and the sampled check on topologies whose
candidate space is too large to enumerate (``_ROW_LIMIT``), in which
case the result is only a bounded check, not a certificate.

What :func:`certify_deadlock_freedom` returns depends on the topology and
the question alone, never on the run that asks, so it is route-table
state: one build per ``(policy, scheme, routing)`` -- plus the seed and
sample size of a sampled check -- shared by the ``verify`` CLI, every
verify-gated simulation point and Algorithm 1's final check.

Injection and ejection channels are not modeled: terminal channels are
pure sources/sinks and cannot participate in a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.routing.minimal import min_paths
from repro.routing.paths import LOCAL_SLOT, Channel, Path
from repro.routing.pathset import AllVlbPolicy, PathPolicy, candidate_weights
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

# beyond this many (src, dst, mid, slot1, slot2) candidates the CDG stops
# enumerating and runs the generic builder on a sample of this size
_ROW_LIMIT = 50_000_000
_SAMPLED_PAIRS = 200
_SAMPLED_DESCRIPTORS = 512

# candidates the array builder reads per numpy pass, and bitmap bits it
# decodes into dependencies per pass
_CHUNK_ROWS = 1 << 14
_DECODE_BITS = 1 << 16

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


@dataclass(frozen=True)
class CdgResult:
    """Outcome of one deadlock-freedom analysis.

    ``num_paths`` counts the distinct admissible paths a packet chooses
    among: the MIN paths between different groups plus the policy's VLB
    paths.  PAR's revised fragments are those same VLB paths again and
    intra-group MIN routes offer no choice, so neither is counted
    (both contribute their dependencies).  Frozen, ``cycle`` a tuple:
    one result is the route table's certificate for every caller that
    asks the same question (:func:`certify_deadlock_freedom`).
    """

    scheme: str
    routing: str
    num_nodes: int
    num_edges: int
    num_paths: int
    exhaustive: bool
    cycle: Optional[Tuple[VcNode, ...]]

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
        tails, heads = self._endpoints()
        seen = np.zeros(self.num_node_ids, bool)
        seen[tails] = seen[heads] = True
        return int(np.count_nonzero(seen))

    def _endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every dependency's two node ids, sorted by (tail, head)."""
        # repro: allow[DET101]: the codes are sorted before any use
        codes = np.fromiter(self._edges, np.int64, len(self._edges))
        codes.sort()
        return np.divmod(codes, np.int64(self.num_node_ids))

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
        tails, heads = self._endpoints()
        # CSR: node n's successors are succ[ptr[n]:ptr[n + 1]], ascending
        ptr = np.searchsorted(tails, np.arange(self.num_node_ids + 1)).tolist()
        succ = heads.tolist()
        cursor = ptr[:-1]
        white, gray, black = 0, 1, 2
        color = bytearray(self.num_node_ids)
        for start in np.unique(tails).tolist():
            if color[start] != white:
                continue
            color[start] = gray
            trail = [start]
            while trail:
                node = trail[-1]
                i, end = cursor[node], ptr[node + 1]
                while i < end:
                    nxt = succ[i]
                    i += 1
                    c = color[nxt]
                    if c == white:
                        break
                    if c == gray:
                        cyc = trail[trail.index(nxt):]
                        return [self.decode_node(n) for n in cyc]
                else:
                    cursor[node] = i
                    color[node] = black
                    trail.pop()
                    continue
                cursor[node] = i
                color[nxt] = gray
                trail.append(nxt)
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


def _ports(switch: np.ndarray) -> np.ndarray:
    """Per channel, its position among the channels at the same switch
    (``switch[c]``: the channel's source or target), in channel order."""
    order = np.argsort(switch, kind="stable")
    ranked = switch[order]
    port = np.empty_like(switch)
    port[order] = np.arange(len(switch)) - np.searchsorted(ranked, ranked)
    return port


def _build_array(
    policy: PathPolicy,
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
    width = 2 * pairs
    head_hops = np.repeat([len(name) for name in shapes], len(shapes))
    source, target = np.array(table.channel_keys, np.int64).reshape(-1, 3).T[:2]
    ladders = [_levels(table, scheme, pair_shapes, False)]
    if include_par and scheme != "none":
        ladders.append(_levels(table, scheme, pair_shapes, True))
        arrivals = _local_arrivals(table)
    # a junction -- the leg-1 channel into mid, the leg-2 channel out --
    # as ``(mid * deg + in-port) * deg + out-port``: dense, unlike the
    # channel pair, so it can index a bitmap
    out_port, in_port = _ports(source), _ports(target)
    deg = int(max(out_port.max(initial=0), in_port.max(initial=0))) + 1
    into = target * deg + in_port
    entering = np.zeros(n * deg, np.int64)
    entering[into] = np.arange(nchan)
    leaving = np.zeros((n, deg), np.int64)
    leaving[source, out_port] = np.arange(nchan)
    arrive, depart = into[last_chan], out_port[first_chan]
    # what the candidates' dependencies hang on -- a first-leg slot, a
    # second-leg slot, a junction -- each marked as ``what * width +
    # (shape pair * 2 + fragment)``
    marks = (
        np.zeros(len(shape) * width, bool),
        np.zeros(len(shape) * width, bool),
        np.zeros(n * deg * deg * width, bool),
    )
    # every ordered pair's candidates, about _CHUNK_ROWS at a time; a
    # candidate doubles as a PAR-revised fragment when its source is a
    # switch some first MIN hop lands on -- always for another group's
    # destination, inside a group only where local routes have a second
    # hop (revision fires at hop 1)
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    fragment = (group[src] != group[dst]) | (table.topo.max_local_hops > 1)
    step = max(1, _CHUNK_ROWS // (n * table.slot_bound**2))
    for lo in range(0, len(src), step):
        cand = table.vlb_candidates(src[lo : lo + step], dst[lo : lo + step])
        keep = candidate_weights(policy, table, cand) > 0
        leg1, leg2, pair = cand.leg1, cand.leg2, cand.pair
        if not keep.all():
            leg1, leg2, pair = leg1[keep], leg2[keep], pair[keep]
        graph.num_paths += len(pair)
        tag = shape[leg1] * len(shapes) + shape[leg2]
        tag = tag * 2 + fragment[lo + pair]
        junction = arrive[leg1] * deg + depart[leg2]
        for mark, what in zip(marks, (leg1, leg2, junction)):
            mark[what * width + tag] = True
    # decoded a slice of the bitmaps at a time, which bounds the
    # temporaries of the decode
    for lo in range(0, max(map(len, marks)), _DECODE_BITS):
        merged = [np.flatnonzero(mark[lo : lo + _DECODE_BITS]) + lo for mark in marks]
        # junctions back to ``leg-1 last channel * nchan + leg-2 first``
        junction, tag = np.divmod(merged[2], width)
        arrival, out = np.divmod(junction, deg)
        joint = entering[arrival] * nchan + leaving[arrival // deg, out]
        merged[2] = joint * width + tag
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
                held = arrivals[source[head]]
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


def _sampled(topo: Dragonfly) -> bool:
    """Is ``topo``'s candidate space past ``_ROW_LIMIT``, so that the
    CDG checks a sample instead of enumerating every candidate?"""
    return _estimated_rows(topo) > _ROW_LIMIT


def build_cdg(
    topo: Dragonfly,
    policy: Optional[PathPolicy] = None,
    *,
    scheme: str = "won",
    routing: str = "par",
    seed: int = 0,
) -> ChannelDependencyGraph:
    """Build the CDG of a ``(topo, policy, scheme, routing)`` configuration.

    ``routing`` decides which dependencies exist: any ``par`` variant adds
    the PAR-revised path fragments (one VC level up) on top of the MIN and
    VLB dependencies every UGAL variant creates.  The array builder
    enumerates every candidate, admitted by
    :func:`~repro.routing.pathset.candidate_weights`; on a topology whose
    candidate space is too large to enumerate (past ``_ROW_LIMIT``) the
    generic builder checks a ``seed``-drawn sample instead and clears the
    graph's ``exhaustive`` flag.
    """
    policy = policy if policy is not None else AllVlbPolicy()
    include_par = routing.lower().removeprefix("t-") == "par"
    graph = ChannelDependencyGraph(topo, scheme)
    if _sampled(topo):
        _build_generic(
            topo, policy, scheme, include_par, graph,
            _SAMPLED_PAIRS, _SAMPLED_DESCRIPTORS, seed,
        )
    else:
        _build_array(policy, scheme, include_par, graph)
    return graph


def certify_deadlock_freedom(
    topo: Dragonfly,
    policy: Optional[PathPolicy] = None,
    *,
    scheme: str = "won",
    routing: str = "par",
    seed: int = 0,
) -> CdgResult:
    """Build the CDG and run cycle detection; see :class:`CdgResult`.

    The result is the route table's ``"certificate"``
    (:meth:`~repro.routing.table.RouteTable.fill`): built once per
    topology and question, however many callers and threads ask.  The
    key holds what the build reads -- the policy value, ``scheme``,
    ``routing`` as passed, and for the sampled check also ``seed`` and
    the sample's size; an exhaustive certificate reads no seed.
    """
    policy = policy if policy is not None else AllVlbPolicy()
    key: Tuple[object, ...] = (policy, scheme, routing)
    if _sampled(topo):
        key += (seed, _SAMPLED_PAIRS, _SAMPLED_DESCRIPTORS)

    def build() -> CdgResult:
        graph = build_cdg(topo, policy, scheme=scheme, routing=routing, seed=seed)
        cycle = graph.find_cycle()
        return CdgResult(
            scheme=scheme,
            routing=routing,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            num_paths=graph.num_paths,
            exhaustive=graph.exhaustive,
            cycle=None if cycle is None else tuple(cycle),
        )

    return route_table(topo).fill("certificate", key, build)
