"""Channel-dependency-graph construction and static deadlock certification.

Dally's criterion: a source-routed network is deadlock-free if the channel
dependency graph (CDG) over *virtual* channels -- nodes are ``(channel,
vc)`` pairs, with an edge whenever some admissible path holds the first
while waiting for the second -- is acyclic.  This module enumerates every
hop-to-hop dependency a ``(topology, path set, vc scheme)`` configuration
can create (MIN paths, the policy's VLB paths, and PAR-revised fragments
with their shifted VC levels) and runs cycle detection, reporting a
concrete dependency cycle as a counterexample on failure.

Two builders produce identical graphs (a property the tests assert):

* a **vectorized builder** for fully connected groups: paths are never
  materialized; all ``(src, dst, mid, slot1, slot2)`` candidates of a
  group triple are expanded as flat numpy arrays, policy membership is
  evaluated as a vectorized mask (including the exact splitmix64 subset
  hash of :class:`~repro.routing.pathset.HopClassPolicy`), and the edge
  list is deduplicated per triple.  This certifies the paper's
  ``dfly(4,8,4,9)`` full-VLB set (~4.6M paths) in seconds.
* a **generic builder** that walks ``policy.iter_descriptors`` pair by
  pair and materializes paths -- required for sparse intra-group
  topologies (Cascade), :class:`ExplicitPathSet`, or unknown policy types,
  and optionally sampled (``max_pairs`` / ``max_descriptors``), in which
  case the result is only a bounded check, not a certificate.

Injection and ejection channels are not modeled: terminal channels are
pure sources/sinks and cannot participate in a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.routing.minimal import min_paths
from repro.routing.paths import Channel, Path
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    HopClassPolicy,
    PathPolicy,
    StrategicFiveHopPolicy,
)
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

# beyond this many (src, dst, mid, slot1, slot2) candidates the vectorized
# builder is considered too expensive and `method="auto"` falls back to the
# generic (sampled) builder
_FAST_ROW_LIMIT = 50_000_000

VcNode = Tuple[Channel, int]


class _UnsupportedPolicy(Exception):
    """Raised when a policy has no vectorized membership mask."""


def _vcs_for(path: Path, scheme: str, revised: bool = False) -> List[int]:
    """Per-hop VC levels under ``scheme``, including the analysis-only
    ``none`` scheme (a single shared VC level -- no VC protection)."""
    if scheme == "none":
        return [0] * path.num_hops
    if scheme == "perhop":
        return assign_vcs(
            path, scheme, hop_offset=1 if revised else 0, num_vcs=1 << 30
        )
    return assign_vcs(path, scheme, revised=revised, num_vcs=1 << 30)


@dataclass
class CdgResult:
    """Outcome of one deadlock-freedom analysis."""

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

    A node is a ``(channel, vc)`` pair encoded as
    ``channel_id * num_levels + vc``; local channel ids are ``u * S + v``
    and global channel ids index ``topo.global_links`` twice (once per
    direction), so parallel links between one switch pair stay distinct.
    """

    def __init__(self, topo: Dragonfly, scheme: str) -> None:
        if scheme not in VC_SCHEMES:
            raise ValueError(
                f"unknown vc scheme {scheme!r}; choose from {VC_SCHEMES}"
            )
        self.topo = topo
        self.scheme = scheme
        self._S = topo.num_switches
        # enough VC levels for any scheme incl. PAR offsets on this topo
        self.num_levels = max_vlb_hops(topo) + 2
        self._global_base = self._S * self._S
        self.num_channel_ids = self._global_base + 2 * len(topo.global_links)
        self.num_node_ids = self.num_channel_ids * self.num_levels
        self._link_pos: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        for pos, link in enumerate(topo.global_links):
            key = (
                min(link.group_a, link.group_b),
                max(link.group_a, link.group_b),
                link.slot,
            )
            self._link_pos[key] = (pos, link.switch_a)
        self._edges: Set[int] = set()
        self.exhaustive = True
        self.num_paths = 0

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_channel(self, ch: Channel) -> int:
        """Integer id of a directed channel (see class docstring)."""
        if not ch.is_global:
            return ch.src * self._S + ch.dst
        ga = self.topo.group_of(ch.src)
        gb = self.topo.group_of(ch.dst)
        key = (min(ga, gb), max(ga, gb), ch.slot)
        pos, switch_a = self._link_pos[key]
        direction = 0 if ch.src == switch_a else 1
        return self._global_base + 2 * pos + direction

    def decode_channel(self, cid: int) -> Channel:
        """Inverse of :meth:`encode_channel`."""
        if cid < self._global_base:
            return Channel(cid // self._S, cid % self._S)
        pos, direction = divmod(cid - self._global_base, 2)
        link = self.topo.global_links[pos]
        if direction == 0:
            return Channel(link.switch_a, link.switch_b, link.slot)
        return Channel(link.switch_b, link.switch_a, link.slot)

    def decode_node(self, node: int) -> VcNode:
        """Map an encoded node id back to its ``(channel, vc)`` pair."""
        cid, vc = divmod(node, self.num_levels)
        return self.decode_channel(cid), vc

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_dependency(self, ch1: Channel, vc1: int, ch2: Channel, vc2: int) -> None:
        """Record that a packet may hold ``(ch1, vc1)`` while waiting for
        ``(ch2, vc2)`` (public: tests hand-build cyclic fixtures with it)."""
        n1 = self.encode_channel(ch1) * self.num_levels + vc1
        n2 = self.encode_channel(ch2) * self.num_levels + vc2
        self._edges.add(n1 * self.num_node_ids + n2)

    def add_path(self, path: Path, vcs: Sequence[int]) -> None:
        """Add the consecutive-hop dependencies of one routed path."""
        if len(vcs) != path.num_hops:
            raise ValueError(
                f"{path.num_hops}-hop path got {len(vcs)} VC assignments"
            )
        channels = list(path.channels())
        for i in range(len(channels) - 1):
            self.add_dependency(
                channels[i], vcs[i], channels[i + 1], vcs[i + 1]
            )
        self.num_paths += 1

    def add_encoded_edges(self, edges: np.ndarray) -> None:
        """Bulk-add edges already encoded as ``n1 * num_node_ids + n2``."""
        if edges.size:
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
        three-color iterative DFS, O(nodes + edges).
        """
        adj: Dict[int, List[int]] = {}
        # repro: allow[DET101]: int elements hash to themselves, so set
        # order is value-determined and PYTHONHASHSEED-independent
        for e in self._edges:
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
# Vectorized policy membership
# ---------------------------------------------------------------------------
_U = np.uint64


def _mix_vec(
    seed: int,
    src: np.ndarray,
    dst: np.ndarray,
    mid: np.ndarray,
    s1: np.ndarray,
    s2: np.ndarray,
) -> np.ndarray:
    """Vectorized replica of ``repro.routing.pathset._mix`` (uint64 wrap
    arithmetic is exactly the scalar version's ``& 0xFFF...F`` masking)."""
    # the seed term is folded in exact Python arithmetic (numpy *scalar*
    # overflow would warn); array x scalar products wrap silently mod 2**64,
    # matching the scalar version's explicit masking
    seed_term = ((seed & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15) & (
        0xFFFFFFFFFFFFFFFF
    )
    x = (
        src.astype(np.uint64) * _U(0xBF58476D1CE4E5B9)
        + dst.astype(np.uint64) * _U(0x94D049BB133111EB)
        + mid.astype(np.uint64) * _U(0xD6E8FEB86659FD93)
        + s1.astype(np.uint64) * _U(0xA5A5A5A5A5A5A5A5)
        + s2.astype(np.uint64) * _U(0x0123456789ABCDEF)
        + _U(seed_term)
    )
    x ^= x >> _U(30)
    x *= _U(0xBF58476D1CE4E5B9)
    x ^= x >> _U(27)
    x *= _U(0x94D049BB133111EB)
    x ^= x >> _U(31)
    return x


_DESC_SLOT_BITS = 10  # slots per group pair < 1024 in any realistic dfly


def _encode_desc(
    S: int,
    src: np.ndarray,
    dst: np.ndarray,
    mid: np.ndarray,
    s1: np.ndarray,
    s2: np.ndarray,
) -> np.ndarray:
    base = (src.astype(np.int64) * S + dst) * S + mid
    return ((base << _DESC_SLOT_BITS) | s1) << _DESC_SLOT_BITS | s2


def _policy_mask(
    topo: Dragonfly, policy: PathPolicy, R: Dict[str, np.ndarray]
) -> Optional[np.ndarray]:
    """Vectorized ``policy.contains`` over candidate rows ``R``.

    ``R`` holds flat int arrays ``src, dst, mid, s1, s2`` and bool arrays
    ``h0, h2, h3, h5`` (presence of the four optional local hops).
    Returns ``None`` for "all rows".  Raises :class:`_UnsupportedPolicy`
    for policy types without a closed-form mask.
    """
    if isinstance(policy, AllVlbPolicy):
        return None
    hops = 2 + R["h0"] + R["h2"] + R["h3"] + R["h5"]
    if isinstance(policy, HopClassPolicy):
        mask = hops <= policy.full_hops
        if policy.extra_fraction > 0.0:
            quota = int(round(policy.extra_fraction * 10_000))
            mixed = _mix_vec(
                policy.seed, R["src"], R["dst"], R["mid"], R["s1"], R["s2"]
            )
            in_quota = (mixed % _U(10_000)).astype(np.int64) < quota
            mask |= (hops == policy.full_hops + 1) & in_quota
        return mask
    if isinstance(policy, StrategicFiveHopPolicy):
        leg1 = 1 + R["h0"] + R["h2"]
        leg2 = 1 + R["h3"] + R["h5"]
        want1, want2 = (2, 3) if policy.order == "2+3" else (3, 2)
        return (leg1 + leg2 <= 4) | (
            (leg1 == want1) & (leg2 == want2)
        )
    if isinstance(policy, ExcludingPolicy):
        base = _policy_mask(topo, policy.base, R)
        mask = (
            np.ones(R["src"].shape, dtype=bool) if base is None else base.copy()
        )
        if policy.excluded_descriptors:
            S = topo.num_switches
            if any(
                d.slot1 >= (1 << _DESC_SLOT_BITS)
                or d.slot2 >= (1 << _DESC_SLOT_BITS)
                for _s, _d, d in policy.excluded_descriptors
            ):
                raise _UnsupportedPolicy("slot out of encodable range")
            excl = np.fromiter(
                (
                    int(
                        _encode_desc(
                            S,
                            np.int64(s),
                            np.int64(d),
                            np.int64(desc.mid),
                            np.int64(desc.slot1),
                            np.int64(desc.slot2),
                        )
                    )
                    for s, d, desc in policy.excluded_descriptors
                ),
                dtype=np.int64,
            )
            enc = _encode_desc(
                S, R["src"], R["dst"], R["mid"], R["s1"], R["s2"]
            )
            mask &= ~np.isin(enc, excl)
        if policy.excluded_channels:
            # a path is excluded when any of its (present) hops uses an
            # excluded channel; graph construction knows the hop channel
            # ids, so the caller passes them through R
            cids = np.fromiter(
                (R["encode"](ch) for ch in policy.excluded_channels),
                dtype=np.int64,
            )
            hit = np.zeros(R["src"].shape, dtype=bool)
            for col, present in (
                ("ch0", R["h0"]),
                ("ch1", None),
                ("ch2", R["h2"]),
                ("ch3", R["h3"]),
                ("ch4", None),
                ("ch5", R["h5"]),
            ):
                on = np.isin(R[col], cids)
                hit |= on if present is None else (on & present)
            mask &= ~hit
        return mask
    raise _UnsupportedPolicy(type(policy).__name__)


# ---------------------------------------------------------------------------
# Vectorized builder (fully connected groups)
# ---------------------------------------------------------------------------
def _pair_tables(
    topo: Dragonfly, graph: ChannelDependencyGraph
) -> Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per ordered group pair: slot-indexed endpoint and channel-id arrays
    ``(xs, ys, cids)`` for traversing each global link from ``ga`` side."""
    tables: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for ga in range(topo.g):
        for gb in range(topo.g):
            if ga == gb:
                continue
            links = topo.links_between_groups(ga, gb)
            if not links:
                continue
            xs = np.fromiter(
                (ln.endpoint_in(ga) for ln in links), dtype=np.int64
            )
            ys = np.fromiter(
                (ln.endpoint_in(gb) for ln in links), dtype=np.int64
            )
            cids = np.fromiter(
                (
                    graph.encode_channel(
                        Channel(ln.endpoint_in(ga), ln.endpoint_in(gb), ln.slot)
                    )
                    for ln in links
                ),
                dtype=np.int64,
            )
            tables[(ga, gb)] = (xs, ys, cids)
    return tables


def _emit(
    graph: ChannelDependencyGraph,
    collected: List[np.ndarray],
    sel: np.ndarray,
    ch_a: np.ndarray,
    vc_a: np.ndarray,
    ch_b: np.ndarray,
    vc_b: np.ndarray,
) -> None:
    """Collect the encoded edges (a, vc_a) -> (b, vc_b) of the selected
    rows, duplicates and all: :func:`_flush` dedups a whole block of
    transitions at once."""
    if not sel.any():
        return
    lv = graph.num_levels
    n1 = ch_a[sel] * lv + vc_a[sel]
    n2 = ch_b[sel] * lv + vc_b[sel]
    collected.append(n1 * graph.num_node_ids + n2)


def _flush(graph: ChannelDependencyGraph, collected: List[np.ndarray]) -> None:
    """Add what :func:`_emit` collected to the graph (one dedup for the
    block, inside ``add_encoded_edges``) and start the next block."""
    if collected:
        graph.add_encoded_edges(np.concatenate(collected))
        collected.clear()


def _won_vlb_vcs(
    h2: np.ndarray, h3: np.ndarray, offset: int
) -> Tuple[np.ndarray, ...]:
    c = (h2 & h3).astype(np.int64)
    zero = np.zeros(h2.shape, dtype=np.int64) + offset
    return (
        zero,
        zero,
        zero + 1,
        offset + 1 + c,
        offset + 1 + c,
        offset + 2 + c,
    )


def _perhop_vlb_vcs(
    h0: np.ndarray, h2: np.ndarray, h3: np.ndarray, offset: int
) -> Tuple[np.ndarray, ...]:
    p0 = np.zeros(h0.shape, dtype=np.int64) + offset
    p1 = p0 + h0
    p2 = p1 + 1
    p3 = p1 + h2 + 1
    p4 = p3 + h3
    return p0, p1, p2, p3, p4, p4 + 1


def _none_vlb_vcs(h0: np.ndarray) -> Tuple[np.ndarray, ...]:
    z = np.zeros(h0.shape, dtype=np.int64)
    return z, z, z, z, z, z


def _vlb_vcs(
    scheme: str,
    h0: np.ndarray,
    h2: np.ndarray,
    h3: np.ndarray,
    offset: int,
) -> Tuple[np.ndarray, ...]:
    if scheme == "won":
        return _won_vlb_vcs(h2, h3, offset)
    if scheme == "perhop":
        return _perhop_vlb_vcs(h0, h2, h3, offset)
    return _none_vlb_vcs(h0)


def _emit_vlb_rows(
    graph: ChannelDependencyGraph,
    collected: List[np.ndarray],
    R: Dict[str, np.ndarray],
    include: Optional[np.ndarray],
    scheme: str,
    offset: int,
) -> None:
    """Emit the consecutive-hop edges of all (masked) candidate rows.

    The 6-hop template is ``l g l l g l`` with optional hops h0/h2/h3/h5;
    edges join each present hop to the next present hop.
    """
    h0, h2, h3, h5 = R["h0"], R["h2"], R["h3"], R["h5"]
    base = R["valid"] if include is None else (R["valid"] & include)
    v = _vlb_vcs(scheme, h0, h2, h3, offset)
    ch = (R["ch0"], R["ch1"], R["ch2"], R["ch3"], R["ch4"], R["ch5"])
    transitions = (
        (0, 1, h0),
        (1, 2, h2),
        (1, 3, ~h2 & h3),
        (1, 4, ~h2 & ~h3),
        (2, 3, h2 & h3),
        (2, 4, h2 & ~h3),
        (3, 4, h3),
        (4, 5, h5),
    )
    for i, j, cond in transitions:
        _emit(graph, collected, base & cond, ch[i], v[i], ch[j], v[j])


def _build_fast(
    topo: Dragonfly,
    policy: PathPolicy,
    scheme: str,
    include_par: bool,
    graph: ChannelDependencyGraph,
) -> None:
    S = topo.num_switches
    a = topo.a
    tables = _pair_tables(topo, graph)
    collected: List[np.ndarray] = []

    # ---- MIN paths: one canonical l g l (with collapses) per link ----
    for (ga, gb), (xs, ys, cids) in tables.items():
        srcs = np.arange(ga * a, (ga + 1) * a, dtype=np.int64)
        dsts = np.arange(gb * a, (gb + 1) * a, dtype=np.int64)
        SRC, DST, K = np.meshgrid(srcs, dsts, np.arange(len(xs)), indexing="ij")
        SRC, DST, K = SRC.ravel(), DST.ravel(), K.ravel()
        X, Y, G = xs[K], ys[K], cids[K]
        h0 = SRC != X
        h2 = Y != DST
        ch0 = SRC * S + X
        ch2 = Y * S + DST
        if scheme == "won":
            v0 = np.zeros(SRC.shape, dtype=np.int64)
            v1 = v0
            v2 = v0 + 1
        elif scheme == "perhop":
            v0 = np.zeros(SRC.shape, dtype=np.int64)
            v1 = h0.astype(np.int64)
            v2 = v1 + 1
        else:
            v0 = v1 = v2 = np.zeros(SRC.shape, dtype=np.int64)
        _emit(graph, collected, h0, ch0, v0, G, v1)
        _emit(graph, collected, h2, G, v1, ch2, v2)
        graph.num_paths += int(SRC.size)
    _flush(graph, collected)

    # ---- VLB candidates per (source group, dest group, mid group) ----
    for gs in range(topo.g):
        for gd in range(topo.g):
            for gm in range(topo.g):
                if gm == gs or gm == gd:
                    continue
                t1 = tables.get((gs, gm))
                t2 = tables.get((gm, gd))
                if t1 is None or t2 is None:
                    continue
                xs1, ys1, g1 = t1
                xs2, ys2, g2 = t2
                srcs = np.arange(gs * a, (gs + 1) * a, dtype=np.int64)
                dsts = np.arange(gd * a, (gd + 1) * a, dtype=np.int64)
                mids = np.arange(gm * a, (gm + 1) * a, dtype=np.int64)
                s1 = np.arange(len(xs1), dtype=np.int64)
                s2 = np.arange(len(xs2), dtype=np.int64)
                SRC, DST, MID, K1, K2 = (
                    arr.ravel()
                    for arr in np.meshgrid(
                        srcs, dsts, mids, s1, s2, indexing="ij"
                    )
                )
                X1, Y1, G1 = xs1[K1], ys1[K1], g1[K1]
                X2, Y2, G2 = xs2[K2], ys2[K2], g2[K2]
                R: Dict[str, np.ndarray] = {
                    "src": SRC,
                    "dst": DST,
                    "mid": MID,
                    "s1": K1,
                    "s2": K2,
                    "h0": SRC != X1,
                    "h2": Y1 != MID,
                    "h3": MID != X2,
                    "h5": Y2 != DST,
                    "ch0": SRC * S + X1,
                    "ch1": G1,
                    "ch2": Y1 * S + MID,
                    "ch3": MID * S + X2,
                    "ch4": G2,
                    "ch5": Y2 * S + DST,
                    "valid": (
                        SRC != DST
                        if gs == gd
                        else np.ones(SRC.shape, dtype=bool)
                    ),
                    "encode": graph.encode_channel,  # type: ignore[dict-item]
                }
                include = _policy_mask(topo, policy, R)
                n_inc = (
                    int(R["valid"].sum())
                    if include is None
                    else int((R["valid"] & include).sum())
                )
                graph.num_paths += n_inc
                _emit_vlb_rows(graph, collected, R, include, scheme, 0)
                if include_par and gs != gd and scheme != "none":
                    # PAR revision: the same VLB candidates re-routed from
                    # a second source-group switch, one VC level up, plus
                    # the dependency from the pre-revision first hop
                    _emit_vlb_rows(graph, collected, R, include, scheme, 1)
                    sel = (
                        R["valid"]
                        if include is None
                        else (R["valid"] & include)
                    )
                    if sel.any():
                        # the revised first hop always sits one VC level up
                        # (level 1) in both schemes
                        first_ch = np.where(R["h0"], R["ch0"], R["ch1"])
                        combo = np.unique(
                            SRC[sel] * np.int64(graph.num_channel_ids)
                            + first_ch[sel]
                        )
                        u_src = combo // graph.num_channel_ids
                        u_fch = combo % graph.num_channel_ids
                        # every other switch s of the source group may be
                        # the original injection point: (s -> r)@0 is held
                        # while the revised first hop is awaited
                        group_sw = np.arange(gs * a, (gs + 1) * a, dtype=np.int64)
                        s_all = np.repeat(
                            group_sw[None, :], len(combo), axis=0
                        ).ravel()
                        r_all = np.repeat(u_src, a)
                        f_all = np.repeat(u_fch, a)
                        ok = s_all != r_all
                        pre = s_all * S + r_all
                        zeros = np.zeros(pre.shape, dtype=np.int64)
                        _emit(
                            graph, collected, ok, pre, zeros, f_all, zeros + 1
                        )
                # the triple's eight transitions (twice under PAR, plus
                # its revision block) dedup together
                _flush(graph, collected)


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
        for p in min_paths(topo, src, dst):
            graph.add_path(p, _vcs_for(p, scheme))
        # this pair can be the (revision switch, dst) of a PAR re-route
        # when some packet's first MIN hop lands on `src`: always possible
        # for inter-group traffic, and for intra-group traffic only on
        # topologies with multi-hop local routes (revision fires at hop 1)
        fragment_pair = topo.group_of(src) != topo.group_of(dst) or (
            topo.max_local_hops > 1
        )
        neighbors = topo.local_neighbors(src) if fragment_pair else []
        count = 0
        for desc in policy.iter_descriptors(topo, src, dst):
            if max_descriptors is not None and count >= max_descriptors:
                graph.exhaustive = False
                break
            count += 1
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
                graph.add_path(p, vcs)
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
    VLB dependencies every UGAL variant creates.  ``method`` is ``auto``
    (vectorized when the topology/policy allow it and the candidate space
    is tractable), ``fast``, or ``generic``; sampling caps only apply to
    the generic builder and clear the graph's ``exhaustive`` flag.
    """
    policy = policy if policy is not None else AllVlbPolicy()
    base = routing.lower()
    base = base[2:] if base.startswith("t-") else base
    include_par = base == "par"
    graph = ChannelDependencyGraph(topo, scheme)
    if method not in ("auto", "fast", "generic"):
        raise ValueError(f"unknown method {method!r}")
    use_fast = method == "fast"
    if method == "auto":
        use_fast = (
            topo.max_local_hops == 1
            and max_pairs is None
            and max_descriptors is None
            and _estimated_rows(topo) <= _FAST_ROW_LIMIT
        )
    if use_fast:
        if topo.max_local_hops != 1:
            raise ValueError(
                "the vectorized builder requires fully connected groups"
            )
        try:
            _build_fast(topo, policy, scheme, include_par, graph)
            return graph
        except _UnsupportedPolicy:
            if method == "fast":
                raise ValueError(
                    f"policy {policy.describe()!r} has no vectorized "
                    f"membership mask; use method='generic'"
                )
            graph = ChannelDependencyGraph(topo, scheme)
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
