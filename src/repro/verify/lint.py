"""Path-set linter: structural invariants a routed configuration must hold.

Each rule yields structured :class:`Finding` records -- rule id,
severity, location, message -- instead of raising, so one run reports
every violation at once; rules are registered in :data:`LINT_RULES` and
selected with the ``rules`` argument of :func:`lint_pathset`.

Lint reads the tables the simulator samples from and the CDG certifies,
and builds no path.  A sampled pair's MIN candidates are its rows of
:meth:`RouteTable.min_slots() <repro.routing.table.RouteTable.min_slots>`,
its VLB candidates the table's ``vlb_candidates`` rows (two MIN slots
back to back), which the policy *admits* when it draws them at all --
weight > 0 under :func:`~repro.routing.pathset.candidate_weights`, the
rule the LP, the balance step and the CDG read them by.  The *routed
slots* are the pairs' own MIN slots and both legs of every candidate.

* ``hop-validity`` (error): routed slots chain from their pair's source
  to its destination; every descriptor the policy lists names a candidate.
* ``slot-range`` (error): a global hop's slot indexes its group pair's
  links and that link joins the hop's switches; so do listed descriptors.
* ``min-minimality`` (error): a routed slot takes one global hop between
  groups, none inside one, and local runs as long as the intra-group
  distance (a BFS over the local channels).
* ``hop-class`` (error): an admitted candidate has ``[2, max_vlb_hops]``
  hops, two of them global, and ``contains`` admits exactly the admitted
  candidates -- the program's, or those ``iter_descriptors`` lists (as
  the LP model and simulator assume).
* ``vc-overflow`` (error): every MIN slot and admitted candidate -- and,
  under PAR, every revised fragment -- fits in the configured VC count,
  per ``table.ladders`` (:func:`~repro.sim.vc.assign_vcs` of its shape).
* ``balance`` (warning): the load-balance ratios of ``core/balance.py``
  stay under the adjustment factor (3.0) -- a hotter channel would have
  been removed by Algorithm 1's balance step.
* ``vlb-reachability`` (warning): no sampled pair with candidates is left
  without an admitted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.balance import global_usage_probability, pair_usage_probability
from repro.routing.paths import LOCAL_SLOT, Channel
from repro.routing.pathset import (
    AllVlbPolicy,
    PathPolicy,
    candidate_weights,
    policy_program,
)
from repro.routing.table import route_table, spans
from repro.routing.vlb import VlbDescriptor, max_vlb_hops
from repro.topology.dragonfly import Dragonfly

__all__ = ["Finding", "LINT_RULES", "lint_pathset"]

BALANCE_FACTOR = 3.0  # mirrors core.balance.balance_adjust defaults
# the pairs the global ratio averages over: the first 8 checked pairs
_BALANCE_MAX_PAIRS = 8
# candidates per pair the Python ``contains`` pass reads
_CONTAINS_ROWS = 200


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic."""

    rule: str
    severity: str  # "error" | "warning"
    location: str  # e.g. "pair (3->17)" or "pair (3->17) desc (mid=40,1,0)"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.rule} @ {self.location}: {self.message}"


def _loc(src: int, dst: int, desc: Optional[Sequence[int]] = None) -> str:
    base = f"pair ({src}->{dst})"
    if desc is None:
        return base
    mid, slot1, slot2 = desc
    return f"{base} desc (mid={mid},{slot1},{slot2})"


def _spread(group: np.ndarray, limit: int) -> np.ndarray:
    """``limit`` of a pair's candidate rows (``group``: their mid groups,
    ascending): every group's first row, the rest evenly spaced."""
    if len(group) <= limit:
        return np.arange(len(group))
    starts = np.flatnonzero(np.diff(group, prepend=-1))[:limit]
    rest = np.setdiff1d(np.arange(len(group)), starts)
    fill = np.linspace(0, len(rest) - 1, limit - len(starts)).astype(np.int64)
    return np.union1d(starts, rest[fill])


def _overflow(ladders: Dict[str, List[int]], shape: str) -> Optional[str]:
    """``assign_vcs``'s overflow message for ``shape``, if it has one."""
    try:
        ladders[shape]
    except ValueError as exc:
        return str(exc)
    return None


@dataclass
class _LintContext:
    """Shared sampled state handed to every rule."""

    topo: Dragonfly
    policy: PathPolicy
    scheme: str
    routing: str
    num_vcs: int
    pairs: List[Tuple[int, int]]

    def __post_init__(self) -> None:
        self.table = route_table(self.topo)
        self.slots = self.table.min_slots()
        self.group = self.table.vlb_image().switch_group
        # (src, dst, slot) per channel index
        self.keys = np.array(self.table.channel_keys, np.int64).reshape(-1, 3)
        self.src, self.dst = np.array(self.pairs, np.int64).reshape(-1, 2).T
        self.candidates = self.table.vlb_candidates(self.src, self.dst)
        # the pairs' own MIN slots, as (pair index, slot)
        at = self.src * self.table.nsw + self.dst
        k = self.slots.k[at]
        self.own_slots = np.repeat(np.arange(len(at)), k), spans(self.slots.first[at], k)
        self.program = policy_program(self.policy, self.table)
        self.weight = candidate_weights(self.policy, self.table, self.candidates)
        self.admitted = self.weight > 0

    def loc(self, row: int) -> str:
        """The location of candidate ``row``."""
        s, d, *desc = (int(column[row]) for column in self.candidates[1:6])
        return _loc(s, d, desc)

    @cached_property
    def routed(self) -> Tuple[np.ndarray, ...]:
        """Every routed slot once: the pair it routes (``src``, ``dst``)
        and its hops' channels (``chans``, valid where ``on``)."""
        (pair, own), c = self.own_slots, self.candidates
        ids, first = np.unique(np.concatenate([own, c.leg1, c.leg2]), return_index=True)
        hops = self.slots.hops[ids]
        on = np.arange(int(hops.max(initial=1))) < hops[:, None]
        at = np.where(on, self.slots.rel[ids][:, None] + np.arange(on.shape[1]), 0)
        src = np.concatenate([self.src[pair], c.src, c.mid])[first]
        dst = np.concatenate([self.dst[pair], c.mid, c.dst])[first]
        return src, dst, np.where(on, self.slots.chan[at], -1), on

    def misnamed(self, s: int, d: int, desc: VlbDescriptor) -> List[Finding]:
        """Why ``desc`` names no candidate of ``(s, d)`` (empty if it does)."""
        group, n, loc = self.table.group, self.table.nsw, _loc(s, d, desc)
        found = []
        if 0 <= desc.mid < n and group[desc.mid] not in (group[s], group[d]):
            for slot, a, b in ((desc.slot1, s, desc.mid), (desc.slot2, desc.mid, d)):
                links = self.slots.k[a * n + b]
                if not 0 <= slot < links:
                    found.append(Finding(
                        "slot-range", "error", loc, f"slot {slot} out of range for "
                        f"groups {group[a]}<->{group[b]} ({links} links)",
                    ))
            if not found:
                return found
        try:
            self.table.vlb_legs(s, d, desc)
        except ValueError as exc:
            found.append(Finding("hop-validity", "error", loc, str(exc)))
        except IndexError as exc:
            past = "descriptor slot indexes past the group pair's links"
            found.append(Finding(
                "slot-range", "error", loc, past if 0 <= desc.mid < n else str(exc)
            ))
        return found

    @cached_property
    def policy_findings(self) -> List[Finding]:
        """Every descriptor ``iter_descriptors`` lists names a candidate
        (the inherited one lists what ``contains`` admits, so it is not
        walked), and the admitted candidates -- the program's, or the
        listed ones -- are what ``contains`` admits."""
        policy, topo = self.policy, self.topo
        found: List[Finding] = []
        if type(policy).iter_descriptors is not PathPolicy.iter_descriptors:
            for s, d in self.pairs:
                for desc in policy.iter_descriptors(topo, s, d):
                    found += self.misnamed(s, d, VlbDescriptor(*desc))
        c = self.candidates
        starts = np.searchsorted(c.pair, np.arange(len(self.pairs) + 1))
        rows = np.concatenate([
            lo + _spread(self.group[c.mid[lo:hi]], _CONTAINS_ROWS)
            for lo, hi in zip(starts[:-1], starts[1:])
        ])
        said = np.array([
            policy.contains(topo, s, d, VlbDescriptor(*desc))
            for s, d, *desc in zip(*(column[rows].tolist() for column in c[1:6]))
        ], bool)
        for r in rows[said != self.admitted[rows]].tolist():
            admitted = bool(self.admitted[r])
            if self.program is None:
                message = (
                    "policy enumerates a descriptor its own contains() rejects"
                    if admitted
                    else "policy's contains() admits a descriptor it does not enumerate"
                )
            else:
                message = (
                    "the compiled membership program "
                    f"{'admits' if admitted else 'rejects'} a candidate contains() "
                    f"{'rejects' if admitted else 'admits'}"
                )
            found.append(Finding("hop-class", "error", self.loc(r), message))
        return found


def _rule_hop_validity(ctx: _LintContext) -> Iterator[Finding]:
    src, dst, chans, on = ctx.routed
    begin, end = ctx.keys[chans, 0], ctx.keys[chans, 1]
    # hop j leaves where hop j-1 arrived (hop 0: the source), and the
    # last hop arrives at the destination
    arrived = np.column_stack([src, end[:, :-1]])
    last = end[np.arange(len(end)), on.sum(axis=1) - 1]
    for i in np.flatnonzero((on & (begin != arrived)).any(axis=1) | (last != dst)):
        walk = "->".join(map(str, [begin[i, 0], *end[i, on[i]]]))
        yield Finding("hop-validity", "error", _loc(src[i], dst[i]), "runs " + walk)
    yield from (f for f in ctx.policy_findings if f.rule == "hop-validity")


def _rule_slot_range(ctx: _LintContext) -> Iterator[Finding]:
    src, dst, chans, on = ctx.routed
    used, group = np.unique(chans[on]), ctx.table.group
    wrong: Dict[int, str] = {}
    for index in used[ctx.keys[used, 2] != LOCAL_SLOT].tolist():
        ch = Channel(*ctx.keys[index].tolist())
        links = ctx.topo.links_between_groups(group[ch.src], group[ch.dst])
        if not 0 <= ch.slot < len(links):
            wrong[index] = f"{ch}: slot outside the {len(links)}-link table"
        elif {links[ch.slot].switch_a, links[ch.slot].switch_b} != {ch.src, ch.dst}:
            wrong[index] = f"{ch}: slot {ch.slot} joins different switches"
    for i, hop in zip(*np.nonzero(on & np.isin(chans, list(wrong)))):
        message = wrong[int(chans[i, hop])]
        yield Finding("slot-range", "error", _loc(src[i], dst[i]), message)
    yield from (f for f in ctx.policy_findings if f.rule == "slot-range")


def _local_distance(ctx: _LintContext, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Intra-group hop distance from switches ``x`` to ``y`` (``-1``: no
    local route), by a BFS of every group at once over local channels."""
    members = ctx.table.vlb_image().switches.astype(np.int64)
    g, a = members.shape
    position, group = np.zeros(ctx.table.nsw, np.int64), ctx.group
    position[members] = np.arange(a)
    u, v, slot = ctx.keys.T
    local = (slot == LOCAL_SLOT) & (group[u] == group[v])
    step = np.zeros((g, a, a), np.int64)
    step[group[u[local]], position[u[local]], position[v[local]]] = 1
    reached = np.broadcast_to(np.eye(a, dtype=bool), (g, a, a)).copy()
    dist = np.where(reached, 0, -1)
    for hops in range(1, a):
        frontier = ((reached.astype(np.int64) @ step) > 0) & ~reached
        dist[frontier] = hops
        reached |= frontier
    return np.where(group[x] == group[y], dist[group[x], position[x], position[y]], -1)


def _rule_min_minimality(ctx: _LintContext) -> Iterator[Finding]:
    # A dragonfly MIN path is one canonical route *per direct global link*
    # (not the graph-wide shortest): it takes exactly one global hop
    # between distinct groups (none within a group), and the local runs
    # around it are shortest routes of the intra-group subgraph.
    src, dst, chans, on = ctx.routed
    crossing = on & (ctx.keys[chans, 2] != LOCAL_SLOT)
    taken = crossing.sum(axis=1)
    expected = (ctx.group[src] != ctx.group[dst]).astype(np.int64)
    for i in np.flatnonzero(taken != expected):
        yield Finding(
            "min-minimality", "error", _loc(src[i], dst[i]),
            f"MIN path takes {taken[i]} global hops, expected {expected[i]}",
        )
    # every slot's local runs before and after its global hop (inside a
    # group: the whole path, then an empty run), all heads then all tails
    hops = on.sum(axis=1)
    cross = np.where(taken > 0, crossing.argmax(axis=1), hops)
    link = chans[np.arange(len(chans)), np.minimum(cross, hops - 1)]
    near, far = (np.where(taken > 0, ctx.keys[link, end], dst) for end in (0, 1))
    u, v = np.concatenate([src, far]), np.concatenate([near, dst])
    length = np.concatenate([cross, np.maximum(hops - cross - 1, 0)])
    dist = _local_distance(ctx, u, v)
    for i in np.flatnonzero((dist != length) & np.tile(taken <= 1, 2)):
        s, d = src[i % len(src)], dst[i % len(src)]
        yield Finding(
            "min-minimality", "error", _loc(s, d),
            f"local segment {u[i]}->{v[i]} takes {length[i]} hops, intra-group "
            f"distance is {dist[i] if dist[i] >= 0 else 'none (disconnected)'}",
        )


def _rule_hop_class(ctx: _LintContext) -> Iterator[Finding]:
    c, slots, cap = ctx.candidates, ctx.slots, max_vlb_hops(ctx.topo)
    globals_of = np.array([shape.count("g") for shape in slots.shapes])
    rows = np.flatnonzero(ctx.admitted)
    legs = c.leg1[rows], c.leg2[rows]
    hops = sum(slots.hops[leg] for leg in legs)
    taken = sum(globals_of[slots.shape[leg]] for leg in legs)
    odd = (hops < 2) | (hops > cap) | (taken != 2)
    for r, n, g in zip(rows[odd], hops[odd], taken[odd]):
        yield Finding(
            "hop-class", "error", ctx.loc(r), f"VLB path has {n} hops, {g} of them "
            f"global; a VLB path has [2, {cap}] hops, exactly 2 of them global",
        )
    yield from (f for f in ctx.policy_findings if f.rule == "hop-class")


def _rule_vc_overflow(ctx: _LintContext) -> Iterator[Finding]:
    if ctx.scheme == "none":
        return
    shapes, shape = ctx.slots.shapes, ctx.slots.shape
    plain = ctx.table.ladders(ctx.scheme, ctx.num_vcs)
    pair, own = ctx.own_slots
    for p, name in zip(pair.tolist(), shape[own].tolist()):
        message = _overflow(plain, shapes[name])
        if message:
            yield Finding("vc-overflow", "error", _loc(*ctx.pairs[p]), message)
    c, rows = ctx.candidates, np.flatnonzero(ctx.admitted)
    combo = shape[c.leg1[rows]] * len(shapes) + shape[c.leg2[rows]]
    checks = [(plain, "", np.ones(len(rows), bool))]
    if ctx.routing == "par":
        # a PAR re-route's (revision switch, dst) pair: always between
        # groups, inside one only where local routes have a second hop
        revised = ctx.table.ladders(ctx.scheme, ctx.num_vcs, revised=True, hop_offset=1)
        fragment = ctx.group[c.src[rows]] != ctx.group[c.dst[rows]]
        fragment |= ctx.topo.max_local_hops > 1
        checks.append((revised, "PAR-revised fragment: ", fragment))
    for ladder, prefix, applies in checks:
        for code in np.unique(combo[applies]).tolist():
            head, tail = divmod(code, len(shapes))
            message = _overflow(ladder, shapes[head] + shapes[tail])
            for r in rows[applies & (combo == code)] if message else ():
                yield Finding("vc-overflow", "error", ctx.loc(r), prefix + message)


def _rule_balance(ctx: _LintContext) -> Iterator[Finding]:
    topo, policy, keys = ctx.topo, ctx.policy, ctx.table.channel_keys
    checked = ctx.pairs[:_BALANCE_MAX_PAIRS]
    usage = [
        (
            _loc(s, d), "the pair's",
            pair_usage_probability(topo, policy, s, d),
        )
        for s, d in checked
    ]
    usage.append((
        f"{len(checked)} sampled pairs", "the global",
        global_usage_probability(topo, policy, checked),
    ))
    for loc, scope, probs in usage:
        used = probs[probs > 0]
        ratio = float(probs.max() / used.mean()) if used.size else 0.0
        if ratio > BALANCE_FACTOR:
            hot = Channel(*keys[int(probs.argmax())])
            yield Finding(
                "balance", "warning", loc, f"channel {hot} is {ratio:.1f}x "
                f"{scope} mean usage (adjustment factor {BALANCE_FACTOR})",
            )


def _rule_vlb_reachability(ctx: _LintContext) -> Iterator[Finding]:
    offered = np.bincount(ctx.candidates.pair, minlength=len(ctx.pairs))
    kept = np.bincount(ctx.candidates.pair[ctx.admitted], minlength=len(ctx.pairs))
    for p in np.flatnonzero((offered > 0) & (kept == 0)):
        yield Finding(
            "vlb-reachability", "warning", _loc(*ctx.pairs[p]),
            "policy leaves this pair without any VLB candidate "
            "(UGAL degenerates to MIN here)",
        )


LINT_RULES: Dict[str, Callable[[_LintContext], Iterator[Finding]]] = {
    "hop-validity": _rule_hop_validity,
    "slot-range": _rule_slot_range,
    "min-minimality": _rule_min_minimality,
    "hop-class": _rule_hop_class,
    "vc-overflow": _rule_vc_overflow,
    "balance": _rule_balance,
    "vlb-reachability": _rule_vlb_reachability,
}


def _sample_pairs(
    topo: Dragonfly, max_pairs: Optional[int], seed: int
) -> List[Tuple[int, int]]:
    n = topo.num_switches
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    if max_pairs is None or max_pairs >= len(pairs):
        return pairs
    idx = np.random.default_rng(seed).choice(len(pairs), max_pairs, replace=False)
    return [pairs[i] for i in sorted(idx)]


def lint_pathset(
    topo: Dragonfly,
    policy: Optional[PathPolicy] = None,
    *,
    scheme: str = "won",
    routing: str = "par",
    num_vcs: int = 8,
    rules: Optional[Sequence[str]] = None,
    max_pairs: Optional[int] = 40,
    seed: int = 0,
) -> List[Finding]:
    """Run the (selected) lint rules over a sampled set of switch pairs.

    ``rules`` selects a subset of :data:`LINT_RULES` (default: all);
    unknown names raise ``ValueError``.  ``max_pairs`` bounds the sample
    (``None``: every pair); a sampled pair is linted over all of its
    candidates.  Findings come back sorted with errors first.
    """
    if max_pairs is not None and max_pairs < 1:
        raise ValueError(f"max_pairs must be None or >= 1, got {max_pairs}")
    selected = list(LINT_RULES) if rules is None else list(rules)
    unknown = [r for r in selected if r not in LINT_RULES]
    if unknown:
        raise ValueError(
            f"unknown lint rule(s) {unknown}; available: {sorted(LINT_RULES)}"
        )
    policy = policy if policy is not None else AllVlbPolicy()
    pairs = _sample_pairs(topo, max_pairs, seed)
    base = routing.lower().removeprefix("t-")
    ctx = _LintContext(topo, policy, scheme, base, num_vcs, pairs)
    findings = [f for name in selected for f in LINT_RULES[name](ctx)]
    findings.sort(key=lambda f: (f.severity != "error", f.rule, f.location))
    return findings
