"""Path policies: which VLB paths a routing scheme is allowed to use.

The conventional UGAL uses :class:`AllVlbPolicy`.  T-UGAL (the paper's
contribution) uses a restricted policy computed per topology by
``repro.core.compute_tvlb`` -- typically a :class:`HopClassPolicy`
("all paths of <= L hops plus q% of the (L+1)-hop paths", Table 1 of the
paper), a :class:`StrategicFiveHopPolicy` (the deterministic "all 2-hop MIN
legs followed by 3-hop MIN legs" choice of Section 3.3.3), possibly wrapped
in an :class:`ExcludingPolicy` after load-balance adjustment.

Percentage subsets are *deterministic*: a path is included iff a stable
64-bit mix of (seed, src, dst, descriptor) falls below the quota.  The same
subset is therefore seen by the LP model, the balance analysis, and the
simulator without ever materializing the set, and membership is O(1).

Candidate sampling is O(1) rejection sampling over the uniform descriptor
distribution with a bounded number of attempts, falling back to reservoir
sampling over full enumeration for extremely sparse policies.  It consumes
randomness only through ``rng.integers(n)``, so the simulator may hand it
a :class:`~repro.sim.draws.DrawStream` in place of the generator.  The
reservoirs depend on the rng that filled them, so they live with the
caller that passes them in (a simulation run's routing algorithm), never
in the process.

The membership test is also available as *data*
(:meth:`PathPolicy.membership_program`, :func:`policy_program`): a few
integer rows evaluated against the topology's flattened route tables.
A program has two evaluators, both tested equal to ``contains`` -- which
stays the definition -- descriptor by descriptor: ``rc_contains`` in
``sim/array/kernel.c``, one descriptor at a time, so that sampling from
a built-in policy needs no Python per attempt, and :func:`program_mask`
here, whole candidate arrays at a time, for the static verifier
(:mod:`repro.verify.cdg`).
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.routing.paths import Channel
from repro.routing.table import RouteTable, VlbCandidates, route_table
from repro.routing.vlb import (
    VlbDescriptor,
    enumerate_vlb_descriptors,
    vlb_hops,
    vlb_path,
)
from repro.topology.dragonfly import Dragonfly

__all__ = [
    "PathPolicy",
    "AllVlbPolicy",
    "HopClassPolicy",
    "OrderedVlbPolicy",
    "StrategicFiveHopPolicy",
    "ExcludingPolicy",
    "ExplicitPathSet",
    "PolicyProgram",
    "candidate_weights",
    "policy_program",
    "program_mask",
    "reset_sample_memo",
]

_SAMPLE_ATTEMPTS = 128
# Sparse-policy fallback: when rejection sampling fails for a pair, one
# long burst (or, failing that, an enumeration) reservoir-samples this
# many descriptors, reused for every later draw of that (policy, pair)
# from the caller's reservoir store.
_SPARSE_RESERVOIR = 256
_SPARSE_MEMO_MAX = 20_000  # pairs; beyond this, reservoirs are not stored


def reset_sample_memo() -> None:
    """Does nothing: there is no process-wide sampling state to clear.

    Sparse-policy reservoirs live in the store a caller hands to
    :meth:`PathPolicy.sample` (a simulation run's routing algorithm owns
    one), and a call without a store keeps none, so sampling is a pure
    function of its arguments.  Kept because the benchmark's mirror
    driver (``bench/tracing.py``) still calls it.
    """


def _mix(seed: int, src: int, dst: int, desc: VlbDescriptor) -> int:
    """Stable splitmix64-style hash of a path identity into [0, 2**64)."""
    # plain Python ints: numpy scalars would overflow at 64-bit products
    src, dst = int(src), int(dst)
    x = (
        (seed & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15
        + src * 0xBF58476D1CE4E5B9
        + dst * 0x94D049BB133111EB
        + desc.mid * 0xD6E8FEB86659FD93
        + desc.slot1 * 0xA5A5A5A5A5A5A5A5
        + desc.slot2 * 0x0123456789ABCDEF
    ) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x


def _mix_rows(
    seed: int,
    src: np.ndarray,
    dst: np.ndarray,
    mid: np.ndarray,
    slot1: np.ndarray,
    slot2: np.ndarray,
) -> np.ndarray:
    """:func:`_mix` of whole descriptor arrays, as uint64 (whose wrapping
    arithmetic is the scalar version's ``& 0xFFF...F`` masking)."""
    u = np.uint64
    x = (
        src.astype(u) * u(0xBF58476D1CE4E5B9)
        + dst.astype(u) * u(0x94D049BB133111EB)
        + mid.astype(u) * u(0xD6E8FEB86659FD93)
        + slot1.astype(u) * u(0xA5A5A5A5A5A5A5A5)
        + slot2.astype(u) * u(0x0123456789ABCDEF)
        # folded in Python ints: a numpy scalar product would warn
        + u((seed & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15 % (1 << 64))
    )
    x ^= x >> u(30)
    x *= u(0xBF58476D1CE4E5B9)
    x ^= x >> u(27)
    x *= u(0x94D049BB133111EB)
    x ^= x >> u(31)
    return x


# membership-program opcodes (``PO_*`` in sim/array/kernel.c)
OP_HOP_CLASS = 1  # p0 full_hops, p1 quota of the next class, p2 seed
OP_STRATEGIC = 2  # p0 first-leg hops a 5-hop path must have
OP_ORDERED = 3  # p0 quota (-1: every ordered intermediate), p1 seed
OP_KEYS = 4  # p0 offset, p1 count into ``keys``, p2 required presence
OP_CHANNELS = 5  # p0 offset into ``mask``: no hop on a marked channel


@dataclass
class PolicyProgram:
    """A policy's membership test as table data.

    A descriptor is in the set iff every row of ``ops`` --
    ``(opcode, p0, p1, p2)``, see the ``OP_*`` constants -- accepts it.
    Rows refer to the topology's flattened tables
    (:meth:`~repro.routing.table.RouteTable.min_image` for leg hops and
    channels) and to two blobs carried here: ``keys``, sorted runs of
    :meth:`descriptor_key` values, and ``mask``, one byte per channel
    index.  A policy that samples by index instead of by rejection
    (:class:`ExplicitPathSet`) also carries its per-pair descriptor
    ``lists``: ``first[pair] .. first[pair + 1]`` rows of ``desc``.
    """

    ops: List[Tuple[int, int, int, int]] = field(default_factory=list)
    keys: List[int] = field(default_factory=list)
    mask: bytearray = field(default_factory=bytearray)
    lists: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @cached_property
    def key_array(self) -> np.ndarray:
        """``keys`` as an int64 array (taken once: a program is not
        changed after it is compiled)."""
        return np.array(self.keys, np.int64)

    @staticmethod
    def descriptor_key(
        table: RouteTable, src: int, dst: int, mid: int, slot1: int, slot2: int
    ) -> int:
        """``(src, dst, mid, slot1, slot2)`` as one sortable integer."""
        bound = table.slot_bound
        return (
            ((src * table.nsw + dst) * table.nsw + mid) * bound + slot1
        ) * bound + slot2


def program_mask(
    program: PolicyProgram,
    table: RouteTable,
    src: np.ndarray,
    dst: np.ndarray,
    mid: np.ndarray,
    slot1: np.ndarray,
    slot2: np.ndarray,
) -> np.ndarray:
    """``policy.contains`` of whole descriptor arrays, which must name
    paths: the numpy twin of ``rc_contains`` in sim/array/kernel.c,
    row for row."""
    slots = table.min_slots()
    nsw = table.nsw
    leg1 = slots.first[src * nsw + mid] + slot1
    leg2 = slots.first[mid * nsw + dst] + slot2
    head = slots.hops[leg1]
    hops = head + slots.hops[leg2]

    def in_quota(seed: int, quota: int) -> np.ndarray:
        mixed = _mix_rows(seed, src, dst, mid, slot1, slot2)
        return mixed % np.uint64(10_000) < np.uint64(quota)

    accepted = np.ones(len(src), bool)
    for op, p0, p1, p2 in program.ops:
        if op == OP_HOP_CLASS:
            row = hops <= p0
            if p1 > 0:
                row |= (hops == p0 + 1) & in_quota(p2, p1)
        elif op == OP_STRATEGIC:
            row = (hops <= 4) | ((hops == 5) & (head == p0))
        elif op == OP_ORDERED:
            row = (mid > src) & (mid > dst)
            if p0 >= 0:
                row &= in_quota(p1, p0)
        elif op == OP_KEYS:
            key = PolicyProgram.descriptor_key(
                table, src.astype(np.int64), dst, mid, slot1, slot2
            )
            run = program.key_array[p0 : p0 + p1]  # sorted
            at = np.searchsorted(run, key)
            inside = at < p1
            found = np.zeros(len(key), bool)
            found[inside] = run[at[inside]] == key[inside]
            row = found == bool(p2)
        elif op == OP_CHANNELS:
            marked = np.frombuffer(program.mask, np.uint8)[p0:]
            row = np.ones(len(src), bool)
            for leg in (leg1, leg2):
                for hop in range(int(slots.hops[leg].max(initial=0))):
                    on = np.flatnonzero(slots.hops[leg] > hop)
                    at = slots.chan[slots.rel[leg[on]] + hop]
                    row[on[marked[at] > 0]] = False
        else:
            raise ValueError(f"unknown membership opcode {op}")
        accepted &= row
    return accepted


def candidate_weights(
    policy: "PathPolicy", table: RouteTable, cand: VlbCandidates
) -> np.ndarray:
    """How often ``policy`` draws each row of ``cand`` (as float64): the
    one rule every reader of a candidate set weighs it by, and a row is
    *admitted* iff its weight is > 0.

    Under a membership program without per-pair lists that is
    :func:`program_mask` (1 or 0); otherwise the row's multiplicity in
    ``iter_descriptors`` -- :class:`ExplicitPathSet` draws by index from
    its lists, and a policy that exists only as Python has nothing else.
    """
    program = policy_program(policy, table)
    if program is not None and program.lists is None:
        if not program.ops:
            return np.ones(len(cand.pair))
        return program_mask(program, table, *cand[1:6]).astype(np.float64)
    # every pair's listed descriptors, keyed like the rows (a key is a
    # bijection on in-range values; out-of-range ones name no row)
    _, first = np.unique(cand.src * table.nsw + cand.dst, return_index=True)
    src, dst = cand.src[first].tolist(), cand.dst[first].tolist()
    listed = [list(policy.iter_descriptors(table.topo, *pair)) for pair in zip(src, dst)]
    lengths = [len(descs) for descs in listed]
    chain = itertools.chain.from_iterable
    mid, slot1, slot2 = np.fromiter(
        chain(chain(listed)), np.int64, 3 * sum(lengths)
    ).reshape(-1, 3).T
    bound = table.slot_bound
    valid = (0 <= mid) & (mid < table.nsw) & (0 <= np.minimum(slot1, slot2))
    valid &= np.maximum(slot1, slot2) < bound
    keys, counts = np.unique(
        PolicyProgram.descriptor_key(
            table, np.repeat(src, lengths)[valid], np.repeat(dst, lengths)[valid],
            mid[valid], slot1[valid], slot2[valid],
        ),
        return_counts=True,
    )
    rows = PolicyProgram.descriptor_key(table, *cand[1:6])
    at = np.minimum(np.searchsorted(keys, rows), len(keys) - 1)
    weight = np.zeros(len(rows))
    if len(keys):
        found = keys[at] == rows
        weight[found] = counts[at[found]]
    return weight


def _as_int64(seed: int) -> int:
    """``seed`` mod 2**64, as the signed value with those bits."""
    seed &= 0xFFFFFFFFFFFFFFFF
    return seed - (1 << 64) if seed >= 1 << 63 else seed


def _valid_descriptor(table: RouteTable, src: int, dst: int, desc) -> bool:
    """Does ``(src, dst, desc)`` name a path -- would ``table.vlb_legs``
    succeed, without leaning on negative indexing?"""
    try:
        mid, slot1, slot2 = (int(x) for x in desc)
        if not (0 <= src < table.nsw and 0 <= dst < table.nsw):
            return False
        if min(slot1, slot2) < 0:
            return False
        table.vlb_legs(src, dst, VlbDescriptor(mid, slot1, slot2))
    except (TypeError, ValueError, IndexError):
        return False
    return True


def policy_program(
    policy: "PathPolicy", table: RouteTable
) -> Optional[PolicyProgram]:
    """``policy``'s membership test compiled against ``table``, or
    ``None`` when it only exists as Python.

    A program is trusted only if the class that supplies
    ``membership_program`` is also the one whose ``contains`` /
    ``sample`` / ``iter_descriptors`` the policy actually runs: a
    subclass that overrides one of those without recompiling falls back
    to Python instead of being silently routed by its parent's test.
    A program is compiled once per table and policy value
    (:meth:`~repro.routing.table.RouteTable.fill`): equal policies share
    it.
    """
    cls = type(policy)
    owner = next(c for c in cls.__mro__ if "membership_program" in vars(c))
    for name in ("contains", "sample", "iter_descriptors"):
        if getattr(cls, name) is not getattr(owner, name):
            return None
    return table.fill(
        "program", policy, lambda: policy.membership_program(table)
    )


class PathPolicy(abc.ABC):
    """The set of candidate VLB paths available per switch pair."""

    @abc.abstractmethod
    def contains(
        self, topo: Dragonfly, src: int, dst: int, desc: VlbDescriptor
    ) -> bool:
        """Is this VLB path in the candidate set for (src, dst)?"""

    @abc.abstractmethod
    def describe(self) -> str:
        """Short human-readable label (used in benches and reports)."""

    def membership_program(self, table: RouteTable) -> Optional[PolicyProgram]:
        """:meth:`contains` as data for the routing kernel, or ``None``
        (the default) when this policy can only be asked in Python.

        Read through :func:`policy_program`, which also checks that the
        program still describes the class it is asked of.
        """
        return None

    # ------------------------------------------------------------------
    def iter_descriptors(
        self, topo: Dragonfly, src: int, dst: int
    ) -> Iterator[VlbDescriptor]:
        """All descriptors in the set for a pair (enumeration order)."""
        for desc in enumerate_vlb_descriptors(topo, src, dst):
            if self.contains(topo, src, dst, desc):
                yield desc

    def sample(
        self,
        topo: Dragonfly,
        src: int,
        dst: int,
        rng: np.random.Generator,
        reservoirs: Optional[dict] = None,
    ) -> Optional[VlbDescriptor]:
        """Draw one candidate VLB path uniformly from the set.

        Returns ``None`` when the pair has no VLB path at all (fewer than
        three groups) or the policy excludes every path for the pair.
        ``reservoirs`` is the caller's store of sparse-policy reservoirs,
        filled here by the first draw of a pair rejection sampling gives
        up on and reused by later ones; without it every such draw builds
        a reservoir of its own.
        """
        table = route_table(topo)
        row = table.vlb_row(table.group[src], table.group[dst])
        if row is None:
            return None
        mids, links_in, links_out = row
        draw = rng.integers

        def attempt() -> Optional[VlbDescriptor]:
            """One uniform descriptor draw; ``None`` when it is rejected."""
            gm = draw(len(mids))
            m1 = links_in[gm]
            m2 = links_out[gm]
            if m1 == 0 or m2 == 0:
                return None
            switches = mids[gm]
            desc = VlbDescriptor(
                switches[draw(len(switches))], int(draw(m1)), int(draw(m2))
            )
            return desc if self.contains(topo, src, dst, desc) else None

        for _ in range(_SAMPLE_ATTEMPTS):
            desc = attempt()
            if desc is not None:
                return desc
        # Sparse policy: build a reservoir for this pair, kept in the
        # caller's store for every later draw.  A long bounded rejection
        # burst is tried first (cheap); full enumeration only for truly
        # tiny/empty sets.
        key = (self, src, dst)
        memo = reservoirs if reservoirs is not None else {}
        reservoir = memo.get(key)
        if reservoir is None:
            reservoir = []
            for _ in range(64 * _SPARSE_RESERVOIR):
                desc = attempt()
                if desc is not None:
                    reservoir.append(desc)
                    if len(reservoir) >= _SPARSE_RESERVOIR:
                        break
            if not reservoir:
                # genuinely tiny or empty set: enumerate exactly once
                seen = 0
                for desc in self.iter_descriptors(topo, src, dst):
                    seen += 1
                    if len(reservoir) < _SPARSE_RESERVOIR:
                        reservoir.append(desc)
                    else:
                        j = int(rng.integers(seen))
                        if j < _SPARSE_RESERVOIR:
                            reservoir[j] = desc
            if len(memo) < _SPARSE_MEMO_MAX:
                memo[key] = reservoir
        if not reservoir:
            return None
        return reservoir[int(rng.integers(len(reservoir)))]

    def average_hops(self, topo: Dragonfly, src: int, dst: int) -> float:
        """Mean hop count over the set for a pair, each path weighted
        by how often the policy draws it (:func:`candidate_weights`)."""
        table = route_table(topo)
        cand = table.vlb_candidates(src, dst)
        weight = candidate_weights(self, table, cand)
        count = int(weight.sum())
        if count == 0:
            raise ValueError(f"policy has no VLB path for pair ({src},{dst})")
        hops = table.min_slots().hops
        return int(weight @ (hops[cand.leg1] + hops[cand.leg2])) / count


@dataclass(frozen=True)
class AllVlbPolicy(PathPolicy):
    """Every VLB path -- the conventional UGAL candidate set."""

    def contains(self, topo, src, dst, desc) -> bool:
        return True

    def membership_program(self, table) -> PolicyProgram:
        return PolicyProgram()  # no row: everything is accepted

    def describe(self) -> str:
        return "all VLB"


@dataclass(frozen=True)
class HopClassPolicy(PathPolicy):
    """All VLB paths of <= ``full_hops`` hops plus a deterministic
    ``extra_fraction`` of the ``full_hops + 1`` class (a Table-1 datapoint).

    ``full_hops=6`` (or 5 with fraction 1.0 etc.) degenerates to all VLB.
    ``full_hops=0`` with ``extra_fraction=0.0`` admits no VLB path at all:
    the MIN-only policy (the ``repro.adversary`` scoring objective).
    """

    full_hops: int
    extra_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        # fully connected groups top out at 6 hops; Cascade-style 2D
        # all-to-all groups at 10.  0 is the degenerate MIN-only policy;
        # 1 stays invalid (no VLB path has fewer than 2 hops)
        if self.full_hops != 0 and not 2 <= self.full_hops <= 12:
            raise ValueError("full_hops must be 0 (MIN only) or in 2..12")
        if not 0.0 <= self.extra_fraction <= 1.0:
            raise ValueError("extra_fraction must be in [0, 1]")

    def contains(self, topo, src, dst, desc) -> bool:
        hops = vlb_hops(topo, src, dst, desc)
        if hops <= self.full_hops:
            return True
        if hops == self.full_hops + 1 and self.extra_fraction > 0.0:
            quota = int(round(self.extra_fraction * 10_000))
            return _mix(self.seed, src, dst, desc) % 10_000 < quota
        return False

    def membership_program(self, table) -> PolicyProgram:
        quota = int(round(self.extra_fraction * 10_000))
        return PolicyProgram(
            ops=[(OP_HOP_CLASS, self.full_hops, quota, _as_int64(self.seed))]
        )

    def describe(self) -> str:
        if self.full_hops == 0 and self.extra_fraction == 0.0:
            return "MIN only"
        if self.full_hops >= 6 or (
            self.full_hops == 5 and self.extra_fraction >= 1.0
        ):
            return "all VLB"
        if self.extra_fraction == 0.0:
            return f"{self.full_hops}-hop"
        return (
            f"{int(round(self.extra_fraction * 100))}% "
            f"{self.full_hops + 1}-hop"
        )


@dataclass(frozen=True)
class OrderedVlbPolicy(PathPolicy):
    """VLB restricted to intermediate switches larger than both endpoints,
    plus an optional deterministic ``fraction`` of those intermediates.

    The restriction ``mid > max(src, dst)`` is the HOTI'25-style
    deadlock-freedom argument for direct topologies without local hops
    (e.g. :class:`~repro.topology.fullmesh.FullMesh`): every channel
    dependency then points from a channel *entering* ``mid`` to one
    *leaving* ``mid`` with ``mid`` above both far endpoints, so no two
    dependencies can chain and the single-VC channel dependency graph is
    acyclic.  On topologies with intra-group hops the argument does not
    apply -- there the usual VC ladders do the protecting.

    Pairs involving the largest switch have no admissible intermediate;
    the routing layer degrades those pairs to MIN-only (exactly the
    paper's behaviour for pairs whose restricted set is empty).
    """

    fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

    def contains(self, topo, src, dst, desc) -> bool:
        if desc.mid <= src or desc.mid <= dst:
            return False
        if self.fraction >= 1.0:
            return True
        quota = int(round(self.fraction * 10_000))
        return _mix(self.seed, src, dst, desc) % 10_000 < quota

    def membership_program(self, table) -> PolicyProgram:
        quota = -1 if self.fraction >= 1.0 else int(round(self.fraction * 10_000))
        return PolicyProgram(
            ops=[(OP_ORDERED, quota, _as_int64(self.seed), 0)]
        )

    def describe(self) -> str:
        if self.fraction >= 1.0:
            return "ordered VLB"
        return f"{int(round(self.fraction * 100))}% ordered VLB"


@dataclass(frozen=True)
class StrategicFiveHopPolicy(PathPolicy):
    """All VLB paths of <= 4 hops plus the 5-hop paths whose MIN legs have
    the given lengths -- the deterministic "strategic" choices of Section
    3.3.3 (half of the 5-hop class each).

    ``order='2+3'``: 2-hop first leg followed by 3-hop second leg;
    ``order='3+2'``: the opposite split.
    """

    order: str = "2+3"

    def __post_init__(self) -> None:
        if self.order not in ("2+3", "3+2"):
            raise ValueError("order must be '2+3' or '3+2'")

    def contains(self, topo, src, dst, desc) -> bool:
        first, second = route_table(topo).vlb_legs(src, dst, desc)
        hops = first.hops + second.hops
        if hops <= 4:
            return True
        if hops == 5:
            return first.hops == (2 if self.order == "2+3" else 3)
        return False

    def membership_program(self, table) -> PolicyProgram:
        return PolicyProgram(
            ops=[(OP_STRATEGIC, 2 if self.order == "2+3" else 3, 0, 0)]
        )

    def describe(self) -> str:
        return f"strategic 5-hop ({self.order})"


@dataclass(frozen=True)
class ExcludingPolicy(PathPolicy):
    """A base policy minus paths using any excluded channel or descriptor.

    This is what the load-balance adjustment of Algorithm 1 Step 2 produces:
    paths responsible for hot links are *removed* (the paper's "simple
    mechanism of just removing paths").

    ``excluded_channels`` removes paths globally; ``excluded_descriptors``
    removes specific (src, dst, descriptor) triples (local adjustment).
    """

    base: PathPolicy
    excluded_channels: FrozenSet[Channel] = frozenset()
    excluded_descriptors: FrozenSet[Tuple[int, int, VlbDescriptor]] = frozenset()

    def contains(self, topo, src, dst, desc) -> bool:
        if not self.base.contains(topo, src, dst, desc):
            return False
        if (src, dst, desc) in self.excluded_descriptors:
            return False
        if self.excluded_channels:
            path = vlb_path(topo, src, dst, desc)
            if any(ch in self.excluded_channels for ch in path.channels()):
                return False
        return True

    def membership_program(self, table) -> Optional[PolicyProgram]:
        base = policy_program(self.base, table)
        if base is None:
            return None
        program = PolicyProgram(
            list(base.ops), list(base.keys), bytearray(base.mask)
        )
        # descriptors that name no real path can never be sampled
        keys = sorted(
            PolicyProgram.descriptor_key(table, src, dst, *desc)
            for src, dst, desc in self.excluded_descriptors
            if _valid_descriptor(table, src, dst, desc)
        )
        if keys:
            program.ops.append((OP_KEYS, len(program.keys), len(keys), 0))
            program.keys += keys
        marked = [
            index
            for index in (
                table.channel_index(ch.src, ch.dst, ch.slot)
                for ch in self.excluded_channels
            )
            if index is not None
        ]
        if marked:
            mask = bytearray(len(table.channel_keys))
            for index in marked:
                mask[index] = 1
            program.ops.append((OP_CHANNELS, len(program.mask), 0, 0))
            program.mask += mask
        return program

    def describe(self) -> str:
        return (
            f"{self.base.describe()} minus {len(self.excluded_channels)} "
            f"channels / {len(self.excluded_descriptors)} paths"
        )


@dataclass(frozen=True)
class ExplicitPathSet(PathPolicy):
    """A fully materialized per-pair path set (small topologies / tests).

    Built either from another policy (``from_policy``) or directly from a
    mapping of pair -> descriptor sequence.  A value like every built-in
    policy: frozen, each pair's descriptors held as a tuple in listed
    order, repeats included (a descriptor listed twice is drawn twice as
    often), and hashed once per object -- so equal sets share their
    compiled program and their LP blocks.
    """

    paths: Mapping[Tuple[int, int], Sequence[VlbDescriptor]] = field(
        default_factory=dict
    )
    label: str = "explicit"

    def __post_init__(self) -> None:
        # an own dict of tuples: the caller's lists cannot change the value
        object.__setattr__(
            self, "paths", {pair: tuple(descs) for pair, descs in self.paths.items()}
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # repro: allow[DET105]: an in-process dict key, like every frozen
        # policy's generated __hash__; never persisted or compared across
        # processes (fingerprints come from repro.spec)
        return hash((frozenset(self.paths.items()), self.label))

    @cached_property
    def _members(self) -> Dict[Tuple[int, int], FrozenSet[VlbDescriptor]]:
        """Each pair's descriptors as a set, for :meth:`contains`."""
        return {pair: frozenset(descs) for pair, descs in self.paths.items()}

    @classmethod
    def from_policy(
        cls,
        topo: Dragonfly,
        policy: PathPolicy,
        pairs: Optional[List[Tuple[int, int]]] = None,
    ) -> "ExplicitPathSet":
        if pairs is None:
            pairs = [
                (s, d)
                for s in range(topo.num_switches)
                for d in range(topo.num_switches)
                if s != d
            ]
        table = {
            pair: tuple(policy.iter_descriptors(topo, *pair)) for pair in pairs
        }
        return cls(paths=table, label=f"explicit({policy.describe()})")

    def contains(self, topo, src, dst, desc) -> bool:
        return desc in self._members.get((src, dst), ())

    def iter_descriptors(self, topo, src, dst):
        return iter(self.paths.get((src, dst), ()))

    def sample(self, topo, src, dst, rng, reservoirs=None):
        options = self.paths.get((src, dst))
        if not options:
            return None
        return options[int(rng.integers(len(options)))]

    def membership_program(self, table) -> Optional[PolicyProgram]:
        """The lists themselves (sampling is by index) plus, for a
        wrapping policy that rejection-samples against :meth:`contains`,
        their sorted keys.  ``None`` if any listed descriptor names no
        path: the Python procedure then raises where it always did."""
        nsw = table.nsw
        first = np.zeros(nsw * nsw + 1, np.int64)
        rows: List[Tuple[int, int, int]] = []
        keys: List[int] = []
        pairs = sorted(
            (src * nsw + dst, src, dst)
            for src, dst in self.paths
            if 0 <= src < nsw and 0 <= dst < nsw and src != dst
        )
        for pair, src, dst in pairs:
            options = self.paths[(src, dst)]
            if not all(_valid_descriptor(table, src, dst, d) for d in options):
                return None
            first[pair + 1] = len(options)
            rows.extend((int(d[0]), int(d[1]), int(d[2])) for d in options)
            keys.extend(
                PolicyProgram.descriptor_key(table, src, dst, *d)
                for d in options
            )
        np.cumsum(first, out=first)
        keys.sort()
        return PolicyProgram(
            ops=[(OP_KEYS, 0, len(keys), 1)],
            keys=keys,
            lists=(first, np.array(rows, np.int32).reshape(len(rows), 3)),
        )

    def describe(self) -> str:
        return self.label
