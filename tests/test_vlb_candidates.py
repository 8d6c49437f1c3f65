"""The route table's VLB-candidate reader and the weighting rule every
reader of a policy's set shares, held to the per-descriptor reference.

``RouteTable.vlb_candidates`` must list exactly what
``enumerate_vlb_descriptors`` yields, in its order; ``candidate_weights``
must be ``contains`` for a compiled policy and the ``iter_descriptors``
multiplicity otherwise; and the path-length statistics read through
both must equal the per-descriptor loops kept here as their oracle.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import _mean_vlb_hops
from repro.routing.analysis import vlb_length_distribution
from repro.routing.paths import Channel
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    OrderedVlbPolicy,
    PathPolicy,
    StrategicFiveHopPolicy,
    candidate_weights,
    policy_program,
)
from repro.routing.table import route_table
from repro.routing.vlb import (
    VlbDescriptor,
    enumerate_vlb_descriptors,
    vlb_class_counts,
    vlb_hops,
)
from repro.topology import CascadeDragonfly, Dragonfly, FullMesh

SHAPES = [
    lambda arr: Dragonfly(1, 2, 1, 3, arrangement=arr),
    lambda arr: Dragonfly(2, 3, 2, 4, arrangement=arr),
    lambda arr: Dragonfly(2, 4, 2, 5, arrangement=arr),
    lambda arr: CascadeDragonfly(1, 4, 1, 3, rows=2, cols=2, arrangement=arr),
    lambda arr: CascadeDragonfly(2, 6, 1, 4, rows=3, cols=2, arrangement=arr),
    lambda arr: FullMesh(6, p=1, arrangement=arr),
    lambda arr: FullMesh(4, p=2, arrangement=arr),
]
ARRANGEMENTS = ["absolute", "relative", "circulant"]


@dataclass(frozen=True)
class _PythonOnly(PathPolicy):
    """Exists only as Python: no membership program."""

    def contains(self, topo, src, dst, desc):
        return (desc.mid + desc.slot1) % 3 != 0

    def describe(self):
        return "python only"


@dataclass(frozen=True)
class _Repeating(_PythonOnly):
    """Lists every descriptor of an even intermediate twice."""

    def iter_descriptors(self, topo, src, dst):
        for desc in super().iter_descriptors(topo, src, dst):
            yield desc
            if desc.mid % 2 == 0:
                yield desc


def _built_ins(topo, src, dst):
    """Every compiled policy kind, an exclusion drawn on this topology."""
    first = next(enumerate_vlb_descriptors(topo, src, dst), None)
    link = topo.links_between_groups(0, 1)[0]
    excluding = ExcludingPolicy(
        HopClassPolicy(5, 0.5, seed=3),
        excluded_channels=frozenset(
            {Channel(link.endpoint_in(0), link.endpoint_in(1), link.slot)}
        ),
        excluded_descriptors=frozenset(
            {(src, dst, first)} if first is not None else ()
        ),
    )
    return [
        AllVlbPolicy(),
        HopClassPolicy(0),
        HopClassPolicy(3, 0.4, seed=-2),
        HopClassPolicy(4),
        StrategicFiveHopPolicy("2+3"),
        StrategicFiveHopPolicy("3+2"),
        OrderedVlbPolicy(),
        OrderedVlbPolicy(0.5, seed=2**63 + 1),
        excluding,
    ]


def _listed_twice(topo, src, dst):
    """An explicit set of three descriptors, the first of them twice."""
    descs = list(enumerate_vlb_descriptors(topo, src, dst))[:3]
    return ExplicitPathSet({(src, dst): descs + descs[:1]})


# ---------------------------------------------------------------------------
# The per-descriptor loops the array readers replaced: the oracle
# ---------------------------------------------------------------------------
def _average_hops(topo, policy, src, dst):
    total = count = 0
    for desc in policy.iter_descriptors(topo, src, dst):
        total += vlb_hops(topo, src, dst, desc)
        count += 1
    if count == 0:
        raise ValueError("no VLB path")
    return total / count


def _length_distribution(topo, policy, pairs):
    histogram, total, count = {}, 0, 0
    for src, dst in pairs:
        for desc in policy.iter_descriptors(topo, src, dst):
            h = vlb_hops(topo, src, dst, desc)
            histogram[h] = histogram.get(h, 0) + 1
            total += h
            count += 1
    return histogram, (total / count if count else None), count


def _class_counts(topo, src, dst):
    counts = {}
    for desc in enumerate_vlb_descriptors(topo, src, dst):
        h = vlb_hops(topo, src, dst, desc)
        counts[h] = counts.get(h, 0) + 1
    return counts


def _mean_hops(topo, policy, pairs):
    values = []
    for src, dst in pairs:
        try:
            values.append(_average_hops(topo, policy, src, dst))
        except ValueError:
            continue
    return float(np.mean(values)) if values else float("inf")


@st.composite
def _case(draw):
    topo = draw(st.sampled_from(SHAPES))(draw(st.sampled_from(ARRANGEMENTS)))
    n = topo.num_switches
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
                lambda t: (t[0], (t[0] + t[1]) % n)
            ),
            min_size=1,
            max_size=3,
        )
    )
    return topo, pairs


def _rows(cand, i):
    at = cand.pair == i
    return list(zip(*(c[at].tolist() for c in (cand.mid, cand.slot1, cand.slot2))))


@settings(max_examples=40, deadline=None)
@given(case=_case())
def test_rows_are_the_reference_enumeration_in_order(case):
    topo, pairs = case
    table = route_table(topo)
    slots, n = table.min_slots(), table.nsw
    src, dst = np.array(pairs).T
    cand = table.vlb_candidates(src, dst)
    assert np.all(np.diff(cand.pair) >= 0)  # pair-major
    for i, (s, d) in enumerate(pairs):
        assert _rows(cand, i) == [tuple(x) for x in enumerate_vlb_descriptors(topo, s, d)]
    np.testing.assert_array_equal(cand.src, src[cand.pair])
    np.testing.assert_array_equal(cand.dst, dst[cand.pair])
    np.testing.assert_array_equal(
        cand.leg1, slots.first[cand.src * n + cand.mid] + cand.slot1
    )
    np.testing.assert_array_equal(
        cand.leg2, slots.first[cand.mid * n + cand.dst] + cand.slot2
    )
    one = table.vlb_candidates(*pairs[0])
    assert _rows(one, 0) == _rows(cand, 0)


@settings(max_examples=40, deadline=None)
@given(case=_case())
def test_weights_follow_contains_or_the_listing(case):
    topo, pairs = case
    table = route_table(topo)
    src, dst = np.array(pairs).T
    cand = table.vlb_candidates(src, dst)
    rows = list(zip(*(c.tolist() for c in cand[1:6])))
    s, d = pairs[0]
    for policy in _built_ins(topo, s, d):
        assert policy_program(policy, table) is not None
        want = [
            float(policy.contains(topo, row[0], row[1], VlbDescriptor(*row[2:])))
            for row in rows
        ]
        np.testing.assert_array_equal(
            candidate_weights(policy, table, cand), want, err_msg=policy.describe()
        )
    for policy in (_listed_twice(topo, s, d), _PythonOnly(), _Repeating()):
        listed = {
            pair: Counter(map(tuple, policy.iter_descriptors(topo, *pair)))
            for pair in pairs
        }
        want = [float(listed[row[:2]][row[2:]]) for row in rows]
        np.testing.assert_array_equal(
            candidate_weights(policy, table, cand), want, err_msg=policy.describe()
        )


@settings(max_examples=30, deadline=None)
@given(case=_case(), which=st.integers(0, 11))
def test_length_statistics_equal_the_per_descriptor_loops(case, which):
    topo, pairs = case
    s, d = pairs[0]
    policy = (
        _built_ins(topo, s, d) + [_listed_twice(topo, s, d), _PythonOnly(), _Repeating()]
    )[which]
    for src, dst in pairs:
        assert vlb_class_counts(topo, src, dst) == _class_counts(topo, src, dst)
        try:
            want = _average_hops(topo, policy, src, dst)
        except ValueError:
            with pytest.raises(ValueError):
                policy.average_hops(topo, src, dst)
        else:
            assert policy.average_hops(topo, src, dst) == want
    stats = vlb_length_distribution(topo, policy, pairs)
    histogram, mean, count = _length_distribution(topo, policy, pairs)
    assert stats.histogram == histogram and stats.count == count
    assert stats.mean == mean if count else np.isnan(stats.mean)
    assert _mean_vlb_hops(topo, policy, pairs) == _mean_hops(topo, policy, pairs)
