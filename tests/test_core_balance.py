"""Tests for the load-balance analysis and adjustment (Step 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balance import (
    BalanceReport,
    balance_adjust,
    global_usage_probability,
    pair_usage_probability,
)
from repro.routing.channels import ChannelIndex
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    OrderedVlbPolicy,
    StrategicFiveHopPolicy,
    policy_program,
    program_mask,
)
from repro.routing.table import route_table
from repro.routing.vlb import enumerate_vlb_descriptors, vlb_path
from repro.topology import Dragonfly
from repro.traffic.patterns import Shift
from tests.test_model_fastpath import SHAPES, _DrawnSet, _EvenMids


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(2, 4, 2, 3)


# ---------------------------------------------------------------------------
# The per-path oracle: every candidate path built and its channels counted,
# one descriptor at a time, in the policy's own draw.


def _oracle_pair_usage(topo, chidx, policy, src, dst):
    usage = np.zeros(len(chidx))
    count = 0
    for desc in policy.iter_descriptors(topo, src, dst):
        for ch in vlb_path(topo, src, dst, desc).channels():
            usage[chidx.index(ch)] += 1.0
        count += 1
    if count:
        usage /= count
    return usage


def _oracle_global_usage(topo, chidx, policy, pairs):
    total = np.zeros(len(chidx))
    for src, dst in pairs:
        total += _oracle_pair_usage(topo, chidx, policy, src, dst)
    if len(pairs):
        total /= len(pairs)
    return total


def _oracle_hot(probs, factor):
    used = probs[probs > 0]
    if used.size == 0:
        return np.empty(0, dtype=int)
    return np.flatnonzero(probs > factor * used.mean())


def _oracle_balance_adjust(
    topo, policy, pairs, *, local_factor=3.0, global_factor=3.0,
    min_remaining=4,
):
    chidx = ChannelIndex(topo)
    report = BalanceReport()
    pairs = [(int(src), int(dst)) for src, dst in pairs]
    excluded = set()
    for src, dst in pairs:
        probs = _oracle_pair_usage(topo, chidx, policy, src, dst)
        used = probs[probs > 0]
        if used.size == 0:
            continue
        ratio = float(probs.max() / used.mean())
        report.max_over_mean_local = max(report.max_over_mean_local, ratio)
        hot = _oracle_hot(probs, local_factor)
        if hot.size == 0:
            continue
        hot_set = {chidx.channel(i) for i in hot}
        keep, drop = [], []
        for desc in policy.iter_descriptors(topo, src, dst):
            chans = set(vlb_path(topo, src, dst, desc).channels())
            (drop if chans & hot_set else keep).append(desc)
        if drop and len(keep) >= min_remaining:
            report.local_hot_pairs.append((src, dst))
            excluded.update((src, dst, d) for d in drop)

    adjusted = policy
    if excluded:
        report.removed_descriptors = len(excluded)
        adjusted = ExcludingPolicy(policy, excluded_descriptors=frozenset(excluded))

    gprobs = _oracle_global_usage(topo, chidx, adjusted, pairs)
    used = gprobs[gprobs > 0]
    if used.size:
        report.max_over_mean_global = float(gprobs.max() / used.mean())
    ghot = _oracle_hot(gprobs, global_factor)
    if ghot.size:
        channels = frozenset(chidx.channel(i) for i in ghot)
        candidate = ExcludingPolicy(
            policy,
            excluded_channels=channels,
            excluded_descriptors=frozenset(excluded),
        )
        starved = False
        for src, dst in pairs:
            remaining = sum(1 for _ in candidate.iter_descriptors(topo, src, dst))
            if remaining < min_remaining:
                starved = True
                break
        if not starved:
            report.global_hot_channels = sorted(
                channels, key=lambda ch: (ch.src, ch.dst, ch.slot)
            )
            adjusted = candidate
    return adjusted, report


class TestUsageProbability:
    def test_probabilities_are_per_path_fractions(self, topo):
        probs = pair_usage_probability(topo, AllVlbPolicy(), 0, 8)
        assert np.all(probs >= 0)
        # sum over channels = average hops per path
        avg = AllVlbPolicy().average_hops(topo, 0, 8)
        assert probs.sum() == pytest.approx(avg)
        assert probs.max() <= 1.0

    def test_empty_policy_zero(self, topo):
        empty = ExplicitPathSet(paths={})
        probs = pair_usage_probability(topo, empty, 0, 8)
        assert probs.sum() == 0

    def test_global_is_mean_of_pairs(self, topo):
        pol = AllVlbPolicy()
        pairs = [(0, 8), (1, 9)]
        g = global_usage_probability(topo, pol, pairs)
        a = pair_usage_probability(topo, pol, 0, 8)
        b = pair_usage_probability(topo, pol, 1, 9)
        assert np.allclose(g, (a + b) / 2)

    def test_listed_descriptors_count_with_multiplicity(self, topo):
        # an explicit set is drawn by index from its list: a descriptor
        # listed twice carries twice the usage
        desc, other = list(enumerate_vlb_descriptors(topo, 0, 8))[:2]
        twice = ExplicitPathSet(paths={(0, 8): [desc, desc, other]})
        probs = pair_usage_probability(topo, twice, 0, 8)
        chidx = ChannelIndex(topo)
        np.testing.assert_array_equal(
            probs, _oracle_pair_usage(topo, chidx, twice, 0, 8)
        )
        once = pair_usage_probability(
            topo, ExplicitPathSet(paths={(0, 8): [desc, other]}), 0, 8
        )
        assert not np.array_equal(probs, once)


class TestBalanceAdjust:
    def test_balanced_policy_untouched(self, topo):
        # the full VLB set is symmetric: no adjustment expected at sane
        # thresholds
        pairs = [(0, 8), (1, 9), (4, 0)]
        adjusted, report = balance_adjust(
            topo, AllVlbPolicy(), pairs, local_factor=5.0, global_factor=5.0
        )
        assert adjusted is not None
        assert not report.adjusted
        assert isinstance(adjusted, AllVlbPolicy)

    def test_skewed_policy_gets_adjusted(self):
        # Build a deliberately imbalanced explicit set: pair (0, 8) keeps
        # six copies of the paths through one intermediate and one of
        # every other path.  (On g=3 every path of the pair ends on one
        # of two channels, so no path avoids the hot set there; g=5
        # spreads the last hop.)
        topo = Dragonfly(2, 4, 2, 5)
        descs = list(enumerate_vlb_descriptors(topo, 0, 8))
        mid0 = descs[0].mid
        through = [d for d in descs if d.mid == mid0]
        others = [d for d in descs if d.mid != mid0]
        policy = ExplicitPathSet(
            paths={(0, 8): through * 6 + others}, label="skewed"
        )
        adjusted, report = balance_adjust(
            topo,
            policy,
            [(0, 8)],
            local_factor=2.0,
            min_remaining=1,
        )
        assert report.max_over_mean_local > 2.0
        assert report.adjusted
        assert report.local_hot_pairs == [(0, 8)]
        assert isinstance(adjusted, ExcludingPolicy)
        assert adjusted.base is policy
        # the skewed copies go, with the other paths over their hot
        # channels; the rest of the other paths stay
        kept = list(adjusted.iter_descriptors(topo, 0, 8))
        assert kept and set(kept) < set(others)
        assert report.removed_descriptors + len(kept) == len(descs)

    def test_min_remaining_guard(self, topo):
        # With a huge min_remaining nothing may be removed.
        pairs = [(0, 8)]
        adjusted, report = balance_adjust(
            topo,
            HopClassPolicy(3),
            pairs,
            local_factor=1.01,
            global_factor=1.01,
            min_remaining=10**6,
        )
        assert report.removed_descriptors == 0
        assert not report.global_hot_channels

    def test_report_fields(self, topo):
        _adj, report = balance_adjust(topo, AllVlbPolicy(), [(0, 8)])
        assert report.max_over_mean_local >= 1.0
        assert report.max_over_mean_global >= 1.0
        assert isinstance(report.adjusted, bool)

    def test_both_levels_give_one_flat_policy(self):
        """When the local and the global level both fire, the result is
        one ExcludingPolicy over the input policy: the local descriptor
        set is carried once, and membership is the nested form's."""
        topo = Dragonfly(3, 6, 3, 7)
        base = HopClassPolicy(5, 0.5)
        demand = Shift(topo, 1, 0).demand_matrix()
        pairs = [(int(s), int(d)) for s, d in zip(*np.nonzero(demand))][:6]
        adjusted, report = balance_adjust(topo, base, pairs)
        assert report.local_hot_pairs and report.global_hot_channels
        assert adjusted.base == base
        assert adjusted.describe().endswith("minus 1 channels / 581 paths")
        nested = ExcludingPolicy(
            ExcludingPolicy(
                base, excluded_descriptors=adjusted.excluded_descriptors
            ),
            excluded_channels=adjusted.excluded_channels,
            excluded_descriptors=adjusted.excluded_descriptors,
        )
        table = route_table(topo)
        flat_program = policy_program(adjusted, table)
        nested_program = policy_program(nested, table)
        for src, dst in pairs:
            args = (table, *table.vlb_candidates(src, dst)[1:6])
            flat = program_mask(flat_program, *args)
            assert 0 < flat.sum() < len(flat)
            np.testing.assert_array_equal(flat, program_mask(nested_program, *args))


# policies the balance step meets: Table-1 sets, an ordered set, sets
# finer than the classes, and one that only exists as Python
_POLICIES = st.one_of(
    st.just(AllVlbPolicy()),
    st.builds(
        HopClassPolicy,
        st.integers(min_value=2, max_value=9),
        st.sampled_from([0.0, 0.25, 0.5]),
    ),
    st.builds(StrategicFiveHopPolicy, st.sampled_from(["2+3", "3+2"])),
    st.builds(OrderedVlbPolicy, st.sampled_from([0.5, 1.0])),
    st.builds(
        _DrawnSet,
        st.sampled_from(["excluding", "explicit"]),
        st.integers(min_value=0, max_value=2**16),
    ),
    st.just(_EvenMids()),
)


class TestEqualsPerPathOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        arrangement=st.sampled_from(["absolute", "relative"]),
        policy=_POLICIES,
        drawn_pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=10**6),
            ),
            min_size=1,
            max_size=5,
        ),
        local_factor=st.sampled_from([1.2, 2.0, 3.0]),
        global_factor=st.sampled_from([1.2, 2.0, 3.0]),
        min_remaining=st.sampled_from([1, 4]),
    )
    def test_block_reads_equal_per_path_oracle(
        self, shape, arrangement, policy, drawn_pairs, local_factor,
        global_factor, min_remaining,
    ):
        topo = shape(arrangement)
        n = topo.num_switches
        pairs = []
        for src, hop in drawn_pairs:
            src %= n
            pairs.append((src, (src + 1 + hop % (n - 1)) % n))
        if isinstance(policy, _DrawnSet):
            policy = policy.build(topo, pairs)
        chidx = ChannelIndex(topo)
        for src, dst in pairs:
            np.testing.assert_array_equal(
                pair_usage_probability(topo, policy, src, dst),
                _oracle_pair_usage(topo, chidx, policy, src, dst),
            )
        np.testing.assert_array_equal(
            global_usage_probability(topo, policy, pairs),
            _oracle_global_usage(topo, chidx, policy, pairs),
        )
        factors = dict(
            local_factor=local_factor,
            global_factor=global_factor,
            min_remaining=min_remaining,
        )
        got = balance_adjust(topo, policy, pairs, **factors)
        want = _oracle_balance_adjust(topo, policy, pairs, **factors)
        assert got[0] == want[0]
        assert got[1] == want[1]


class TestNumpyPairsStaySerializable:
    """Algorithm 1 takes its balance pairs from ``np.nonzero``; the
    adjusted policy must not carry those NumPy integers into its spec
    (``compute_tvlb(balance=True)`` used to die in ``json.dumps``)."""

    def test_balance_adjust_casts_numpy_pairs(self):
        import json

        from repro.spec import PolicySpec

        topo = Dragonfly(3, 6, 3, 7)  # small shapes need no adjustment
        demand = Shift(topo, 1, 0).demand_matrix()
        pairs = list(zip(*np.nonzero(demand)))[:4]
        assert type(pairs[0][0]) is not int
        adjusted, report = balance_adjust(topo, HopClassPolicy(4, 0.25), pairs)
        assert isinstance(adjusted, ExcludingPolicy)
        assert report.removed_descriptors > 0
        for src, dst, _desc in adjusted.excluded_descriptors:
            assert type(src) is int and type(dst) is int
        json.dumps(PolicySpec.of(adjusted).to_dict())

    def test_compute_tvlb_default_balance_returns_a_fingerprintable_policy(
        self,
    ):
        from repro.core import compute_tvlb
        from repro.sim import SimParams
        from repro.spec import RunSpec

        topo = Dragonfly(2, 4, 2, 3)
        result = compute_tvlb(topo, sim_params=SimParams(window_cycles=20))
        spec = RunSpec.from_objects(
            topo,
            Shift(topo, 1, 0),
            0.1,
            routing="t-ugal-l",
            policy=result.policy,
            params=SimParams(window_cycles=20),
            seed=0,
        )
        assert len(spec.fingerprint()) == 64
