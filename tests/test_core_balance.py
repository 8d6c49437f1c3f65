"""Tests for the load-balance analysis and adjustment (Step 2)."""

import numpy as np
import pytest

from repro.core.balance import (
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
)
from repro.routing.vlb import enumerate_vlb_descriptors
from repro.topology import Dragonfly


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(2, 4, 2, 3)


@pytest.fixture(scope="module")
def chidx(topo):
    return ChannelIndex(topo)


class TestUsageProbability:
    def test_probabilities_are_per_path_fractions(self, topo, chidx):
        probs = pair_usage_probability(topo, chidx, AllVlbPolicy(), 0, 8)
        assert np.all(probs >= 0)
        # sum over channels = average hops per path
        avg = AllVlbPolicy().average_hops(topo, 0, 8)
        assert probs.sum() == pytest.approx(avg)
        assert probs.max() <= 1.0

    def test_empty_policy_zero(self, topo, chidx):
        empty = ExplicitPathSet(paths={})
        probs = pair_usage_probability(topo, chidx, empty, 0, 8)
        assert probs.sum() == 0

    def test_global_is_mean_of_pairs(self, topo, chidx):
        pol = AllVlbPolicy()
        pairs = [(0, 8), (1, 9)]
        g = global_usage_probability(topo, chidx, pol, pairs)
        a = pair_usage_probability(topo, chidx, pol, 0, 8)
        b = pair_usage_probability(topo, chidx, pol, 1, 9)
        assert np.allclose(g, (a + b) / 2)


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

    def test_skewed_policy_gets_adjusted(self, topo):
        # Build a deliberately imbalanced explicit set: pair (0, 8) keeps
        # many copies of paths through one intermediate and one path
        # through others.
        descs = list(enumerate_vlb_descriptors(topo, 0, 8))
        mid0 = descs[0].mid
        skewed = [d for d in descs if d.mid == mid0] * 6 + descs[:1]
        policy = ExplicitPathSet(paths={(0, 8): skewed}, label="skewed")
        adjusted, report = balance_adjust(
            topo,
            policy,
            [(0, 8)],
            local_factor=1.3,
            min_remaining=1,
        )
        assert report.max_over_mean_local > 1.3
        if report.adjusted:
            assert isinstance(adjusted, ExcludingPolicy)

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


class TestNumpyPairsStaySerializable:
    """Algorithm 1 takes its balance pairs from ``np.nonzero``; the
    adjusted policy must not carry those NumPy integers into its spec
    (``compute_tvlb(balance=True)`` used to die in ``json.dumps``)."""

    def test_balance_adjust_casts_numpy_pairs(self):
        import json

        from repro.spec import PolicySpec
        from repro.traffic.patterns import Shift

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
        from repro.traffic.patterns import Shift

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
