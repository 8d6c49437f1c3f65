"""Tests for the LP throughput model.

``TestModelBasics`` runs through the ``lp_solve`` fixture: once on the
production ``FastModel`` pipeline and once (``[reference]``) on the
reference assembly.
"""

import numpy as np
import pytest

from repro.model import PathStatsCache
from repro.model.lp_model import weights_for_policy
from repro.routing.pathset import (
    AllVlbPolicy,
    HopClassPolicy,
    StrategicFiveHopPolicy,
)
from repro.topology import Dragonfly
from repro.traffic import Shift, UniformRandom


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(4, 8, 4, 9)


@pytest.fixture(scope="module")
def cache(topo):
    return PathStatsCache(topo)


@pytest.fixture(scope="module")
def adv_demand(topo):
    return Shift(topo, 2, 0).demand_matrix()


class TestModelBasics:
    def test_all_vlb_matches_analytic_bound(self, topo, lp_solve, adv_demand):
        # For shift traffic on dfly(4,8,4,9) flow conservation gives
        # r <= 9/16: direct channels carry only MIN (r*f <= 1/8) and global
        # channel budget gives r*(2-f) <= 1; the optimum is r = 0.5625.
        res = lp_solve(topo, adv_demand, policy=AllVlbPolicy())
        assert res.throughput == pytest.approx(9 / 16, rel=1e-3)
        assert res.min_fraction == pytest.approx(2 / 9, rel=1e-2)

    def test_min_only_bound(self, topo, lp_solve, adv_demand):
        # weight_fn 0 everywhere: no VLB allowed -> direct links only.
        res = lp_solve(topo, adv_demand, weight_fn=lambda l1, l2: 0.0)
        # 32 packets/cycle demand per group pair over 4 direct links
        assert res.throughput == pytest.approx(4 / 32, rel=1e-3)
        assert res.min_fraction == pytest.approx(1.0)

    def test_restricting_classes_reduces_capacity(
        self, topo, lp_solve, adv_demand
    ):
        thr = [
            lp_solve(
                topo, adv_demand, policy=HopClassPolicy(h), mode="free"
            ).throughput
            for h in (3, 4, 5, 6)
        ]
        assert thr == sorted(thr)
        assert thr[-1] == pytest.approx(9 / 16, rel=1e-3)

    def test_uniform_mode_never_beats_free(self, topo, lp_solve, adv_demand):
        for pol in (HopClassPolicy(4), HopClassPolicy(5), AllVlbPolicy()):
            uni = lp_solve(
                topo, adv_demand, policy=pol, mode="uniform"
            ).throughput
            free = lp_solve(
                topo, adv_demand, policy=pol, mode="free"
            ).throughput
            assert uni <= free + 1e-9

    def test_monotonic_constraint_reduces_partial_class_estimate(
        self, topo, lp_solve, adv_demand
    ):
        # The paper's motivation for the fix: with a small share of 5-hop
        # paths the unconstrained model overestimates.
        pol = HopClassPolicy(4, 0.3)
        with_fix = lp_solve(
            topo, adv_demand, policy=pol, mode="free"
        ).throughput
        without = lp_solve(
            topo, adv_demand, policy=pol, mode="free", monotonic=False
        ).throughput
        assert with_fix < without

    def test_uniform_traffic_high_throughput(self, topo, lp_solve):
        demand = UniformRandom(topo).demand_matrix()
        res = lp_solve(topo, demand, policy=AllVlbPolicy())
        # UR is MIN-friendly: saturation near 1 packet/cycle/node
        assert res.throughput > 0.8
        assert res.min_fraction > 0.8

    def test_empty_demand_trivial(self, topo, lp_solve):
        res = lp_solve(topo, np.zeros((topo.num_switches,) * 2))
        assert res.status == "trivial"
        assert res.throughput == 1.0

    def test_mode_validation(self, topo, lp_solve, adv_demand):
        with pytest.raises(ValueError, match="unknown mode"):
            lp_solve(topo, adv_demand, mode="magic")


class TestWeightTranslation:
    def test_all_vlb(self):
        w = weights_for_policy(AllVlbPolicy())
        assert w(1, 1) == w(3, 3) == 1.0

    def test_hop_class(self):
        w = weights_for_policy(HopClassPolicy(4, 0.6))
        assert w(1, 3) == 1.0  # 4 hops
        assert w(2, 3) == 0.6  # 5 hops
        assert w(3, 3) == 0.0  # 6 hops

    def test_strategic(self):
        w = weights_for_policy(StrategicFiveHopPolicy("2+3"))
        assert w(2, 2) == 1.0
        assert w(2, 3) == 1.0
        assert w(3, 2) == 0.0
        assert w(3, 3) == 0.0

    def test_unsupported_policy_raises(self):
        class Weird:
            pass

        with pytest.raises(TypeError):
            weights_for_policy(Weird())


class TestPathStats:
    def test_class_sizes_match_enumeration(self, topo, cache):
        from repro.routing import vlb_class_counts

        stats = cache.get(0, 17)
        by_hops = {}
        for (l1, l2), cs in stats.classes.items():
            by_hops[l1 + l2] = by_hops.get(l1 + l2, 0) + cs.count
        assert by_hops == vlb_class_counts(topo, 0, 17)

    def test_min_usage_normalized(self, topo, cache):
        stats = cache.get(0, 17)
        # each MIN path has 3 hops here, usage sums to 3 per packet
        assert sum(stats.min_usage.values()) == pytest.approx(3.0)

    def test_subsampling_scales_counts(self, topo):
        full = PathStatsCache(topo).get(0, 17)
        sub = PathStatsCache(topo, max_descriptors=100).get(0, 17)
        n_full = sum(cs.count for cs in full.classes.values())
        n_sub = sum(cs.count for cs in sub.classes.values())
        assert n_sub == pytest.approx(n_full, rel=0.2)

    def test_weighted_usage_normalization(self, topo, cache):
        stats = cache.get(0, 17)
        total, usage = stats.weighted_vlb_usage(lambda l1, l2: 1.0)
        # per VLB packet: average hops = sum of per-channel usage
        from repro.routing.pathset import AllVlbPolicy

        avg = AllVlbPolicy().average_hops(topo, 0, 17)
        assert sum(usage.values()) == pytest.approx(avg)

    def test_empty_weighting(self, topo, cache):
        stats = cache.get(0, 17)
        total, usage = stats.weighted_vlb_usage(lambda l1, l2: 0.0)
        assert total == 0.0 and usage == {}
