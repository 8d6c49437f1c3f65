"""Tests for the closed-form capacity bounds, cross-validated against the
LP model (the LP should achieve the analytic bound exactly for symmetric
shift demand) -- on the production pipeline and, ``[reference]``, on the
reference assembly (the ``lp_solve`` fixture)."""

import pytest

from repro.model import FastModel
from repro.model.bounds import (
    min_only_shift_bound,
    optimal_min_fraction,
    shift_saturation_bound,
    uniform_random_bound,
)
from repro.routing.pathset import AllVlbPolicy
from repro.topology import Dragonfly
from repro.traffic import Shift, UniformRandom


class TestClosedForms:
    def test_paper_topology_values(self):
        # dfly(4,8,4,9): (a*h + m) / (2*a*p) = 36/64
        t = Dragonfly(4, 8, 4, 9)
        assert shift_saturation_bound(t) == pytest.approx(0.5625)
        assert min_only_shift_bound(t) == pytest.approx(4 / 32)
        assert optimal_min_fraction(t) == pytest.approx(2 / 9)

    def test_g33_bound(self):
        t = Dragonfly(4, 8, 4, 33)
        assert shift_saturation_bound(t) == pytest.approx(33 / 64)
        assert min_only_shift_bound(t) == pytest.approx(1 / 32)

    def test_large_topology_bound(self):
        t = Dragonfly(13, 26, 13, 27)
        assert shift_saturation_bound(t) == pytest.approx(351 / 676)

    def test_bound_grows_with_link_multiplicity(self):
        # same group structure, fewer groups -> more links per pair ->
        # higher shift capacity
        bounds = [
            shift_saturation_bound(Dragonfly(4, 8, 4, g))
            for g in (33, 17, 9, 5)
        ]
        assert bounds == sorted(bounds)

    def test_uniform_bound_balanced_is_injection_limited(self):
        # balanced dragonfly a = 2p = 2h: UR is injection-limited (1.0-ish)
        t = Dragonfly(4, 8, 4, 9)
        assert uniform_random_bound(t) == 1.0

    def test_uniform_bound_underprovisioned_globals(self):
        # h < p: global channels can bind below injection rate
        t = Dragonfly(4, 4, 1, 5)
        assert uniform_random_bound(t) < 1.0


class TestLpAchievesBounds:
    @pytest.mark.parametrize("args", [(2, 4, 2, 9), (2, 4, 2, 3)])
    def test_lp_matches_shift_bound(self, args, lp_solve):
        topo = Dragonfly(*args)
        demand = Shift(topo, 1, 0).demand_matrix()
        res = lp_solve(topo, demand, policy=AllVlbPolicy())
        assert res.throughput == pytest.approx(
            shift_saturation_bound(topo), rel=1e-3
        )
        assert res.min_fraction == pytest.approx(
            optimal_min_fraction(topo), rel=0.05
        )

    @pytest.mark.parametrize("g", [17, 33])
    def test_lp_matches_shift_bound_on_more_groups(self, g):
        # production pipeline only: the reference assembly re-enumerates
        # every VLB path of these per solve
        topo = Dragonfly(4, 8, 4, g)
        demand = Shift(topo, 1, 0).demand_matrix()
        model = FastModel(topo)
        for mode in ("free", "uniform"):
            res = model.solve(demand, policy=AllVlbPolicy(), mode=mode)
            # 17/32 and 33/64; the MIN share there is unique, 2/g
            assert res.throughput == pytest.approx(
                shift_saturation_bound(topo), abs=1e-9
            )
            assert res.min_fraction == pytest.approx(2 / g, abs=1e-6)

    @pytest.mark.slow
    def test_lp_matches_shift_bound_on_the_large_topology(self):
        # 702 demand pairs, full enumeration: a 32 236 x 4835 LP (~1 min)
        from repro.routing.pathset import HopClassPolicy

        topo = Dragonfly(13, 26, 13, 27)
        res = FastModel(topo, max_descriptors=None).solve(
            Shift(topo, 1, 0).demand_matrix(),
            policy=HopClassPolicy(5, 0.5),
            mode="free",
        )
        assert res.throughput == pytest.approx(351 / 676, abs=1e-9)
        assert res.throughput == pytest.approx(shift_saturation_bound(topo))

    def test_lp_min_only_matches_bound(self, lp_solve):
        topo = Dragonfly(2, 4, 2, 9)
        demand = Shift(topo, 1, 0).demand_matrix()
        res = lp_solve(topo, demand, weight_fn=lambda l1, l2: 0.0)
        assert res.throughput == pytest.approx(
            min_only_shift_bound(topo), rel=1e-3
        )

    def test_lp_never_exceeds_bound(self, lp_solve):
        # the bound is an upper bound for every candidate set
        from repro.routing.pathset import HopClassPolicy

        topo = Dragonfly(2, 4, 2, 3)
        demand = Shift(topo, 1, 0).demand_matrix()
        bound = shift_saturation_bound(topo)
        for pol in (HopClassPolicy(3), HopClassPolicy(4), AllVlbPolicy()):
            res = lp_solve(topo, demand, policy=pol)
            assert res.throughput <= bound + 1e-6

    def test_lp_ur_near_unity_balanced(self, lp_solve):
        topo = Dragonfly(2, 4, 2, 9)
        res = lp_solve(
            topo, UniformRandom(topo).demand_matrix(), policy=AllVlbPolicy()
        )
        assert res.throughput > 0.9
