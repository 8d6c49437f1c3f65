"""Property-based tests of the LP model, on the production pipeline and,
``[reference]``, on the reference assembly (the ``lp_solve`` fixture)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.bounds import shift_saturation_bound
from repro.topology import Dragonfly
from repro.traffic import Shift

TOPO = Dragonfly(2, 4, 2, 3)
DEMAND = Shift(TOPO, 1, 0).demand_matrix()
BOUND = shift_saturation_bound(TOPO)


def _weight_fn(w3, w4, w5, w6):
    table = {3: w3, 4: w4, 5: w5, 6: w6}

    def fn(l1, l2):
        return table.get(l1 + l2, 0.0)

    return fn


unit = st.floats(min_value=0.0, max_value=1.0)


class TestLpProperties:
    @settings(max_examples=25, deadline=None)
    @given(w3=unit, w4=unit, w5=unit, w6=unit)
    def test_throughput_in_valid_range(self, lp_solve, w3, w4, w5, w6):
        for mode in ("uniform", "free"):
            res = lp_solve(
                TOPO, DEMAND, weight_fn=_weight_fn(w3, w4, w5, w6), mode=mode
            )
            assert 0.0 <= res.throughput <= 1.0 + 1e-9
            assert 0.0 <= res.min_fraction <= 1.0 + 1e-6
            # flow conservation bound holds for every candidate set
            assert res.throughput <= BOUND + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(w4=unit, w5=unit)
    def test_uniform_never_exceeds_free(self, lp_solve, w4, w5):
        fn = _weight_fn(1.0, w4, w5, 0.5)
        uni = lp_solve(TOPO, DEMAND, weight_fn=fn, mode="uniform").throughput
        free = lp_solve(TOPO, DEMAND, weight_fn=fn, mode="free").throughput
        assert uni <= free + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(w5=unit)
    def test_free_mode_monotone_in_set_growth(self, lp_solve, w5):
        # adding paths can never reduce free-mode capacity
        small = lp_solve(
            TOPO, DEMAND, weight_fn=_weight_fn(1, 1, w5 * 0.5, 0), mode="free"
        ).throughput
        large = lp_solve(
            TOPO, DEMAND, weight_fn=_weight_fn(1, 1, w5, 0.5), mode="free",
            monotonic=False,
        ).throughput
        assert large >= small - 1e-6

    def test_min_fraction_at_bound_matches_theory(self, lp_solve):
        from repro.model.bounds import optimal_min_fraction

        res = lp_solve(TOPO, DEMAND, weight_fn=lambda a, b: 1.0)
        assert res.min_fraction == pytest.approx(
            optimal_min_fraction(TOPO), rel=0.05
        )

    def test_scaling_demand_scales_throughput(self, lp_solve):
        res1 = lp_solve(TOPO, DEMAND, weight_fn=lambda a, b: 1.0)
        res2 = lp_solve(TOPO, 2.0 * DEMAND, weight_fn=lambda a, b: 1.0)
        assert res2.throughput == pytest.approx(res1.throughput / 2, rel=1e-3)
