"""Tests for the Step-1 sweep machinery."""

import numpy as np
import pytest

from repro.core.datapoints import table1_datapoints
from repro.model import step1_sweep
from repro.model.sweep import best_point, candidate_vicinity
from repro.topology import Dragonfly
from repro.traffic import Shift, type_2_set


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(2, 4, 2, 3)


class TestStep1Sweep:
    def test_one_point_per_datapoint(self, topo):
        grid = table1_datapoints(step=0.5)
        points = step1_sweep(topo, [Shift(topo, 1, 0)], grid)
        assert len(points) == len(grid)
        assert [pt.label for pt in points] == [p.describe() for p in grid]

    def test_sem_zero_for_single_pattern(self, topo):
        points = step1_sweep(
            topo, [Shift(topo, 1, 0)], table1_datapoints(step=0.5)
        )
        assert all(pt.sem == 0.0 for pt in points)

    def test_sem_positive_across_patterns(self, topo):
        patterns = [Shift(topo, 1, 0)] + type_2_set(topo, count=2)
        points = step1_sweep(topo, patterns, table1_datapoints(step=0.5))
        assert all(len(pt.per_pattern) == 3 for pt in points)
        # at least one datapoint shows variation across patterns
        assert any(pt.sem > 0 for pt in points)

    def test_uniform_mode_below_free_mode(self, topo):
        grid = table1_datapoints(step=0.5)
        free = step1_sweep(topo, [Shift(topo, 1, 0)], grid, mode="free")
        uni = step1_sweep(topo, [Shift(topo, 1, 0)], grid, mode="uniform")
        for f, u in zip(free, uni):
            assert u.mean_throughput <= f.mean_throughput + 1e-9

    def test_full_set_achieves_bound(self, topo):
        from repro.model.bounds import shift_saturation_bound

        points = step1_sweep(
            topo, [Shift(topo, 1, 0)], table1_datapoints(step=0.5)
        )
        assert points[-1].label == "all VLB"
        assert points[-1].mean_throughput == pytest.approx(
            shift_saturation_bound(topo), rel=1e-3
        )


class TestVicinity:
    def test_best_and_vicinity(self, topo):
        points = step1_sweep(
            topo, [Shift(topo, 1, 0)], table1_datapoints(step=0.5)
        )
        best = best_point(points)
        assert best.mean_throughput == max(
            pt.mean_throughput for pt in points
        )
        tight = candidate_vicinity(points, rel_tol=0.001)
        loose = candidate_vicinity(points, rel_tol=0.5)
        assert {pt.label for pt in tight} <= {pt.label for pt in loose}
        assert best in tight
