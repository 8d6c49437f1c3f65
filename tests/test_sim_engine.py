"""End-to-end simulator tests: simulate(), sweeps, and trend checks."""

import pytest

from repro.routing.pathset import StrategicFiveHopPolicy
from repro.sim import SimParams, latency_vs_load, saturation_throughput, simulate
from repro.topology import Dragonfly
from repro.traffic import Shift, UniformRandom


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(2, 4, 2, 9)


@pytest.fixture(scope="module")
def fast_params():
    return SimParams(window_cycles=250)


class TestSimulateBasics:
    def test_accepted_matches_offered_below_saturation(self, topo, fast_params):
        r = simulate(
            topo, UniformRandom(topo), 0.2, routing="ugal-l",
            params=fast_params, seed=2,
        )
        assert not r.saturated
        assert r.accepted_rate == pytest.approx(0.2, rel=0.15)
        assert r.avg_latency < 100

    def test_seed_reproducibility(self, topo, fast_params):
        a = simulate(topo, UniformRandom(topo), 0.1, params=fast_params, seed=5)
        b = simulate(topo, UniformRandom(topo), 0.1, params=fast_params, seed=5)
        assert a.avg_latency == b.avg_latency
        assert a.packets_measured == b.packets_measured

    def test_different_seeds_differ(self, topo, fast_params):
        a = simulate(topo, UniformRandom(topo), 0.1, params=fast_params, seed=5)
        b = simulate(topo, UniformRandom(topo), 0.1, params=fast_params, seed=6)
        assert a.avg_latency != b.avg_latency

    def test_zero_load_no_packets(self, topo, fast_params):
        r = simulate(topo, UniformRandom(topo), 0.0, params=fast_params)
        assert r.packets_measured == 0
        assert r.saturated  # no data counts as saturated

    def test_load_validation(self, topo, fast_params):
        with pytest.raises(ValueError):
            simulate(topo, UniformRandom(topo), 1.5, params=fast_params)

    @pytest.mark.parametrize(
        "field, value",
        [("window_cycles", 0), ("measure_windows", 0), ("warmup_windows", -1)],
    )
    def test_degenerate_windows_rejected(self, field, value):
        # a zero-cycle measurement would divide by zero after the run
        with pytest.raises(ValueError, match=field):
            SimParams(**{field: value})
        SimParams(window_cycles=1, warmup_windows=0)  # the bench's prime

    def test_latency_grows_with_load(self, topo, fast_params):
        pattern = Shift(topo, 2, 0)
        low = simulate(topo, pattern, 0.05, params=fast_params, seed=1)
        high = simulate(topo, pattern, 0.35, params=fast_params, seed=1)
        assert high.avg_latency > low.avg_latency

    def test_min_saturates_on_adversarial(self, topo, fast_params):
        # one link per group pair: MIN throughput caps around p*r <= 1/ (a*p/m)
        r = simulate(
            topo, Shift(topo, 2, 0), 0.4, routing="min",
            params=fast_params, seed=1,
        )
        assert r.accepted_rate < 0.25

    def test_ugal_beats_min_on_adversarial(self, topo, fast_params):
        pattern = Shift(topo, 2, 0)
        r_min = simulate(
            topo, pattern, 0.3, routing="min", params=fast_params, seed=1
        )
        r_ugal = simulate(
            topo, pattern, 0.3, routing="ugal-l", params=fast_params, seed=1
        )
        assert r_ugal.accepted_rate > r_min.accepted_rate

    def test_ugal_prefers_min_on_uniform(self, topo, fast_params):
        r = simulate(
            topo, UniformRandom(topo), 0.3, routing="ugal-l",
            params=fast_params, seed=1,
        )
        assert r.vlb_fraction < 0.3

    def test_ugal_uses_vlb_on_adversarial(self, topo, fast_params):
        r = simulate(
            topo, Shift(topo, 2, 0), 0.3, routing="ugal-l",
            params=fast_params, seed=1,
        )
        assert r.vlb_fraction > 0.4


class TestTUgalTrend:
    """The paper's headline: T-UGAL cuts latency via shorter VLB paths."""

    def test_t_ugal_shorter_paths_lower_latency(self):
        topo = Dragonfly(4, 8, 4, 9)
        params = SimParams(window_cycles=300)
        pattern = Shift(topo, 2, 0)
        pol = StrategicFiveHopPolicy("2+3")
        base = simulate(
            topo, pattern, 0.15, routing="ugal-l", params=params, seed=3
        )
        tugal = simulate(
            topo, pattern, 0.15, routing="t-ugal-l", policy=pol,
            params=params, seed=3,
        )
        assert tugal.avg_hops < base.avg_hops
        assert tugal.avg_latency < base.avg_latency

    def test_t_par_improves_over_par(self):
        topo = Dragonfly(4, 8, 4, 9)
        params = SimParams(window_cycles=300)
        pattern = Shift(topo, 2, 0)
        pol = StrategicFiveHopPolicy("2+3")
        base = simulate(
            topo, pattern, 0.15, routing="par", params=params, seed=3
        )
        tpar = simulate(
            topo, pattern, 0.15, routing="t-par", policy=pol,
            params=params, seed=3,
        )
        assert tpar.avg_latency < base.avg_latency
        assert tpar.par_revised > 0


class TestSweeps:
    def test_latency_vs_load_stops_at_saturation(self, topo, fast_params):
        sweep = latency_vs_load(
            topo,
            Shift(topo, 2, 0),
            [0.05, 0.2, 0.5, 0.9],
            routing="min",
            params=fast_params,
            seed=1,
        )
        assert sweep.results[-1].saturated
        assert len(sweep.results) < 4  # stopped early

    def test_sweep_throughput_monotone_data(self, topo, fast_params):
        sweep = latency_vs_load(
            topo,
            UniformRandom(topo),
            [0.05, 0.15],
            routing="ugal-l",
            params=fast_params,
            seed=1,
            stop_after_saturation=False,
        )
        assert sweep.saturation_throughput() >= 0.13
        assert len(sweep.rows()) == 2

    def test_saturation_search_brackets(self, topo):
        params = SimParams(window_cycles=200)
        thr = saturation_throughput(
            topo,
            Shift(topo, 2, 0),
            routing="min",
            params=params,
            seed=1,
            max_iters=4,
        )
        # MIN on adversarial shift: direct link capacity 1 flit/cycle shared
        # by a*p = 8 nodes -> ~0.125; allow generous slack for small windows
        assert 0.05 < thr < 0.3
