"""Observability must never change results, fingerprints, or cache keys."""

import dataclasses

import pytest

from repro.obs import NULL_REGISTRY, ObsConfig, capture
from repro.perf import SimTask
from repro.sim import SimParams, simulate
from repro.sim.array import native_available
from repro.sim.engine import Run
from repro.spec import RunSpec
from repro.topology import Dragonfly
from repro.traffic.patterns import Shift, UniformRandom

SMALL = dict(window_cycles=120, warmup_windows=1)

FULL_OBS = ObsConfig(metrics=True, sample_every=25)


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(2, 4, 2, 9)


def _measurement_fields(result):
    """Every SimResult field except the provenance manifest."""
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "manifest"
    }


class TestEngineParity:
    @pytest.mark.parametrize("routing", ["min", "ugal-l"])
    def test_bit_identical_results(self, topo, routing):
        pattern = UniformRandom(topo)
        base = simulate(
            topo, pattern, 0.15, routing=routing,
            params=SimParams(**SMALL), seed=7,
        )
        with capture():
            traced = simulate(
                topo, pattern, 0.15, routing=routing,
                params=SimParams(**SMALL, obs=FULL_OBS), seed=7,
            )
        assert _measurement_fields(base) == _measurement_fields(traced)
        assert base == traced  # dataclass equality skips the manifest

    def test_parity_holds_for_adversarial_pattern(self, topo):
        base = simulate(
            topo, Shift(topo, 1), 0.2,
            params=SimParams(**SMALL), seed=11,
        )
        traced = simulate(
            topo, Shift(topo, 1), 0.2,
            params=SimParams(**SMALL, obs=FULL_OBS), seed=11,
        )
        assert _measurement_fields(base) == _measurement_fields(traced)


class TestDisabledDefaultWiresNothing:
    """``ObsConfig()`` with every switch off is the uninstrumented run:
    what it costs is structural (which registry, whether a sampler
    splits ``advance``, how often the kernel is entered), so it is
    asserted exactly rather than timed."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """The ``Run`` of every ``simulate()`` call, as it finishes."""
        seen = []
        finish = Run.finish

        def recording(run):
            seen.append(run)
            return finish(run)

        monkeypatch.setattr(Run, "finish", recording)
        return seen

    def _simulate_both(self, topo, runs):
        plain, noop = (
            simulate(
                topo, UniformRandom(topo), 0.15, routing="ugal-l",
                params=SimParams(**SMALL, obs=obs), seed=7,
            )
            for obs in (None, ObsConfig())
        )
        assert _measurement_fields(plain) == _measurement_fields(noop)
        for name in ("fingerprint", "spec_fingerprint"):
            assert getattr(plain.manifest, name) == getattr(
                noop.manifest, name
            )
        for run in runs:
            assert run.registry is NULL_REGISTRY
            assert run.sampler is None and run.sample_every == 0
            assert not run.manifest.metrics
        return runs

    def test_array_lane_enters_the_kernel_equally_often(self, topo, runs):
        if not native_available():
            pytest.skip("needs the native kernel")
        plain, noop = self._simulate_both(topo, runs)
        assert plain.lane == noop.lane == "array"
        assert plain.algo.lane.kernel_calls == noop.algo.lane.kernel_calls > 0
        assert plain.algo.lane.returns == noop.algo.lane.returns

    def test_packet_lane_binds_the_null_instruments(
        self, topo, runs, reference_engine
    ):
        null_inc = NULL_REGISTRY.counter("any").inc
        for run in self._simulate_both(topo, runs):
            assert run.lane == "packet"
            assert run._inc_injected == run._inc_stalled == null_inc


class TestFingerprintNeutrality:
    def test_identity_dict_drops_obs(self):
        assert "obs" not in SimParams(obs=FULL_OBS).identity_dict()
        assert (
            SimParams(**SMALL, obs=FULL_OBS).identity_dict()
            == SimParams(**SMALL).identity_dict()
        )

    def test_with_obs_round_trip(self):
        params = SimParams(**SMALL)
        traced = params.with_obs(FULL_OBS)
        assert traced.obs is FULL_OBS
        assert traced.with_obs(None) == params

    def test_runspec_fingerprint_unchanged(self, topo):
        pattern = UniformRandom(topo)

        def spec(params):
            return RunSpec.from_objects(
                topo, pattern, 0.1, routing="min", params=params, seed=1
            )

        plain = spec(SimParams(**SMALL))
        traced = spec(SimParams(**SMALL, obs=FULL_OBS))
        assert plain.fingerprint() == traced.fingerprint()
        assert "obs" not in plain.to_dict()["params"]

    def test_cache_key_unchanged(self, topo):
        pattern = UniformRandom(topo)

        def key(params):
            return SimTask(
                topo, pattern, 0.1, routing="min", params=params, seed=1
            ).key()

        assert key(SimParams(**SMALL)) is not None
        assert key(SimParams(**SMALL)) == key(
            SimParams(**SMALL, obs=FULL_OBS)
        )

    def test_spec_rejects_serialized_obs(self):
        from repro.spec import SpecError

        spec = RunSpec.from_objects(
            Dragonfly(2, 4, 2, 9),
            UniformRandom(Dragonfly(2, 4, 2, 9)),
            0.1,
            params=SimParams(**SMALL),
        )
        data = spec.to_dict()
        data["params"]["obs"] = {"metrics": True}
        with pytest.raises(SpecError, match="obs"):
            RunSpec.from_dict(data)
