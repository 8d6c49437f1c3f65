"""Fast unit tests of the figure machinery on a tiny topology.

The registered figures use the paper's (large) topologies; here the
internal helpers run on dfly(2,4,2,3)/dfly(2,4,2,9) with tiny windows so
the harness logic itself is covered by the unit suite.  The registered
figures' suites are checked without running them: ``run_suite`` is
replaced by a recorder that raises once it holds the suite.
"""

import pytest

from repro.experiments import ablations, figures
from repro.experiments.figures import DEFAULT_SCALE, Scale, _curve_figure
from repro.topology import Dragonfly
from repro.traffic import Shift

TINY = Scale(window=80)


class TestCurveFigure:
    def test_dense_topology_runs_base_and_t(self):
        topo = Dragonfly(2, 4, 2, 3)
        result = _curve_figure(
            "figX",
            "test",
            topo,
            lambda t, seed: Shift(t, 1, 0),
            loads=(0.05, 0.2),
            schemes=["ugal-l"],
            scale=TINY,
        )
        assert set(result.data["curves"]) == {"UGAL-L", "T-UGAL-L"}
        assert set(result.data["saturation"]) == {"UGAL-L", "T-UGAL-L"}
        assert "latency" in result.text

    def test_sparse_topology_skips_t_variant(self):
        # one link per group pair: T-UGAL == UGAL, no T- curve
        topo = Dragonfly(2, 4, 2, 9)
        result = _curve_figure(
            "figX",
            "test",
            topo,
            lambda t, seed: Shift(t, 1, 0),
            loads=(0.05,),
            schemes=["ugal-l"],
            scale=TINY,
        )
        assert set(result.data["curves"]) == {"UGAL-L"}


class TestSensitivityFigure:
    def test_settings_expand_labels(self):
        topo = Dragonfly(2, 4, 2, 3)
        result = _curve_figure(
            "figY",
            "test",
            topo,
            lambda t, seed: Shift(t, 1, 0),
            loads=(0.05,),
            schemes=["ugal-l"],
            scale=TINY,
            settings=[("a", {}), ("b", {"buffer_size": 8})],
        )
        labels = set(result.data["saturation"])
        assert labels == {
            "UGAL-L(a)", "T-UGAL-L(a)", "UGAL-L(b)", "T-UGAL-L(b)"
        }


class _Captured(Exception):
    pass


def _capture_suite(monkeypatch, runner, scale=DEFAULT_SCALE):
    """The SuiteSpec ``runner`` builds at ``scale``, without running it."""
    got = []

    def record(suite):
        got.append(suite)
        raise _Captured

    monkeypatch.setattr(figures, "run_suite", record)
    monkeypatch.setattr(ablations, "run_suite", record)
    with pytest.raises(_Captured):
        runner(scale)
    return got[0]


#: The suite fingerprints of every curve figure and suite ablation, as
#: built when their scale was read from unset environment variables --
#: ``DEFAULT_SCALE`` must build exactly these suites.
SUITE_FINGERPRINTS = {
    "fig06": "a3641647640ff889c0a515a26dbf48d15fd6826292c08cb63b37b050020b820b",
    "fig07": "5a131109e5815c6f92d7518bb3b9afae0f94f7d7ce7fed5076a9307d2f2f4796",
    "fig08": "0a6d655894740fc2a3032db34513e6bdd9a09ef627992dab50e61b875f32bae0",
    "fig09": "0a85bd935019f1a93947995556fe9ab91621491cd0c9700a79f961748156e75e",
    "fig10": "353d55e98ef943c1267680145b7dd7103334b2aa3a5c9435aafd6bae85dfa536",
    "fig11": "a4b7210a6dc2573a4101712c8a5b4bd6a3827cd319984eb8d462be5360fec9d8",
    "fig12": "822e0d2b90a60fe25b56b48de99e004588171fd6b8034af2dcb7986f9bc1a4a7",
    "fig13": "aaa19caef539905e06ff0ccca03d36f24646b483e05aa154ed56499c10edcc9a",
    "fig14": "4f5c22f2b7b77a847e46380a53bae4684bb33a796a2eca9e7f157b8ed9199b14",
    "fig15": "12c9c246e374e210e74e9d3cfafa360df7fec9e4704b99a3e4dee1f4498104b4",
    "fig16": "76940a9a9efc73add2b477130fd5261187155bdef31d97c4d5868314695e9320",
    "fig17": "fcf84cc0d49b6b61deb316a49cb71b7c9e1a4b25b9ef7eb8ab1dcfbd6c0b26ca",
    "fig18": "9e0569c0a3980b5966c7f640df318f98066adfdff7b4309139560da7a2e4a211",
    "abl_strategic": (
        "9c66e12694fbdc08f58854e3cb81138fb7bfcf01059fda488914d4b5c757e866"
    ),
    "abl_balance": (
        "16ff3cf5fcd2cc26bdf8b85a77ab0e76407170876fdb0d69849eabdcd708ac71"
    ),
}

_OLD_SCALE_ENV = {
    "REPRO_WINDOW": "50",
    "REPRO_WINDOW_LARGE": "7",
    "REPRO_SEEDS": "3",
    "REPRO_LARGE_LOADS": "0.2",
    "REPRO_MODEL_STEP": "0.5",
    "REPRO_MODEL_T1": "2",
    "REPRO_MODEL_T2": "1",
    "REPRO_MODEL_MODE": "free",
}


def _runner(name):
    return figures.FIGURES.get(name) or getattr(ablations, name)


def _fingerprints(monkeypatch):
    return {
        name: _capture_suite(monkeypatch, _runner(name)).fingerprint()
        for name in SUITE_FINGERPRINTS
    }


class TestSuites:
    def test_default_scale_builds_the_pinned_suites(self, monkeypatch):
        for name in _OLD_SCALE_ENV:
            monkeypatch.delenv(name, raising=False)
        assert _fingerprints(monkeypatch) == SUITE_FINGERPRINTS

    def test_the_environment_is_not_read(self, monkeypatch):
        for name, value in _OLD_SCALE_ENV.items():
            monkeypatch.setenv(name, value)
        assert _fingerprints(monkeypatch) == SUITE_FINGERPRINTS

    def test_model_sweep_ignores_the_environment(self, monkeypatch):
        def step1_args():
            got = []

            def record(topo, patterns, datapoints, mode):
                got.append((
                    str(topo),
                    [p.describe() for p in patterns],
                    [d.describe() for d in datapoints],
                    mode,
                ))
                raise _Captured

            monkeypatch.setattr(figures, "step1_sweep", record)
            with pytest.raises(_Captured):
                figures.fig04()
            return got[0]

        for name in _OLD_SCALE_ENV:
            monkeypatch.delenv(name, raising=False)
        default = step1_args()
        for name, value in _OLD_SCALE_ENV.items():
            monkeypatch.setenv(name, value)
        assert step1_args() == default
        _, patterns, datapoints, mode = default
        assert (len(patterns), len(datapoints), mode) == (8, 13, "uniform")

    def test_scale_reaches_the_suite(self, monkeypatch):
        scale = Scale(window=50, seeds=2)
        suite = _capture_suite(monkeypatch, figures.fig18, scale)
        assert [(s.label, s.seed) for s in suite.sweeps] == [
            (label, seed)
            for label in ("UGAL-G(4)", "T-UGAL-G(4)", "UGAL-G(6)",
                          "T-UGAL-G(6)")
            for seed in (0, 1)
        ]
        assert {s.params.window_cycles for s in suite.sweeps} == {50}
        large = Scale(window_large=40, large_loads=(0.1,))
        suite = _capture_suite(monkeypatch, figures.fig13, large)
        assert {s.params.window_cycles for s in suite.sweeps} == {40}
        assert {s.loads for s in suite.sweeps} == {(0.1,)}
