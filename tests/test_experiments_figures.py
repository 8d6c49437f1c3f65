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
#: ``DEFAULT_SCALE`` must build exactly these suites (re-pinned, all at
#: once, when ``SimParams.vlb_cache_per_pair`` left every run's identity).
SUITE_FINGERPRINTS = {
    "fig06": "1a87fafa4dbb44efd22095b4e69cfeefb8a34fc2c651fc55e50612006d3fa334",
    "fig07": "5394778f9ed641e277eb2e22ac329cfb41ba336e9094469eabde66d11bd8bbd9",
    "fig08": "a42a7b86ad82f9cb001b5a4a14d13cd3d2997e3c41a7eafcd0293567c12a5ecf",
    "fig09": "4c659dd0bf104c90f0a4181c026364c8f79979954fc468fbeb7e96f71f4d02e8",
    "fig10": "251c4e55c2c0547acec8e9b5094f948caacf64a32320885944e80729d63494f5",
    "fig11": "14485daaa6fcb3a9d15e5e553436d2e0b154afb1b924f48fddc86fa683a201a4",
    "fig12": "41d847a46ea17b49bf04a16f8b43f6cfdc8348a1adf210cb9298a037bb9eae7f",
    "fig13": "0fe61f3cd9fa04df96b529574fa8b89aae56a0d2db76d116c81dec659bde4575",
    "fig14": "b45839be1a16e111fdc88d89f9769a54e472173e064449696504cc94f8bdd301",
    "fig15": "633d492b57f2dda9dbe93073e4384ebca1996626b9e67dd9914a9e6a330f19b0",
    "fig16": "7b17522d1869187745700ed93a4913ec94d989a896e1fc6e4952d891a7984c05",
    "fig17": "3e79241e452eefa17caac3ae8ba94ee6158c84ed5ad97b7e0878227eb3efee08",
    "fig18": "e69933b3451cb61ccfe1a83c0a3e4101f639979c25717f8a31b7bb753bfd0c68",
    "abl_strategic": (
        "732e08a3b50ac99f012f93c326566da73ecde1ed242b4bd47be3e29f9861ae55"
    ),
    "abl_balance": (
        "cffb7fa1df980e0545372dc6be4ad4e9d8dad56a59c18e0a9abad58a41df0447"
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
