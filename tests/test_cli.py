"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_pattern, parse_policy, parse_topology
from repro.routing.pathset import (
    AllVlbPolicy,
    HopClassPolicy,
    StrategicFiveHopPolicy,
)
from repro.topology import Dragonfly


class TestParsers:
    def test_parse_topology(self):
        t = parse_topology("2,4,2,9")
        assert (t.p, t.a, t.h, t.g) == (2, 4, 2, 9)

    def test_parse_topology_bad(self):
        with pytest.raises(SystemExit):
            parse_topology("2,4")

    def test_parse_patterns(self):
        t = Dragonfly(2, 4, 2, 9)
        assert parse_pattern(t, "ur").describe() == "UR"
        assert parse_pattern(t, "shift:2,1").describe() == "shift(2,1)"
        assert parse_pattern(t, "shift:3").describe() == "shift(3,0)"
        assert "permutation" in parse_pattern(t, "perm:7").describe()
        assert "MIXED(25,75" in parse_pattern(t, "mixed:25,75").describe()
        assert "TMIXED(50,50" in parse_pattern(t, "tmixed:50,50").describe()

    def test_parse_pattern_bad(self):
        t = Dragonfly(2, 4, 2, 9)
        with pytest.raises(SystemExit):
            parse_pattern(t, "hotspot")
        with pytest.raises(SystemExit):
            parse_pattern(t, "mixed:banana")

    def test_parse_policies(self):
        assert isinstance(parse_policy(None), AllVlbPolicy)
        assert isinstance(parse_policy("all"), AllVlbPolicy)
        pol = parse_policy("hopclass:4,0.6")
        assert isinstance(pol, HopClassPolicy)
        assert pol.full_hops == 4 and pol.extra_fraction == 0.6
        st = parse_policy("strategic:3+2")
        assert isinstance(st, StrategicFiveHopPolicy)
        assert st.order == "3+2"

    def test_parse_policy_bad(self):
        with pytest.raises(SystemExit):
            parse_policy("zigzag")
        with pytest.raises(SystemExit):
            parse_policy("hopclass")

    def test_parse_policy_from_file(self, tmp_path):
        from repro.spec import save_policy

        path = tmp_path / "pol.json"
        save_policy(StrategicFiveHopPolicy("3+2"), str(path))
        pol = parse_policy(f"@{path}")
        assert isinstance(pol, StrategicFiveHopPolicy)
        assert pol.order == "3+2"


class TestCommands:
    def test_topo(self, capsys):
        assert main(["topo", "-t", "2,4,2,9"]) == 0
        out = capsys.readouterr().out
        assert "dfly(p=2, a=4, h=2, g=9)" in out
        assert "num_global_links: 36" in out

    def test_paths(self, capsys):
        assert main(["paths", "-t", "2,4,2,9", "0", "20"]) == 0
        out = capsys.readouterr().out
        assert "MIN paths (1):" in out
        assert "VLB paths" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "-t", "4,8,4,9"]) == 0
        out = capsys.readouterr().out
        assert "0.5625" in out

    def test_model(self, capsys):
        assert main(
            ["model", "-t", "2,4,2,3", "--pattern", "shift:1",
             "--policy", "hopclass:4"]
        ) == 0
        out = capsys.readouterr().out
        assert "modeled throughput" in out

    def test_model_balanced_policy_file(self, capsys, tmp_path):
        # the ExcludingPolicy Algorithm 1's balance step saves is modelled
        # on its own candidate set
        import numpy as np

        from repro.core.balance import balance_adjust
        from repro.routing.pathset import ExcludingPolicy
        from repro.spec import save_policy
        from repro.traffic import Shift

        topo = Dragonfly(3, 6, 3, 7)
        pairs = list(zip(*np.nonzero(Shift(topo, 1, 0).demand_matrix())))[:4]
        policy, report = balance_adjust(topo, HopClassPolicy(4, 0.25), pairs)
        assert report.adjusted and isinstance(policy, ExcludingPolicy)
        path = tmp_path / "balanced.json"
        save_policy(policy, str(path))
        assert main(
            ["model", "-t", "3,6,3,7", "--pattern", "shift:1",
             "--policy", f"@{path}"]
        ) == 0
        out = capsys.readouterr().out
        assert "modeled throughput" in out

    def test_sim(self, capsys):
        assert main(
            ["sim", "-t", "2,4,2,9", "--pattern", "ur", "--load", "0.1",
             "--window", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "avg latency" in out
        assert "saturated     : False" in out

    def test_sim_t_variant(self, capsys):
        assert main(
            ["sim", "-t", "2,4,2,3", "--pattern", "shift:1",
             "--routing", "t-ugal-l", "--policy", "strategic:2+3",
             "--load", "0.1", "--window", "100"]
        ) == 0
        assert "T-UGAL" not in capsys.readouterr().err

    def test_figure_table(self, capsys):
        assert main(["figure", "table2"]) == 0
        out = capsys.readouterr().out
        assert "9126" in out

    def test_figure_unknown(self, capsys):
        # argparse's usage error (exit 2) naming the figures, not a traceback
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig99"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'fig99'" in err and "table2" in err

    def test_figure_scale_flags(self, monkeypatch):
        from repro import experiments
        from repro.experiments import DEFAULT_SCALE, Scale

        got = []

        def run_figure(name, scale):
            got.append(scale)
            return experiments.FIGURES["table1"](scale)

        # the flags' defaults are DEFAULT_SCALE, and each sets its field
        monkeypatch.setattr(experiments, "run_figure", run_figure)
        assert main(["figure", "table3"]) == 0
        assert main([
            "figure", "fig13", "--window", "200", "--window-large", "60",
            "--seeds", "8", "--large-loads", "0.05,0.15",
        ]) == 0
        assert got == [
            DEFAULT_SCALE,
            Scale(window=200, window_large=60, seeds=8,
                  large_loads=(0.05, 0.15)),
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sim", "-t", "2,4,2,3", "--window", "0"], "window_cycles"),
            (["sweep", "-t", "2,4,2,3", "--window", "0"], "window_cycles"),
            (["tvlb", "-t", "2,4,2,3", "--window", "0"], "window_cycles"),
            (["figure", "fig18", "--seeds", "0"], "seeds must be >= 1"),
            (["figure", "fig18", "--window", "0"], "window"),
            (["figure", "fig13", "--large-loads", "1.5"], "large_loads"),
            (["verify", "-t", "2,4,2,3", "--pairs", "0"], "max_pairs"),
        ],
    )
    def test_degenerate_scale_exits(self, argv, message):
        # a one-line usage error, not a traceback or a vacuous result
        with pytest.raises(SystemExit, match=message) as err:
            main(argv)
        assert "\n" not in str(err.value.code)

    def test_figure_table3_window(self, capsys):
        assert main(["figure", "table3", "--window", "200"]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("window cycles (bench)")
        )
        assert row.split()[-1] == "200"


class TestVerifyCommand:
    def test_paper_topology_certifies(self, capsys):
        assert main(["verify", "-t", "4,8,4,9", "--no-lint"]) == 0
        out = capsys.readouterr().out
        assert "deadlock-free: certified" in out
        assert "RESULT: PASS" in out

    def test_none_scheme_reports_cycle_nonzero(self, capsys):
        assert main(
            ["verify", "-t", "4,8,4,9", "--vc-scheme", "none", "--no-lint"]
        ) == 1
        out = capsys.readouterr().out
        assert "DEADLOCK RISK" in out
        assert "dependency cycle (each waits on the next)" in out
        assert "RESULT: FAIL" in out

    def test_tvlb_policy_certifies(self, capsys):
        assert main(
            ["verify", "-t", "2,4,2,5", "--policy", "hopclass:4,0.2",
             "--routing", "t-par"]
        ) == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    def test_json_output(self, capsys):
        import json

        assert main(["verify", "-t", "2,4,2,5", "--json", "--pairs", "10"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["cdg"]["certified"] is True

    def test_rules_subset(self, capsys):
        assert main(
            ["verify", "-t", "2,4,2,5", "--no-cdg", "--rules",
             "vc-overflow,hop-validity", "--pairs", "10"]
        ) == 0
        assert "lint: 0 error(s)" in capsys.readouterr().out

    def test_unknown_rule_exits(self):
        with pytest.raises(SystemExit, match="unknown lint rule"):
            main(["verify", "-t", "2,4,2,5", "--no-cdg", "--rules", "bogus"])
