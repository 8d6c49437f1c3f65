"""Tests for the adversarial traffic-pattern discovery subsystem."""

import json

import numpy as np
import pytest

from repro.adversary import (
    SEARCH_REGISTRY,
    AdversaryReport,
    GreedyMatching,
    HillClimb,
    greedy_dest_map,
    run_search,
)
from repro.cli import main
from repro.perf import SimCache, SweepExecutor
from repro.spec import PatternSpec, SpecError
from repro.topology import Dragonfly, FullMesh
from repro.traffic import DiscoveredPermutation, NO_TRAFFIC
from repro.traffic.adversarial import type_1_set, type_2_set

SMALL = Dragonfly(2, 4, 2, 3)


class TestGreedyDestMap:
    def test_partial_permutation_inter_group_only(self):
        topo = SMALL
        dest = greedy_dest_map(topo, seed=0)
        assert dest.shape == (topo.num_nodes,)
        active = dest[dest != NO_TRAFFIC]
        # injective on active entries: it's a (partial) permutation
        assert len(set(active.tolist())) == len(active)
        for src in range(topo.num_nodes):
            if dest[src] == NO_TRAFFIC:
                continue
            assert dest[src] != src
            g_src = topo.group_of(topo.switch_of_node(src))
            g_dst = topo.group_of(topo.switch_of_node(int(dest[src])))
            assert g_src != g_dst  # only traffic that loads global links

    def test_preserves_within_switch_index(self):
        topo = SMALL
        dest = greedy_dest_map(topo, seed=3)
        for sw in range(topo.num_switches):
            nodes = [topo.node_id(sw, k) for k in range(topo.p)]
            dsts = [int(dest[n]) for n in nodes]
            if dsts[0] == NO_TRAFFIC:
                assert all(d == NO_TRAFFIC for d in dsts)
                continue
            # all nodes of a switch target one switch, same k order
            dsw = {topo.switch_of_node(d) for d in dsts}
            assert len(dsw) == 1
            ks = [d - topo.node_id(topo.switch_of_node(d), 0) for d in dsts]
            assert ks == list(range(topo.p))

    def test_pure_function_of_topo_and_seed(self):
        a = greedy_dest_map(SMALL, seed=7)
        b = greedy_dest_map(Dragonfly(2, 4, 2, 3), seed=7)
        assert np.array_equal(a, b)
        c = greedy_dest_map(SMALL, seed=8)
        assert not np.array_equal(a, c)  # visit order actually matters


class TestSearchRegistry:
    def test_parse_greedy(self):
        kind, args = SEARCH_REGISTRY.parse("greedy")
        assert kind == "greedy" and args == {}
        assert isinstance(SEARCH_REGISTRY.build(kind, args), GreedyMatching)

    def test_parse_hillclimb_batch(self):
        kind, args = SEARCH_REGISTRY.parse("hillclimb:4")
        assert kind == "hillclimb" and args == {"batch": 4}
        strat = SEARCH_REGISTRY.build(kind, args)
        assert isinstance(strat, HillClimb) and strat.batch == 4

    def test_bad_specs_raise(self):
        with pytest.raises(SpecError):
            SEARCH_REGISTRY.parse("greedy:2")
        with pytest.raises(SpecError):
            SEARCH_REGISTRY.parse("hillclimb:banana")
        with pytest.raises(SpecError):
            SEARCH_REGISTRY.parse("simulated-annealing")


class TestRunSearch:
    def test_never_weaker_than_suite(self):
        report = run_search(
            SMALL, strategy="hillclimb:4", budget=6, seed=0,
            num_type1=3, num_type2=2,
        )
        assert report.suite  # suite was scored
        assert report.best_score <= min(
            row["score"] for row in report.suite
        ) + 1e-9
        assert report.gap_vs_suite() >= -1e-9
        # ranked merges suite + winner, ascending score
        assert len(report.ranked) == len(report.suite) + 1
        scores = [row["score"] for row in report.ranked]
        assert scores == sorted(scores)
        assert report.candidates_scored == 6

    def test_deterministic_within_process(self):
        kwargs = dict(
            strategy="hillclimb:3", budget=5, seed=11,
            num_type1=2, num_type2=2,
        )
        a = run_search(SMALL, **kwargs)
        b = run_search(SMALL, **kwargs)
        assert a.to_json() == b.to_json()

    def test_warm_cache_finds_the_same_winner_from_hits(self, tmp_path):
        """The result cache is identity-neutral to the search, and the
        search's MIN-only solves do reach it: the same search again
        through one cache directory reports the cold search's winner,
        score and ranking, most of it from cache hits."""

        def search():
            cache = SimCache(tmp_path)
            with SweepExecutor(jobs=1, cache=cache) as executor:
                return run_search(
                    SMALL, budget=8, num_type1=3, num_type2=2,
                    executor=executor,
                )

        cold, warm = search(), search()
        assert warm.pattern_fingerprint == cold.pattern_fingerprint
        assert warm.best_score == cold.best_score
        assert warm.ranked == cold.ranked
        # duplicate maps dedup inside a batch, so hits can undershoot
        # the solve count; a warm pass still sits near all of them
        solves = warm.candidates_scored + len(warm.suite)
        assert warm.cache_hits / solves >= 0.5

    def test_greedy_strategy_runs(self):
        report = run_search(
            SMALL, strategy="greedy", budget=3, seed=0,
            num_type1=2, num_type2=1,
        )
        assert report.strategy == "greedy"
        assert report.candidates_scored == 3

    def test_bad_budget_raises(self):
        with pytest.raises(SpecError):
            run_search(SMALL, budget=0)

    def test_report_roundtrip(self):
        report = run_search(
            SMALL, strategy="greedy", budget=2, seed=0,
            num_type1=2, num_type2=1,
        )
        back = AdversaryReport.from_dict(json.loads(report.to_json()))
        assert back.to_json() == report.to_json()


class TestDiscoveredPattern:
    def test_spec_codec_roundtrip(self):
        topo = SMALL
        dest = greedy_dest_map(topo, seed=0)
        pattern = DiscoveredPermutation(topo, dest)
        spec = PatternSpec.of(pattern)
        assert spec.kind == "discovered"
        rebuilt = PatternSpec.from_dict(spec.to_dict()).build(topo)
        assert np.array_equal(rebuilt.dest_map, pattern.dest_map)
        assert (
            PatternSpec.of(rebuilt).fingerprint() == spec.fingerprint()
        )

    def test_search_winner_feeds_compute_tvlb(self):
        from repro.core import compute_tvlb
        from repro.sim import SimParams

        topo = SMALL
        report = run_search(
            topo, strategy="greedy", budget=2, seed=0,
            num_type1=2, num_type2=1,
        )
        pattern = PatternSpec.make(
            "discovered", dest=report.args["dest"]
        ).build(topo)
        res = compute_tvlb(
            topo,
            num_type1=2,
            num_type2=1,
            verify=False,
            sim_params=SimParams(window_cycles=100),
            extra_adversaries=[pattern],
        )
        assert res.label  # ran end to end with the discovered pattern

    def test_validation(self):
        topo = SMALL
        n = topo.num_nodes
        with pytest.raises(ValueError):
            DiscoveredPermutation(topo, np.zeros(n - 1, dtype=np.int64))
        bad = np.zeros(n, dtype=np.int64)
        bad[0] = n  # out of range
        with pytest.raises(ValueError):
            DiscoveredPermutation(topo, bad)
        dup = np.full(n, NO_TRAFFIC, dtype=np.int64)
        dup[0] = dup[1] = 5  # two senders, one destination
        with pytest.raises(ValueError):
            DiscoveredPermutation(topo, dup)


class TestAdversarySuiteHook:
    def test_dragonfly_matches_direct_sets(self):
        topo = Dragonfly(2, 4, 2, 5)
        t1, t2 = topo.adversary_suite(num_type2=3, seed=4)
        d1 = list(type_1_set(topo))
        d2 = list(type_2_set(topo, count=3, seed=4))
        assert len(t1) == len(d1) and len(t2) == len(d2)
        for a, b in zip(t1 + t2, d1 + d2):
            assert np.array_equal(a.dest_map, b.dest_map)

    def test_full_mesh_native_suite_bit_identical(self):
        topo = FullMesh(6, 2)
        t1, t2 = topo.adversary_suite(num_type2=2, seed=0)
        d1 = list(type_1_set(topo))
        d2 = list(type_2_set(topo, count=2, seed=0))
        assert len(t1) == topo.n - 1
        for a, b in zip(t1 + t2, d1 + d2):
            assert np.array_equal(a.dest_map, b.dest_map)


class TestAdversaryCli:
    def test_end_to_end_full_mesh_with_out(self, tmp_path, capsys):
        out = tmp_path / "adv.json"
        rc = main([
            "adversary", "--topology", "full-mesh:8,2",
            "--strategy", "hillclimb:4", "--budget", "6",
            "--num-type1", "2", "--num-type2", "2",
            "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "ranked" in text and "discovered(" in text
        data = json.loads(out.read_text())
        assert data["kind"] == "discovered"

        # the saved report doubles as a pattern spec everywhere
        rc = main([
            "model", "--topology", "full-mesh:8,2",
            "--pattern", f"@{out}", "--policy", "all",
        ])
        assert rc == 0
        assert "throughput" in capsys.readouterr().out

    def test_json_output(self, capsys):
        rc = main([
            "adversary", "--topology", "full-mesh:6,1",
            "--strategy", "greedy", "--budget", "2",
            "--num-type1", "2", "--num-type2", "1", "--json",
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["strategy"] == "greedy"
        assert data["candidates_scored"] == 2

    def test_bad_strategy_exits(self):
        with pytest.raises(SystemExit):
            main([
                "adversary", "--topology", "full-mesh:6,1",
                "--strategy", "annealing", "--budget", "2",
            ])
