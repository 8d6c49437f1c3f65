"""Parity and structural tests for the one LP pipeline.

The contract under test: ``FastModel`` -- the assembly every production
solve goes through, on every topology -- is a pure performance
refactoring of the reference per-solve assembly ``model_throughput``:
same throughputs (to 1e-9) on the same inputs, plus the structural
layers (the route-table block builder, topology-sized class axis,
policy blocks, ModelResult caching) each verified against their slow
reference.  The two sides do not solve the same LP: the
reference hands HiGHS the primal as modelled, ``FastModel`` its dual, so
throughput parity is strong duality, and ``TestDualSolve`` checks the
production point in the reference's own constraint matrix.

``min_fraction`` has no parity to assert: the MIN/VLB split at the
throughput optimum is a degenerate LP face (many splits achieve the same
lambda), and the primal and the dual simplex land on different optimal
vertices of it.  It is tested as what it is -- a point of the interval
of MIN shares attainable at lambda*.  Throughput -- the objective, and
the only field Step 1 consumes -- is tight.
"""

import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, linprog

from repro.core.datapoints import table1_datapoints
from repro.model import (
    BlockCache,
    FastModel,
    PairBlock,
    PathStatsCache,
    model_throughput,
    step1_sweep,
)
from repro.model import fastpath, lp_model, pathstats
from repro.model.pathstats import compute_pair_stats
from repro.routing import minimal, vlb
from repro.routing.channels import ChannelIndex
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    OrderedVlbPolicy,
    PathPolicy,
    StrategicFiveHopPolicy,
)
from repro.topology import CascadeDragonfly, Dragonfly, FullMesh
from repro.traffic import Shift, type_1_set, type_2_set

SMALL = Dragonfly(2, 4, 2, 5)

# small shapes with (g - 1) | a * h, one constructor call each
SHAPES = [
    lambda arr: Dragonfly(1, 2, 1, 3, arrangement=arr),
    lambda arr: Dragonfly(1, 2, 2, 5, arrangement=arr),
    lambda arr: Dragonfly(2, 3, 2, 4, arrangement=arr),
    lambda arr: CascadeDragonfly(1, 4, 1, 3, rows=2, cols=2, arrangement=arr),
    lambda arr: CascadeDragonfly(1, 4, 1, 5, rows=2, cols=2, arrangement=arr),
    lambda arr: CascadeDragonfly(2, 6, 1, 4, rows=3, cols=2, arrangement=arr),
    lambda arr: FullMesh(4, p=2, arrangement=arr),
    lambda arr: FullMesh(6, p=1, arrangement=arr),
]


@contextmanager
def _linprog_calls(module):
    """Record ``(args, kwargs, result)`` of every ``linprog`` call
    ``module`` makes (``lp_model``: the primal as modelled; ``fastpath``:
    its dual, whose row duals are minus the primal point)."""
    calls = []

    def spy(*args, **kwargs):
        res = linprog(*args, **kwargs)
        calls.append((args, kwargs, res))
        return res

    with mock.patch.object(module, "linprog", spy):
        yield calls


def _min_share_range(primal, lam, num_pairs, total):
    """``(lo, hi)``: the least and the largest MIN share of the served
    traffic attainable at throughput ``lam``, from the reference's own
    LP with lambda pinned."""
    (c,), kwargs, _res = primal
    bounds = [(lam, lam)] + list(kwargs["bounds"][1:])
    cost = np.zeros(len(c))
    cost[1 : 1 + num_pairs] = 1.0
    ends = []
    for sign in (1.0, -1.0):
        res = linprog(sign * cost, **{**kwargs, "bounds": bounds})
        assert res.status == 0
        ends.append(sign * res.fun / (lam * total))
    return ends[0], ends[1]


def _assert_blocks_equal(a: PairBlock, b: PairBlock) -> None:
    assert a.min_count == b.min_count
    for name in ("min_idx", "min_val", "counts", "cls_id", "cls_idx", "cls_val"):
        got, want = getattr(a, name), getattr(b, name)
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert got.dtype == want.dtype, name


@dataclass(frozen=True)
class _EvenMids(PathPolicy):
    """A policy that exists only as Python: no membership program, so
    its blocks come from its own ``iter_descriptors``."""

    def contains(self, topo, src, dst, desc):
        return desc.mid % 2 == 0

    def describe(self):
        return "even intermediates"


class TestBlockBuilder:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        arrangement=st.sampled_from(["absolute", "relative"]),
        policy=st.sampled_from(
            [None, OrderedVlbPolicy(0.5), OrderedVlbPolicy(1.0), _EvenMids()]
        ),
        src=st.integers(min_value=0, max_value=10**6),
        hop=st.integers(min_value=1, max_value=10**6),
    )
    def test_equals_per_path_enumeration(
        self, shape, arrangement, policy, src, hop
    ):
        """The route-table builder is bit-exact (values, order, dtypes)
        against the reference's per-path enumeration."""
        topo = shape(arrangement)
        n = topo.num_switches
        src %= n
        dst = (src + 1 + hop % (n - 1)) % n
        cache = BlockCache(topo)
        want = PairBlock.from_stats(
            compute_pair_stats(topo, ChannelIndex(topo), src, dst, policy=policy),
            cache.legs,
        )
        _assert_blocks_equal(cache.get(src, dst, policy), want)

    def test_reads_only_the_route_table(self, monkeypatch):
        """No per-path enumerator runs in a production solve, on fully
        connected groups or on a Cascade grid."""
        originals = [
            pathstats.compute_pair_stats,
            minimal.min_paths,
            vlb.enumerate_vlb_descriptors,
            vlb.count_vlb_paths,
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("per-path enumeration in a FastModel solve")

        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(module, attr, forbidden)
        for topo in (
            Dragonfly(4, 8, 4, 9),
            CascadeDragonfly(p=2, a=6, h=2, g=3, rows=2, cols=3),
        ):
            demand = Shift(topo, 1, 0).demand_matrix()
            assert FastModel(topo).solve(demand, mode="free").throughput > 0


class TestFastModelParity:
    @pytest.mark.parametrize("mode", ["uniform", "free"])
    def test_small_topology_parity(self, mode):
        cache = PathStatsCache(SMALL)
        fast = FastModel(SMALL)
        policies = [
            AllVlbPolicy(),
            HopClassPolicy(3, 0.0),
            HopClassPolicy(4, 0.5),
            HopClassPolicy(5, 0.25),
        ]
        patterns = [Shift(SMALL, 1, 0), Shift(SMALL, 2, 1)] + type_2_set(
            SMALL, count=1
        )
        unique_splits = 0
        for policy in policies:
            for pat in patterns:
                demand = pat.demand_matrix()
                with _linprog_calls(lp_model) as primal:
                    ref = model_throughput(
                        SMALL, demand, policy=policy, cache=cache, mode=mode
                    )
                got = fast.solve(demand, policy=policy, mode=mode)
                assert got.throughput == pytest.approx(
                    ref.throughput, abs=1e-9
                )
                assert got.num_pairs == ref.num_pairs
                # the MIN share is any point of [lo, hi] (see module
                # docstring), and the reference's where that is one point
                lo, hi = _min_share_range(
                    primal[0], ref.throughput, ref.num_pairs,
                    demand.sum() - np.trace(demand),
                )
                assert lo - 1e-6 <= got.min_fraction <= hi + 1e-6
                assert lo - 1e-6 <= ref.min_fraction <= hi + 1e-6
                if hi - lo < 1e-9:
                    unique_splits += 1
                    assert got.min_fraction == pytest.approx(
                        ref.min_fraction, abs=1e-6
                    )
        assert unique_splits  # the pinned branch ran

    @pytest.mark.slow
    def test_table1_parity_paper_topology(self):
        """Every Table-1 datapoint, TYPE_1 + TYPE_2 sample, dfly(4,8,4,9)."""
        topo = Dragonfly(4, 8, 4, 9)
        grid = table1_datapoints(step=0.1)  # all 31 datapoints
        patterns = [type_1_set(topo)[11]] + type_2_set(topo, count=1)
        sweep = step1_sweep(topo, patterns, grid, mode="free")
        cache = PathStatsCache(topo)
        demands = [pat.demand_matrix() for pat in patterns]
        for point, policy in zip(sweep, grid):
            assert point.label == policy.describe()
            for got, demand in zip(point.per_pattern, demands):
                ref = model_throughput(
                    topo, demand, policy=policy, cache=cache, mode="free"
                )
                assert got == pytest.approx(ref.throughput, abs=1e-9)

    def test_monotonic_flag_respected(self):
        # free mode without the paper's monotonicity rows over-estimates
        # (or matches) -- and the pipeline must agree with the reference
        cache = PathStatsCache(SMALL)
        fast = FastModel(SMALL)
        demand = Shift(SMALL, 1, 0).demand_matrix()
        policy = HopClassPolicy(4, 0.5)
        for mono in (True, False):
            ref = model_throughput(
                SMALL, demand, policy=policy, cache=cache, mode="free",
                monotonic=mono,
            )
            got = fast.solve(
                demand, policy=policy, mode="free", monotonic=mono
            )
            assert got.throughput == pytest.approx(ref.throughput, abs=1e-9)

    def test_cascade_matches_reference(self):
        # two-hop local transit: 5 hop values per leg, a 25-class axis
        topo = CascadeDragonfly(p=2, a=6, h=2, g=3, rows=2, cols=3)
        fast = FastModel(topo)
        assert fast.blocks.legs == 5
        cache = PathStatsCache(topo)
        demand = Shift(topo, 1, 0).demand_matrix()
        for mode in ("uniform", "free"):
            for policy in (AllVlbPolicy(), HopClassPolicy(6, 0.5)):
                _assert_parity(
                    fast, cache, demand, policy=policy, mode=mode
                )
        # classes past the 3x3 dragonfly space are populated
        assert max(
            sum(fastpath._class_split(int(c), 5))
            for c in np.flatnonzero(fast.blocks.get(0, 7).counts)
        ) > 6

    def test_sub_class_policies_still_rejected(self):
        fast = FastModel(SMALL)
        demand = Shift(SMALL, 1, 0).demand_matrix()
        for policy in (ExcludingPolicy(base=AllVlbPolicy()), ExplicitPathSet()):
            with pytest.raises(ValueError, match="class-weight"):
                fast.solve(demand, policy=policy)

    def test_pattern_memo_is_bounded(self):
        fast = FastModel(Dragonfly(1, 2, 1, 3))
        first = Shift(fast.topo, 1, 0).demand_matrix()
        fast.solve(first)
        for k in range(2, fastpath._PATTERNS_MAX + 10):
            fast.solve(k * first)  # a stream of distinct demands
        assert len(fast._patterns) == fastpath._PATTERNS_MAX
        # oldest first: the first demand's skeleton is gone, and a
        # re-solve rebuilds it with the same result
        assert fast.solve(first).throughput == pytest.approx(
            fast.solve(2 * first).throughput * 2
        )


def _assert_parity(fast, cache, demand, **options):
    """``fast.solve`` == reference assembly over ``cache``; returns it."""
    ref = model_throughput(fast.topo, demand, cache=cache, **options)
    got = fast.solve(demand, **options)
    assert got.throughput == pytest.approx(ref.throughput, abs=1e-9)
    assert got.num_pairs == ref.num_pairs
    assert got.status == ref.status
    return got


# one drawn (shape, policy, mode, pattern) space for every property
_drawn_solves = given(
    shape=st.sampled_from(SHAPES),
    arrangement=st.sampled_from(["absolute", "relative"]),
    policy=st.one_of(
        st.just(AllVlbPolicy()),
        st.builds(
            HopClassPolicy,
            st.integers(min_value=2, max_value=9),
            st.sampled_from([0.0, 0.3, 1.0]),
        ),
        st.builds(StrategicFiveHopPolicy, st.sampled_from(["2+3", "3+2"])),
        st.builds(OrderedVlbPolicy, st.sampled_from([0.5, 1.0])),
    ),
    mode=st.sampled_from(["uniform", "free"]),
    monotonic=st.booleans(),
    shift=st.integers(min_value=1, max_value=2),
)


class TestPropertyParity:
    @settings(max_examples=30, deadline=None)
    @_drawn_solves
    def test_fastmodel_equals_reference(
        self, shape, arrangement, policy, mode, monotonic, shift
    ):
        topo = shape(arrangement)
        fast = FastModel(topo)
        cache = PathStatsCache(topo)
        _assert_parity(
            fast,
            cache,
            Shift(topo, shift, 0).demand_matrix(),
            policy=policy,
            mode=mode,
            monotonic=monotonic,
        )

    @settings(max_examples=30, deadline=None)
    @_drawn_solves
    def test_strong_duality(
        self, shape, arrangement, policy, mode, monotonic, shift
    ):
        """Production's optimum is a dual objective, the reference's a
        primal one; and the point production recovers from the row duals
        is feasible in the reference's own constraint matrix."""
        topo = shape(arrangement)
        fast = FastModel(topo)
        demand = Shift(topo, shift, 0).demand_matrix()
        options = dict(policy=policy, mode=mode, monotonic=monotonic)
        with _linprog_calls(lp_model) as primal:
            ref = model_throughput(
                topo,
                demand,
                cache=PathStatsCache(topo),
                **options,
            )
        with _linprog_calls(fastpath) as dual:
            got = fast.solve(demand, **options)
        (((c,), lp, primal_res),) = primal
        ((_args, _kwargs, dual_res),) = dual
        # the reference minimises -lambda, production the dual's cost
        assert dual_res.fun == pytest.approx(-primal_res.fun, abs=1e-9)
        assert got.throughput == pytest.approx(ref.throughput, abs=1e-9)
        x = -dual_res.ineqlin.marginals
        assert x.shape == c.shape
        assert x.min() >= -1e-9 and x[0] <= 1.0 + 1e-9
        assert np.all(lp["A_ub"] @ x <= lp["b_ub"] + 1e-9)
        assert np.abs(lp["A_eq"] @ x).max() <= 1e-9
        assert c @ x == pytest.approx(primal_res.fun, abs=1e-9)


def _unsolved(*args, **kwargs):
    return OptimizeResult(
        status=1, success=False, message="Iteration limit reached",
        x=None, fun=None,
    )


class TestDualSolve:
    """What ``FastModel.solve`` does with HiGHS's answer."""

    def test_failed_solve_raises(self, monkeypatch):
        monkeypatch.setattr(fastpath, "linprog", _unsolved)
        with pytest.raises(RuntimeError) as err:
            FastModel(SMALL).solve(
                Shift(SMALL, 1, 0).demand_matrix(),
                policy=HopClassPolicy(4, 0.5),
            )
        message = str(err.value)
        for part in ("status 1", "Iteration limit", repr(SMALL), "50% 5-hop"):
            assert part in message

    def test_failed_solve_is_not_cached(self, monkeypatch, tmp_path):
        from repro.perf import ModelTask, SimCache, SweepExecutor

        monkeypatch.setattr(fastpath, "linprog", _unsolved)
        cache = SimCache(str(tmp_path))
        task = ModelTask(
            topo=SMALL, pattern=Shift(SMALL, 1, 0), policy=AllVlbPolicy()
        )
        assert task.key() is not None
        with SweepExecutor(jobs=1, cache=cache) as executor:
            with pytest.raises(RuntimeError, match=r"shift\(1,0\)"):
                executor.run_models([task])
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda y: y * 1.001,  # overloads every tight channel
            lambda y: np.where(np.arange(len(y)) == 1, y - 1e-3, y),
        ],
        ids=["infeasible", "unbalanced"],
    )
    def test_uncertified_point_raises(self, monkeypatch, spoil):
        """A "successful" answer whose recovered point violates the
        primal is refused, whatever the status flag says."""

        def tampered(*args, **kwargs):
            res = linprog(*args, **kwargs)
            res.ineqlin.marginals = spoil(res.ineqlin.marginals)
            return res

        demand = Shift(SMALL, 1, 0).demand_matrix()
        FastModel(SMALL).solve(demand)  # the untampered solve certifies
        monkeypatch.setattr(fastpath, "linprog", tampered)
        with pytest.raises(RuntimeError, match="not primal-feasible"):
            FastModel(SMALL).solve(demand)

    def test_monotonicity_pairs_memoised_per_mask(self):
        # the (long, short) class pairs depend on the class mask, not on
        # the weights: one entry serves every fraction of a hop level
        fast = FastModel(SMALL)
        demand = Shift(SMALL, 1, 0).demand_matrix()
        for frac in (0.25, 0.5, 0.75):
            fast.solve(demand, policy=HopClassPolicy(4, frac), mode="free")
        (struct,) = fast._patterns.values()
        assert len(struct._monopairs) == 1
        fast.solve(demand, policy=HopClassPolicy(3, 0.0), mode="free")
        assert len(struct._monopairs) == 2
        fast.solve(demand, policy=HopClassPolicy(3, 0.0), mode="uniform")
        assert len(struct._monopairs) == 2  # uniform has no such rows


class TestWeightsForPolicyRejection:
    def test_excluding_policy_rejected(self):
        from repro.model.lp_model import weights_for_policy

        policy = ExcludingPolicy(base=AllVlbPolicy())
        with pytest.raises(ValueError, match="class-weight"):
            weights_for_policy(policy)

    def test_explicit_pathset_rejected(self):
        from repro.model.lp_model import weights_for_policy

        with pytest.raises(ValueError, match="class-weight"):
            weights_for_policy(ExplicitPathSet())

    def test_unknown_policy_type_errors(self):
        from repro.model.lp_model import weights_for_policy
        from repro.routing.pathset import PathPolicy

        class Oddball(PathPolicy):
            def contains(self, topo, src, dst, desc):
                return True

            def describe(self):
                return "oddball"

        with pytest.raises(TypeError):
            weights_for_policy(Oddball())

    def test_model_evaluator_scores_unrepresentable_policy_low(self):
        # ExcludingPolicy is approximated by its base; ExplicitPathSet
        # has no base to fall back to, so it must score -1.0 instead of
        # raising out of Algorithm 1
        from repro.core.algorithm import model_evaluator

        evaluate = model_evaluator(SMALL, num_patterns=1)
        assert evaluate(ExplicitPathSet(), "explicit") == -1.0

    def test_model_evaluator_scores_ordered_policy_exactly(self):
        # no class-weight translation is no obstacle: FastModel solves
        # the policy's own blocks, so every ordered-VLB candidate of a
        # full mesh gets its real score instead of tying at -1
        from repro.core.algorithm import model_evaluator

        topo = FullMesh(8, p=2)
        policy = OrderedVlbPolicy(0.5)
        score = model_evaluator(topo, num_patterns=2)(policy, "ordered:0.5")
        fast = FastModel(topo)
        expected = np.mean(
            [
                fast.solve(
                    pattern.demand_matrix(), policy=policy, mode="uniform"
                ).throughput
                for pattern in type_2_set(topo, count=2, seed=500)
            ]
        )
        assert score == pytest.approx(expected, abs=1e-12)
        assert score > 0


class TestModelCache:
    def test_warm_cache_serves_model_results(self, tmp_path):
        from repro.perf import ModelTask, SimCache, SweepExecutor

        cache = SimCache(str(tmp_path))
        tasks = [
            ModelTask(
                topo=SMALL,
                pattern=Shift(SMALL, 1, 0),
                policy=HopClassPolicy(4, 0.5),
                mode="free",
            ),
            ModelTask(
                topo=SMALL,
                pattern=Shift(SMALL, 2, 0),
                policy=AllVlbPolicy(),
                mode="uniform",
            ),
        ]
        with SweepExecutor(jobs=1, cache=cache) as executor:
            cold = executor.run_models(tasks)
        assert cache.misses == len(tasks)
        with SweepExecutor(jobs=1, cache=cache) as executor:
            warm = executor.run_models(tasks)
        assert cache.hits == len(tasks)
        for c, w in zip(cold, warm):
            assert w.throughput == c.throughput
            assert w.min_fraction == c.min_fraction
            assert w.status == c.status
            assert w.num_pairs == c.num_pairs

    def test_kind_discriminator_isolates_records(self, tmp_path):
        # a model record must never deserialize as a sim result, even if
        # someone looks it up with the wrong accessor
        from repro.perf import ModelTask, SimCache, SweepExecutor

        cache = SimCache(str(tmp_path))
        task = ModelTask(
            topo=SMALL,
            pattern=Shift(SMALL, 1, 0),
            policy=AllVlbPolicy(),
        )
        with SweepExecutor(jobs=1, cache=cache) as executor:
            executor.run_models([task])
        key = task.key()
        assert key is not None
        assert cache.get_model(key) is not None
        assert cache.get(key) is None

    def test_model_spec_roundtrip(self):
        from repro.spec import ModelSpec

        spec = ModelSpec.from_objects(
            SMALL,
            Shift(SMALL, 1, 0),
            policy=HopClassPolicy(4, 0.5),
            mode="free",
            monotonic=False,
            seed=3,
        )
        again = ModelSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()
        res_a = spec.solve()
        res_b = again.solve()
        assert res_a.throughput == res_b.throughput

    def test_removed_engine_knob_is_rejected_by_name(self):
        from repro.spec import ModelSpec, SpecError

        data = ModelSpec.from_objects(
            SMALL, Shift(SMALL, 1, 0), policy=AllVlbPolicy()
        ).to_dict()
        # the format constant every existing fingerprint hashes
        assert data["engine"] == "fast"
        assert ModelSpec.from_dict(data).to_dict() == data
        with pytest.raises(SpecError, match="removed"):
            ModelSpec.from_dict({**data, "engine": "legacy"})

    def test_removed_subsampling_is_rejected_by_name(self, capsys):
        from repro.cli import main
        from repro.spec import ModelSpec, SpecError

        data = ModelSpec.from_objects(
            SMALL, Shift(SMALL, 1, 0), policy=AllVlbPolicy()
        ).to_dict()
        # a format constant, like "engine"
        assert data["max_descriptors"] is None
        with pytest.raises(SpecError, match="max_descriptors.*removed"):
            ModelSpec.from_dict({**data, "max_descriptors": 5})
        with pytest.raises(ValueError, match="max_descriptors was removed"):
            FastModel(SMALL, max_descriptors=5)
        with pytest.raises(SystemExit) as exit_:
            main(["model", "-t", "2,4,2,5", "--max-descriptors", "5"])
        assert exit_.value.code == 2
        assert "--max-descriptors" in capsys.readouterr().err


class TestJobsClamp:
    def test_oversubscription_logs_but_honours_request(self, caplog):
        import os

        from repro.perf import SweepExecutor

        cap = os.cpu_count() or 1
        with caplog.at_level("WARNING", logger="repro.perf.executor"):
            executor = SweepExecutor(jobs=cap + 1)
        assert any("oversubscribes" in r.message for r in caplog.records)
        assert executor.jobs == cap + 1
        executor.close()

    def test_within_capacity_is_silent(self, caplog):
        from repro.perf import SweepExecutor

        with caplog.at_level("WARNING", logger="repro.perf.executor"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                executor = SweepExecutor(jobs=1)
        assert not caplog.records
        executor.close()
