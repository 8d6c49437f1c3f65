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
from repro.model import fastpath, lp_model, pathstats, quotient
from repro.model.bounds import shift_saturation_bound
from repro.model.pathstats import compute_pair_stats
from repro.routing import minimal, vlb
from repro.routing.channels import ChannelIndex
from repro.routing.paths import Channel
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    OrderedVlbPolicy,
    PathPolicy,
    StrategicFiveHopPolicy,
)
from repro.routing.table import route_table
from repro.topology import CascadeDragonfly, Dragonfly, FullMesh
from repro.traffic import Shift, type_1_set, type_2_set
from repro.verify import verify_config

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


@dataclass(frozen=True)
class _DrawnSet:
    """A policy finer than the leg-split classes, drawn over a shape's
    own channels and descriptors once the shape is known:
    ``build(topo, pairs)``.

    ``"excluding"`` is a Table-1 set minus two channels and up to two
    descriptors per pair, the shape of Algorithm 1's balanced output;
    ``"explicit"`` lists up to three descriptors per pair, the first of
    them twice, so the set is drawn with multiplicity.
    """

    kind: str
    seed: int

    def build(self, topo, pairs):
        rng = np.random.default_rng(self.seed)
        options = {
            pair: list(vlb.enumerate_vlb_descriptors(topo, *pair))
            for pair in pairs
        }
        picks = {
            pair: [
                descs[i]
                for i in rng.choice(
                    len(descs), size=min(3, len(descs)), replace=False
                )
            ]
            for pair, descs in options.items()
        }
        if self.kind == "explicit":
            return ExplicitPathSet(
                paths={pair: descs + descs[:1] for pair, descs in picks.items()},
                label="drawn",
            )
        keys = route_table(topo).channel_keys
        return ExcludingPolicy(
            HopClassPolicy(4, 0.5),
            excluded_channels=frozenset(
                Channel(*keys[i])
                for i in rng.choice(len(keys), size=2, replace=False)
            ),
            excluded_descriptors=frozenset(
                (src, dst, desc)
                for (src, dst), descs in picks.items()
                for desc in descs[1:]
            ),
        )


def _drawn_policy(policy, topo, demand):
    """``policy``, or the set a :class:`_DrawnSet` draws over the pairs
    ``demand`` loads."""
    if not isinstance(policy, _DrawnSet):
        return policy
    src, dst = np.nonzero(demand)
    return policy.build(topo, list(zip(src.tolist(), dst.tolist())))


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

    def test_sub_class_policies_solve_exactly(self):
        """Sets finer than the leg-split classes are solved on their own
        policy blocks: excluding nothing is the base set, and an empty
        explicit set leaves MIN alone."""
        fast = FastModel(SMALL)
        cache = PathStatsCache(SMALL)
        demand = Shift(SMALL, 1, 0).demand_matrix()
        for mode in ("uniform", "free"):
            unexcluded = _assert_parity(
                fast, cache, demand,
                policy=ExcludingPolicy(base=AllVlbPolicy()), mode=mode,
            )
            assert unexcluded.throughput == pytest.approx(
                fast.solve(demand, policy=AllVlbPolicy(), mode=mode).throughput,
                abs=1e-9,
            )
            empty = _assert_parity(
                fast, cache, demand, policy=ExplicitPathSet(), mode=mode
            )
            assert empty.throughput == pytest.approx(
                fast.solve(
                    demand, policy=HopClassPolicy(0, 0.0), mode=mode
                ).throughput,
                abs=1e-9,
            )

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
    arrangement=st.sampled_from(["absolute", "relative", "circulant"]),
    policy=st.one_of(
        st.just(AllVlbPolicy()),
        st.builds(
            HopClassPolicy,
            st.integers(min_value=2, max_value=9),
            st.sampled_from([0.0, 0.3, 1.0]),
        ),
        st.builds(StrategicFiveHopPolicy, st.sampled_from(["2+3", "3+2"])),
        st.builds(OrderedVlbPolicy, st.sampled_from([0.5, 1.0])),
        st.builds(
            _DrawnSet,
            st.sampled_from(["excluding", "explicit"]),
            st.integers(min_value=0, max_value=2**16),
        ),
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
        demand = Shift(topo, shift, 0).demand_matrix()
        _assert_parity(
            fast,
            cache,
            demand,
            policy=_drawn_policy(policy, topo, demand),
            mode=mode,
            monotonic=monotonic,
        )

    @settings(max_examples=30, deadline=None)
    @_drawn_solves
    def test_strong_duality(
        self, shape, arrangement, policy, mode, monotonic, shift
    ):
        """Production's optimum is a dual objective (of the LP's
        equitable quotient), the reference's a primal one; and the
        full-size point production lifts from the quotient's row duals
        and certifies is feasible in the reference's own constraint
        matrix."""
        topo = shape(arrangement)
        fast = FastModel(topo)
        demand = Shift(topo, shift, 0).demand_matrix()
        options = dict(
            policy=_drawn_policy(policy, topo, demand),
            mode=mode,
            monotonic=monotonic,
        )
        with _linprog_calls(lp_model) as primal:
            ref = model_throughput(
                topo,
                demand,
                cache=PathStatsCache(topo),
                **options,
            )
        with _linprog_calls(fastpath) as dual:
            got, x = fast._solve(
                demand, None, options["policy"], mode, monotonic
            )
        (((c,), lp, primal_res),) = primal
        ((_args, _kwargs, dual_res),) = dual
        # the reference minimises -lambda, production the dual's cost
        assert dual_res.fun == pytest.approx(-primal_res.fun, abs=1e-9)
        assert got.throughput == pytest.approx(ref.throughput, abs=1e-9)
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


@contextmanager
def _returns(module, name):
    """Record ``(args, result)`` of every call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args, out))
        return out

    with mock.patch.object(module, name, spy):
        yield calls


def _lp_cost(lp):
    cost = np.zeros(lp.num_vars)
    cost[0] = 1.0
    return cost


class TestQuotient:
    """Every solve runs on the equitable quotient of its LP (see
    :mod:`repro.model.quotient`), refined once per skeleton and set of
    weight ties, and checked against the values of each solve."""

    @settings(max_examples=30, deadline=None)
    @_drawn_solves
    def test_refined_partition_is_equitable_and_stable(
        self, shape, arrangement, policy, mode, monotonic, shift
    ):
        topo = shape(arrangement)
        fast = FastModel(topo)
        demand = Shift(topo, shift, 0).demand_matrix()
        policy = _drawn_policy(policy, topo, demand)
        with _returns(quotient, "refine") as refined:
            lp = fast._lp(demand, None, policy, mode, monotonic)
        ((args, part),) = refined
        assert lp.quotient.part is part  # the refinement, not the fallback
        assert quotient.Quotient(
            part, lp.rows, lp.cols, len(lp.b), lp.num_vars
        ).matrix(lp.vals, (lp.b,), (_lp_cost(lp),)) is not None
        rows, cols, labels, _kinds, _colours = args
        again = quotient.refine(rows, cols, labels, part.rows, part.cols)
        np.testing.assert_array_equal(again.rows, part.rows)
        np.testing.assert_array_equal(again.cols, part.cols)
        # and the solve on it is certified, with a row per class
        with _linprog_calls(fastpath) as calls:
            fast.solve(demand, policy=policy, mode=mode, monotonic=monotonic)
        ((_, kwargs, _),) = calls
        assert kwargs["A_ub"].shape == (part.num_col_classes, part.num_row_classes)

    @pytest.mark.parametrize(
        "topo, collapsed",
        [
            (Dragonfly(4, 8, 4, 9, arrangement="circulant"), (9, 21)),
            (Dragonfly(4, 8, 4, 33, arrangement="relative"), (32, 88)),
        ],
        ids=["circulant-g9", "relative-g33"],
    )
    def test_collapse_is_pinned(self, topo, collapsed):
        fast = FastModel(topo)
        demand = Shift(topo, 1, 0).demand_matrix()
        full, solved = fast.shape(demand, mode="free")
        assert solved == collapsed
        assert full[0] > 10 * solved[0] and full[1] > 10 * solved[1]
        # at the flow bound, as the full LP is
        assert fast.solve(demand, mode="free").throughput == pytest.approx(
            shift_saturation_bound(topo), abs=1e-9
        )

    def test_memoized_partitions_hold_for_every_weight(self):
        """One model solving Table-1 sweeps in both modes: every weight
        of a mask solves on the partition its first solve refined (a
        partition refined from one weight's values would not hold for
        the next), and matches the reference."""
        topo = Dragonfly(2, 4, 2, 3)
        fast = FastModel(topo)
        cache = PathStatsCache(topo)
        grid = table1_datapoints(step=0.1)
        demands = [
            pat.demand_matrix()
            for pat in [Shift(topo, 1, 0)] + type_2_set(topo, count=1)
        ]
        for mode in ("uniform", "free"):
            with _returns(quotient.Quotient, "matrix") as checks:
                for demand in demands:
                    for policy in grid:
                        _assert_parity(
                            fast, cache, demand, policy=policy, mode=mode
                        )
            assert len(checks) == len(grid) * len(demands)
            assert all(q_vals is not None for _args, q_vals in checks)
        for struct in fast._patterns.values():
            assert len(struct._partitions) < len(grid)

    def test_tampered_partition_is_rejected_before_the_solve(self):
        demand = Shift(SMALL, 1, 0).demand_matrix()
        fast = FastModel(SMALL)
        want = fast.solve(demand, mode="free")
        (struct,) = fast._patterns.values()
        (key,) = struct._partitions
        part = struct._partitions[key]
        # every variable but lambda in one class: not equitable
        struct._partitions[key] = part._replace(
            cols=np.minimum(part.cols, 1), num_col_classes=2
        )
        struct._plan = None
        full, _solved = fast.shape(demand, mode="free")
        with _linprog_calls(fastpath) as calls:
            got = fast.solve(demand, mode="free")
        ((_, kwargs, _),) = calls
        assert kwargs["A_ub"].shape == full
        assert got.throughput == pytest.approx(want.throughput, abs=1e-9)


class TestCompileOnce:
    def test_explicit_policy_compiles_once_per_table(self, monkeypatch):
        """An ``ExplicitPathSet`` is a value: compiled once per route
        table -- not per pair block, not again by ``verify_config``, not
        again for an equal set built separately."""
        from repro.routing import table as table_module

        monkeypatch.setattr(table_module, "_TABLES", {})
        monkeypatch.setattr(table_module, "_LAST", (None, None))
        demand = Shift(SMALL, 1, 0).demand_matrix()
        src, dst = np.nonzero(demand)
        pairs = list(zip(src.tolist(), dst.tolist()))
        policy = ExplicitPathSet.from_policy(SMALL, HopClassPolicy(4, 0.5), pairs=pairs)
        with mock.patch.object(
            ExplicitPathSet, "membership_program", autospec=True,
            side_effect=ExplicitPathSet.membership_program,
        ) as compile_:
            FastModel(SMALL).solve(demand, policy=policy)
            assert compile_.call_count == 1
            verify_config(SMALL, policy)
            again = ExplicitPathSet.from_policy(
                SMALL, HopClassPolicy(4, 0.5), pairs=pairs
            )
            verify_config(SMALL, again)
            assert compile_.call_count == 1


class TestWeightsForPolicyRejection:
    def test_excluding_policy_rejected(self):
        from repro.model.lp_model import weights_for_policy

        # no class weights; the solvers model it on its own blocks
        policy = ExcludingPolicy(base=AllVlbPolicy())
        with pytest.raises(TypeError, match="class-weight"):
            weights_for_policy(policy)

    def test_explicit_pathset_rejected(self):
        from repro.model.lp_model import weights_for_policy

        with pytest.raises(TypeError, match="class-weight"):
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

    def test_model_evaluator_scores_balanced_set(self):
        # a balanced candidate is scored on its own set, not on the
        # Table-1 set it was cut from
        from repro.core.algorithm import model_evaluator
        from repro.core.balance import balance_adjust

        topo = Dragonfly(3, 6, 3, 7)
        base = HopClassPolicy(4, 0.25)
        demand = Shift(topo, 1, 0).demand_matrix()
        pairs = list(zip(*np.nonzero(demand)))[:4]
        policy, report = balance_adjust(topo, base, pairs)
        assert report.adjusted and isinstance(policy, ExcludingPolicy)
        evaluate = model_evaluator(topo, num_patterns=2)
        score = evaluate(policy, "balanced")
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
        assert abs(score - evaluate(base, "base")) > 1e-3

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
