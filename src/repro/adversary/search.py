"""Search core: strategies that hunt for worst-case traffic patterns.

A candidate is a node-level destination map (a partial permutation, the
same shape :class:`~repro.traffic.patterns.DiscoveredPermutation`
accepts).  Its score is the MIN-only LP throughput -- the
``hopclass:0,0.0`` policy admits no VLB path, so the model routes every
flow over its minimal paths and the score is exactly the saturation
throughput conventional minimal routing would reach.  *Lower is more
adversarial*: the paper's ADV shift scores ``links_per_group_pair *
h_links / p`` while uniform random sits near 1.0, and a good search
drives the score to (or below) the worst suite pattern.

Scoring runs through :meth:`repro.perf.executor.SweepExecutor.run_models`
so candidate batches fan out across the executor's threads, all solving
through one shared model of the topology, and repeated maps (restarts,
plateau revisits) come from the :class:`~repro.perf.cache.SimCache`
result cache.

Strategies register in :data:`SEARCH_REGISTRY` (the same
:class:`~repro.spec.registry.RegistryEntry` idiom as patterns and
policies) and implement a single method::

    search(topo, budget=..., seed=..., score_batch=..., pool=...)
        -> SearchOutcome

``pool`` carries the pre-scored suite patterns, so every strategy
starts from -- and can only improve on -- the paper's own adversaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.adversary.report import AdversaryReport
from repro.obs.manifest import RunManifest
from repro.spec import PatternSpec, PolicySpec, TopologySpec
from repro.spec.registry import Registry, RegistryEntry, SpecError
from repro.topology.base import Topology
from repro.traffic.patterns import NO_TRAFFIC, DiscoveredPermutation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.executor import SweepExecutor

__all__ = [
    "SEARCH_REGISTRY",
    "GreedyMatching",
    "HillClimb",
    "SearchOutcome",
    "greedy_dest_map",
    "run_search",
    "score_dest_maps",
]

# score_batch callback: a batch of destination maps -> one score each
# (MIN-only modeled throughput; lower = more adversarial).
ScoreBatch = Callable[[Sequence[np.ndarray]], List[float]]

# (destination map, score) -- the currency strategies trade in.
Candidate = Tuple[np.ndarray, float]


@dataclass
class SearchOutcome:
    """What one strategy run produced.

    ``trace`` records every improvement as ``{"scored": n, "score": s}``
    -- the running best after ``n`` scored candidates -- so reports can
    show convergence without any wall-clock bookkeeping.
    """

    dest: np.ndarray  # best destination map found (incl. the pool)
    score: float  # its MIN-only modeled throughput
    scored: int  # candidates this strategy scored (pool excluded)
    trace: List[Dict[str, float]] = field(default_factory=list)


def min_only_policy() -> "PolicySpec":
    """The scoring objective's policy spec (``hopclass:0,0.0``)."""
    return PolicySpec.make("hopclass", full_hops=0, extra_fraction=0.0)


def score_dest_maps(
    topo: Topology,
    dest_maps: Sequence[np.ndarray],
    executor: "SweepExecutor",
    *,
    seed: int = 0,
) -> List[float]:
    """MIN-only modeled throughput of each destination map (one batch).

    Maps are wrapped in :class:`DiscoveredPermutation` (registered, so
    the solves are spec-addressable and cacheable) and submitted as one
    ``run_models`` batch -- the executor dedups repeats, consults its
    cache, and fans misses across its threads.
    """
    from repro.perf.executor import ModelTask

    policy = min_only_policy().build()
    tasks = [
        ModelTask(
            topo,
            DiscoveredPermutation(topo, dest),
            policy,
            mode="free",
            seed=seed,
        )
        for dest in dest_maps
    ]
    results = executor.run_models(tasks)
    return [float(r.throughput) for r in results]


# ---------------------------------------------------------------------------
# Greedy maximal-matching constructor
# ---------------------------------------------------------------------------
def greedy_dest_map(topo: Topology, seed: int = 0) -> np.ndarray:
    """A switch-level permutation built to concentrate global-link load.

    The Jyothi-style greedy matching: visit source switches in a seeded
    random order; each picks the still-unclaimed destination switch
    whose group pair would carry the highest per-link load after adding
    this switch's ``p`` nodes (ties broken toward the smallest switch
    id, so the map is a pure function of ``(topo, seed)``).  Switches
    that can only reach their own group (or nothing) stay silent --
    intra-group traffic never loads a global link.

    Node level, the map preserves the within-switch index: node
    ``(sw, k)`` sends to ``(match(sw), k)``.
    """
    rng = np.random.default_rng(seed)
    n_sw = topo.num_switches
    order = rng.permutation(n_sw)
    taken = np.zeros(n_sw, dtype=bool)
    match = np.full(n_sw, -1, dtype=np.int64)
    pair_load: Dict[Tuple[int, int], float] = {}
    for src in order:
        src = int(src)
        g_src = topo.group_of(src)
        best_dst = -1
        best_score = -1.0
        for dst in range(n_sw):
            if taken[dst] or dst == src:
                continue
            g_dst = topo.group_of(dst)
            if g_dst == g_src:
                continue
            links = topo.links_between_groups(g_src, g_dst)
            if not links:
                continue
            key = (min(g_src, g_dst), max(g_src, g_dst))
            score = (pair_load.get(key, 0.0) + topo.p) / len(links)
            if score > best_score:  # strict: ties keep the smallest dst
                best_score = score
                best_dst = dst
        if best_dst >= 0:
            match[src] = best_dst
            taken[best_dst] = True
            g_dst = topo.group_of(best_dst)
            key = (min(g_src, g_dst), max(g_src, g_dst))
            pair_load[key] = pair_load.get(key, 0.0) + topo.p
    dest = np.full(topo.num_nodes, NO_TRAFFIC, dtype=np.int64)
    for sw in range(n_sw):
        if match[sw] >= 0:
            for k in range(topo.p):
                dest[topo.node_id(sw, k)] = topo.node_id(int(match[sw]), k)
    return dest


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GreedyMatching:
    """``greedy``: seeded restarts of the greedy matching constructor.

    Each of the ``budget`` candidates is :func:`greedy_dest_map` under a
    different visit order (``seed``, ``seed+1``, ...), all scored as one
    executor batch.  No refinement -- this is the constructive baseline
    the hill climb improves on.
    """

    def search(
        self,
        topo: Topology,
        *,
        budget: int,
        seed: int,
        score_batch: ScoreBatch,
        pool: Sequence[Candidate],
    ) -> SearchOutcome:
        best_dest, best_score = _pool_best(pool)
        trace: List[Dict[str, float]] = []
        maps = [greedy_dest_map(topo, seed=seed + i) for i in range(budget)]
        scores = score_batch(maps)
        scored = 0
        for dest, score in zip(maps, scores):
            scored += 1
            if best_dest is None or score < best_score:
                best_dest, best_score = dest, score
                trace.append({"scored": float(scored), "score": score})
        assert best_dest is not None
        return SearchOutcome(best_dest, best_score, scored, trace)


@dataclass(frozen=True)
class HillClimb:
    """``hillclimb``: seeded swap-mutation refinement of the best map.

    Starts from the strongest pool entry plus one greedy construction,
    then repeatedly scores a batch of ``batch`` mutants of the current
    best -- each mutant swaps the destinations of two seeded-random
    nodes (swaps preserve the partial-permutation invariant) -- keeping
    any strict improvement.  Batching keeps the executor's threads and
    cache busy; the climb is a pure function of ``(topo, budget,
    seed, pool)``.
    """

    batch: int = 8

    def search(
        self,
        topo: Topology,
        *,
        budget: int,
        seed: int,
        score_batch: ScoreBatch,
        pool: Sequence[Candidate],
    ) -> SearchOutcome:
        if self.batch < 1:
            raise SpecError("hillclimb batch must be >= 1")
        rng = np.random.default_rng(seed)
        trace: List[Dict[str, float]] = []
        best_dest, best_score = _pool_best(pool)
        scored = 0

        # seed the climb with one greedy construction (scored against
        # the budget: it is a candidate like any other)
        start = greedy_dest_map(topo, seed=seed)
        batch_maps = [start]
        while scored < budget:
            take = min(len(batch_maps), budget - scored)
            scores = score_batch(batch_maps[:take])
            for dest, score in zip(batch_maps[:take], scores):
                scored += 1
                if best_dest is None or score < best_score:
                    best_dest, best_score = dest, score
                    trace.append(
                        {"scored": float(scored), "score": score}
                    )
            if scored >= budget:
                break
            assert best_dest is not None
            batch_maps = [
                _swap_mutation(best_dest, rng)
                for _ in range(min(self.batch, budget - scored))
            ]
        assert best_dest is not None
        return SearchOutcome(best_dest, best_score, scored, trace)


def _pool_best(
    pool: Sequence[Candidate],
) -> Tuple[Optional[np.ndarray], float]:
    best_dest: Optional[np.ndarray] = None
    best_score = float("inf")
    for dest, score in pool:
        if score < best_score:
            best_dest, best_score = dest, score
    return best_dest, best_score


def _swap_mutation(
    dest: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Swap the destinations of two distinct nodes (seeded draw)."""
    out = dest.copy()
    i, j = rng.choice(len(out), size=2, replace=False)
    out[i], out[j] = out[j], out[i]
    return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
SEARCH_REGISTRY = Registry("SEARCH_REGISTRY", "search strategy")


def _parse_greedy(args: str, spec: str) -> Dict[str, int]:
    if args:
        raise SpecError(f"greedy takes no arguments (got {spec!r})")
    return {}


def _parse_hillclimb(args: str, spec: str) -> Dict[str, int]:
    if not args:
        return {}
    try:
        return {"batch": int(args)}
    except ValueError:
        raise SpecError(
            f"bad hillclimb spec {spec!r}: use hillclimb[:BATCH]"
        ) from None


SEARCH_REGISTRY.register(
    RegistryEntry(
        kind="greedy",
        build=lambda args: GreedyMatching(**args),
        to_dict=lambda s: {},
        parse=_parse_greedy,
        cls=GreedyMatching,
        help="greedy",
        example="greedy",
    )
)

SEARCH_REGISTRY.register(
    RegistryEntry(
        kind="hillclimb",
        build=lambda args: HillClimb(**args),
        to_dict=lambda s: {"batch": s.batch},
        parse=_parse_hillclimb,
        cls=HillClimb,
        help="hillclimb[:BATCH]",
        example="hillclimb:8",
    )
)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def run_search(
    topo: Topology,
    *,
    strategy: str = "hillclimb",
    budget: int = 32,
    seed: int = 0,
    executor: Optional["SweepExecutor"] = None,
    num_type1: Optional[int] = 6,
    num_type2: int = 4,
) -> AdversaryReport:
    """The whole pipeline: score the suite, search past it, report.

    The topology's own ``adversary_suite`` (TYPE_1 subsampled to
    ``num_type1`` patterns under the run seed, ``num_type2`` TYPE_2
    seeds) is scored first with the same MIN-only objective and handed
    to the strategy as its starting pool -- so the returned pattern is
    *never weaker* than the strongest scored suite member, and the
    report's ranking compares like with like.  ``strategy`` is a
    :data:`SEARCH_REGISTRY` mini-language string (``greedy``,
    ``hillclimb[:BATCH]``).

    Deterministic by construction: no wall clock, every random draw
    seeded from ``seed``.  Pass a cache-backed executor to make repeat
    searches (and re-scored suite members) near-free.
    """
    kind, strategy_args = SEARCH_REGISTRY.parse(strategy)
    strat = SEARCH_REGISTRY.build(kind, strategy_args)
    if budget < 1:
        raise SpecError("search budget must be >= 1")

    own_executor = executor is None
    if executor is None:
        from repro.perf.executor import SweepExecutor

        executor = SweepExecutor(jobs=1)
    hits_before = executor.cache_hits
    try:
        # ---- suite baseline (same subsampling draw as compute_tvlb) ----
        rng = np.random.default_rng(seed)
        t1, t2 = topo.adversary_suite(num_type2=num_type2, seed=seed)
        if num_type1 is not None and num_type1 < len(t1):
            idx = rng.choice(len(t1), size=num_type1, replace=False)
            t1 = [t1[i] for i in sorted(idx)]
        suite_patterns = list(t1) + list(t2)
        suite_maps = [
            np.asarray(p.dest_map, dtype=np.int64) for p in suite_patterns
        ]
        suite_scores = score_dest_maps(
            topo,
            suite_maps,
            executor,
            seed=seed,
        )
        suite_rows: List[Dict[str, Any]] = [
            {
                "label": p.describe(),
                "score": score,
                "family": "type1" if i < len(t1) else "type2",
            }
            for i, (p, score) in enumerate(
                zip(suite_patterns, suite_scores)
            )
        ]

        # ---- search ----
        def score_batch(maps: Sequence[np.ndarray]) -> List[float]:
            return score_dest_maps(topo, maps, executor, seed=seed)

        outcome = strat.search(
            topo,
            budget=budget,
            seed=seed,
            score_batch=score_batch,
            pool=list(zip(suite_maps, suite_scores)),
        )
    finally:
        if own_executor:
            executor.close()

    # ---- report ----
    pattern = DiscoveredPermutation(topo, outcome.dest)
    spec = PatternSpec.of(pattern)
    ranked = sorted(
        suite_rows
        + [
            {
                "label": pattern.describe(),
                "score": outcome.score,
                "family": "discovered",
            }
        ],
        key=lambda row: (row["score"], str(row["label"])),
    )
    topo_spec = TopologySpec.of(topo)
    manifest = RunManifest(
        kind="adversary",
        fingerprint=spec.fingerprint(),
        spec_fingerprint=spec.fingerprint(),
        topology=str(topo),
        routing="min",  # the scoring objective models MIN-only routing
        seed=seed,
        metrics={
            "best_score": outcome.score,
            "candidates_scored": outcome.scored,
            "suite_size": len(suite_patterns),
        },
    )
    return AdversaryReport(
        topology=str(topo),
        topology_spec=topo_spec.to_dict(),
        strategy=kind,
        strategy_args=strategy_args,
        budget=budget,
        seed=seed,
        candidates_scored=outcome.scored,
        best_score=outcome.score,
        kind=spec.kind,
        args=spec.args,
        pattern_label=pattern.describe(),
        pattern_fingerprint=spec.fingerprint(),
        suite=suite_rows,
        ranked=ranked,
        trace=outcome.trace,
        cache_hits=executor.cache_hits - hits_before,
        manifest=manifest,
    )
