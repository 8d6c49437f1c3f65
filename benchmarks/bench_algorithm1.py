"""The full Algorithm-1 pipeline (Step 1 model sweep + Step 2 balance and
simulation ranking) on a small dense dragonfly.

On ``dfly(2,4,2,3)`` (4 links per group pair) the restricted candidate
sets carry the same simulated throughput as the full VLB set -- the
paper's core claim that short-path subsets provide sufficient diversity
on dense topologies.  Which specific candidate wins is within noise at
bench-scale windows (the margins are <2% on this 12-switch network), so
the assertion checks competitiveness rather than the exact winner; see
``examples/custom_topology_tvlb.py`` for a longer, more decisive run.
"""

from repro.experiments.ablations import algorithm1


def test_algorithm1_end_to_end(benchmark, scale):
    result = benchmark.pedantic(
        algorithm1, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    print()
    print(result)
    assert result.data["num_candidates"] >= 2
    # restricted sets must be competitive with the full VLB set: the
    # best candidate within 10% of every other (sufficient diversity)
    assert result.data["chosen"]
    assert result.data["scores_within"] <= 1.10