"""Ablation: strategic deterministic 5-hop selection vs a random 50%
subset (Section 3.3.3 motivates the strategic choices)."""

from repro.experiments.ablations import abl_strategic


def test_abl_strategic(benchmark, scale):
    result = benchmark.pedantic(
        abl_strategic, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    print()
    print(result)
    # all three are competitive restricted sets
    assert all(v > 0.1 for v in result.data.values())
