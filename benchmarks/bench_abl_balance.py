"""Ablation: the Step-2 load-balance adjustment (path removal) on/off."""

from repro.experiments.ablations import abl_balance


def test_abl_balance(benchmark, scale):
    result = benchmark.pedantic(
        abl_balance, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    print()
    print(result)
    # adjustment never cripples the set
    assert result.data["balanced"] >= 0.7 * result.data["unadjusted"]
