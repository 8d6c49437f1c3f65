"""Simulator validation runs (artifact-appendix style): reproduce the
qualitative MIN/VLB/UGAL behaviour of Kim et al. (ISCA '08) on a
maximum-size balanced dragonfly."""

from repro.experiments.validation import validate_adversarial, validate_uniform


def test_validation_uniform(benchmark, scale):
    result = benchmark.pedantic(
        validate_uniform, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    print()
    print(result)
    d = result.data
    # MIN wins on UR; VLB pays ~2x path length in latency and capacity
    assert d["min"]["low_load_latency"] < d["vlb"]["low_load_latency"]
    assert d["min"]["saturation"] > d["vlb"]["saturation"]
    # UGAL tracks MIN
    assert d["ugal-l"]["saturation"] > 0.8 * d["min"]["saturation"]


def test_validation_adversarial(benchmark, scale):
    result = benchmark.pedantic(
        validate_adversarial, kwargs={"scale": scale}, rounds=1, iterations=1
    )
    print()
    print(result)
    d = result.data
    # MIN collapses to the direct-link bound; VLB and UGAL sustain more
    assert d["min"]["saturation"] <= d["min_bound"] * 1.3
    assert d["vlb"]["saturation"] > 1.5 * d["min"]["saturation"]
    assert d["ugal-l"]["saturation"] > 1.5 * d["min"]["saturation"]
