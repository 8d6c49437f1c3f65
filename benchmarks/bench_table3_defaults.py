"""Table 3: default network parameters used in the simulations."""

from conftest import regen


def test_table3_defaults(benchmark, scale):
    result = regen(benchmark, "table3", scale)
    params = dict(result.data["params"])
    assert params["buffer size"] == 32
    assert params["link latency (local)"] == 10
    assert params["link latency (global)"] == 15
    assert params["switch speed-up"] == 2
