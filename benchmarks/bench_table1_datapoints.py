"""Table 1: the datapoint grid probed in coarse-grain Step 1."""

from conftest import regen


def test_table1_datapoints(benchmark, scale):
    result = regen(benchmark, "table1", scale)
    assert result.data["count"] == 31
