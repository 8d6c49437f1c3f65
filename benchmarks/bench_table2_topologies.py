"""Table 2: parameters of the four evaluated dragonfly topologies."""

from conftest import regen


def test_table2_topologies(benchmark, scale):
    result = regen(benchmark, "table2", scale)
    rows = result.data["rows"]
    assert [r[1] for r in rows] == [1056, 544, 288, 9126]  # PEs
    assert [r[4] for r in rows] == [1, 2, 4, 13]  # links per group pair
