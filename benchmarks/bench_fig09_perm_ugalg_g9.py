"""Figure 9: random permutation traffic, UGAL-G on dfly(4,8,4,9).

Paper: similar low-load latency, saturation 0.66 vs 0.59 (+11.9%) --
shorter paths reduce overall network load even with perfect information.
"""

from conftest import regen


def test_fig09_perm_ugalg_g9(benchmark, scale):
    result = regen(benchmark, "fig09", scale)
    sat = result.data["saturation"]
    assert sat["T-UGAL-G"] >= 0.9 * sat["UGAL-G"]
    assert sat["UGAL-G"] > 0.3
