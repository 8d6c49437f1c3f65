"""Figure 15: link-latency sensitivity, UGAL-G, random permutation on
dfly(4,8,4,17).

Paper: larger link latencies change absolute numbers but the T-UGAL-G
advantage over UGAL-G persists in both settings.
"""

from conftest import regen


def test_fig15_linklat_sens(benchmark, scale):
    result = regen(benchmark, "fig15", scale)
    sat = result.data["saturation"]
    assert sat["T-UGAL-G(10,15)"] >= 0.9 * sat["UGAL-G(10,15)"]
    assert sat["T-UGAL-G(40,60)"] >= 0.9 * sat["UGAL-G(40,60)"]
