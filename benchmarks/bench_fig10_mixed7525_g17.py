"""Figure 10: MIXED(75,25) space-domain mixed traffic, UGAL-L & PAR on
dfly(4,8,4,17).

Paper: T-PAR saturation 0.46 vs PAR 0.40 (+15%).
"""

from conftest import regen


def test_fig10_mixed7525_g17(benchmark, scale):
    result = regen(benchmark, "fig10", scale)
    sat = result.data["saturation"]
    assert sat["T-PAR"] >= 0.9 * sat["PAR"]
    assert sat["T-UGAL-L"] >= 0.9 * sat["UGAL-L"]
