"""Figure 11: MIXED(25,75) -- mostly adversarial mixed traffic on
dfly(4,8,4,17).

Paper: as traffic becomes more adversarial the T- advantage grows:
T-PAR saturation 0.30 vs PAR 0.25 (+20%).
"""

from conftest import regen


def test_fig11_mixed2575_g17(benchmark, scale):
    result = regen(benchmark, "fig11", scale)
    sat = result.data["saturation"]
    assert sat["T-PAR"] >= 0.9 * sat["PAR"]
    # more adversarial -> lower absolute saturation than MIXED(75,25)
    assert sat["PAR"] < 0.6
