"""Figure 12: TMIXED(50,50) time-domain mixed traffic, UGAL-L & PAR on
dfly(4,8,4,17).

Paper: the T-UGAL advantage also holds when every node mixes UR and
adversarial destinations packet by packet.
"""

from conftest import regen


def test_fig12_tmixed5050_g17(benchmark, scale):
    result = regen(benchmark, "fig12", scale)
    sat = result.data["saturation"]
    assert sat["T-UGAL-L"] >= 0.9 * sat["UGAL-L"]
    assert sat["T-PAR"] >= 0.9 * sat["PAR"]
