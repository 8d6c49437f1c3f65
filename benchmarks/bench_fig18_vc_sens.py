"""Figure 18: VC allocation scheme sensitivity, UGAL-G, shift(1,0) on
dfly(4,8,4,9): routing(4) = Won et al. allocation vs routing(6) = one VC
per hop.

Paper: the schemes trade buffer count against head-of-line blocking, and
the T- variant consistently out-performs its counterpart under both.
"""

from conftest import regen


def test_fig18_vc_sens(benchmark, scale):
    result = regen(benchmark, "fig18", scale)
    sat = result.data["saturation"]
    assert sat["T-UGAL-G(4)"] >= 0.9 * sat["UGAL-G(4)"]
    assert sat["T-UGAL-G(6)"] >= 0.9 * sat["UGAL-G(6)"]
