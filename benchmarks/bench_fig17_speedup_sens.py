"""Figure 17: router internal speedup sensitivity, PAR, MIXED(25,75) on
dfly(4,8,4,17).

Paper: speedup 1 suffers head-of-line blocking; the T-PAR advantage holds
at both speedups.
"""

from conftest import regen


def test_fig17_speedup_sens(benchmark, scale):
    result = regen(benchmark, "fig17", scale)
    sat = result.data["saturation"]
    assert sat["T-PAR(1)"] >= 0.9 * sat["PAR(1)"]
    assert sat["T-PAR(2)"] >= 0.9 * sat["PAR(2)"]
    # more crossbar bandwidth never hurts
    assert sat["PAR(2)"] >= 0.9 * sat["PAR(1)"]
