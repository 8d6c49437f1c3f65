"""Figure 8: random permutation traffic, UGAL-L & PAR on dfly(4,8,4,9).

Paper: smaller improvements than the adversarial case (fewer packets are
VLB-routed): T-UGAL-L saturation 0.68 vs 0.63.
"""

from conftest import regen


def test_fig08_perm_ugall_par_g9(benchmark, scale):
    result = regen(benchmark, "fig08", scale)
    sat = result.data["saturation"]
    assert sat["T-UGAL-L"] >= 0.9 * sat["UGAL-L"]
    # permutation saturates much higher than adversarial traffic
    assert sat["UGAL-L"] > 0.3
