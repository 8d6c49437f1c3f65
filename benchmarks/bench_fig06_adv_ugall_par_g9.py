"""Figure 6: latency vs load for UGAL-L/T-UGAL-L/PAR/T-PAR under the
adversarial shift(2,0) pattern on dfly(4,8,4,9).

Paper: T-UGAL-L 9.2% lower latency at 0.1 load, saturation 0.29 vs 0.23;
T-PAR 12.9% lower latency at 0.2, saturation 0.38 vs 0.29.
"""

from conftest import regen


def test_fig06_adv_ugall_par_g9(benchmark, scale):
    result = regen(benchmark, "fig06", scale)
    sat = result.data["saturation"]
    # T- variants keep (or beat) the conventional saturation throughput
    assert sat["T-UGAL-L"] >= 0.9 * sat["UGAL-L"]
    assert sat["T-PAR"] >= 0.9 * sat["PAR"]
    # and reduce latency below saturation
    curves = result.data["curves"]
    base = dict(curves["UGAL-L"])
    tugal = dict(curves["T-UGAL-L"])
    common = sorted(set(base) & set(tugal))
    assert common, "no common non-saturated loads"
    assert sum(tugal[x] < base[x] * 1.02 for x in common) >= len(common) // 2
