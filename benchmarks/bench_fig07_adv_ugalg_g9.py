"""Figure 7: latency vs load for UGAL-G/T-UGAL-G under adversarial
shift(2,0) on dfly(4,8,4,9).

Paper: 12.9% lower latency at 0.1 load; saturation 0.30 vs 0.23 (+30%).
"""

from conftest import regen


def test_fig07_adv_ugalg_g9(benchmark, scale):
    result = regen(benchmark, "fig07", scale)
    sat = result.data["saturation"]
    assert sat["T-UGAL-G"] >= 0.95 * sat["UGAL-G"]
    curves = result.data["curves"]
    base = dict(curves["UGAL-G"])
    t = dict(curves["T-UGAL-G"])
    common = sorted(set(base) & set(t))
    assert common
    # latency reduction at low load (the paper's headline)
    assert t[common[0]] < base[common[0]]
