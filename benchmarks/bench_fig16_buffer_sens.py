"""Figure 16: buffer-size sensitivity, UGAL-L, MIXED(50,50) on
dfly(4,8,4,17).

Paper: small buffers (8 flits) cannot cover the credit round trip and
lower throughput, but T-UGAL-L keeps its edge at both sizes.
"""

from conftest import regen


def test_fig16_buffer_sens(benchmark, scale):
    result = regen(benchmark, "fig16", scale)
    sat = result.data["saturation"]
    assert sat["T-UGAL-L(8)"] >= 0.9 * sat["UGAL-L(8)"]
    assert sat["T-UGAL-L(32)"] >= 0.9 * sat["UGAL-L(32)"]
    # buffers below the credit round-trip cost throughput
    assert sat["UGAL-L(8)"] <= sat["UGAL-L(32)"] * 1.05
