"""Figure 14: MIXED(50,50) on the large dfly(13,26,13,27), all six schemes.

Paper: T-UGAL variations keep a clear advantage over their conventional
counterparts on the large topology.
"""

from conftest import regen


def test_fig14_mixed_large(benchmark, scale):
    result = regen(benchmark, "fig14", scale)
    curves = result.data["curves"]
    # latency comparison at the common low load (see fig13 note)
    for base in ("UGAL-L", "PAR"):
        b = dict(curves[base])
        t = dict(curves[f"T-{base}"])
        common = sorted(set(b) & set(t))
        assert common, f"no common non-saturated load for {base}"
        x = common[0]
        assert t[x] < b[x] * 1.05, f"T-{base} not faster at load {x}"
