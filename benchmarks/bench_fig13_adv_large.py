"""Figure 13: adversarial shift(1,0) on the large dfly(13,26,13,27)
(9126 nodes), all six schemes.

Paper: same trends as the small topologies -- T- variants win at low and
high load.  This bench runs very short windows (``Scale.window_large``,
``REPRO_WINDOW_LARGE`` here) since the topology is 32x larger than
dfly(4,8,4,9).
"""

from conftest import regen


def test_fig13_adv_large(benchmark, scale):
    result = regen(benchmark, "fig13", scale)
    curves = result.data["curves"]
    # at the common low load, every T- variant cuts latency (the paper's
    # claim at both low and high load; saturation estimates are not
    # meaningful on the reduced ``Scale.large_loads`` ladder)
    for base in ("UGAL-L", "PAR", "UGAL-G"):
        b = dict(curves[base])
        t = dict(curves[f"T-{base}"])
        common = sorted(set(b) & set(t))
        assert common, f"no common non-saturated load for {base}"
        x = common[0]
        assert t[x] < b[x] * 1.02, f"T-{base} not faster at load {x}"
