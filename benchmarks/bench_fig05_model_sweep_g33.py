"""Figure 5: Step-1 modeled throughput sweep on dfly(4,8,4,33).

Paper: best performance needs ALL VLB paths (one link per group pair), so
T-UGAL converges with UGAL on this topology.  Reproduced: restricted sets
model far below the full set.
"""

from conftest import regen


def test_fig05_model_sweep_g33(benchmark, scale):
    result = regen(benchmark, "fig05", scale)
    points = dict(result.data["points"])
    assert points["all VLB"] == max(points.values())
    # restricting to <=4 hops costs real capacity at g=33
    assert points["4-hop"] < 0.9 * points["all VLB"]
