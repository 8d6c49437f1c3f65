"""Figure 4: Step-1 modeled throughput sweep on dfly(4,8,4,9).

Paper: best 0.58 at "60% 5-hop", 0.56 with all VLB.  Our uniform-selection
LP rises steeply from the diversity-starved 3-hop point toward the
flow-conservation bound (0.5625 for shift patterns) at all-VLB, with local
structure in the partial-5-hop region; the paper's small interior peak
above 0.5625 cannot appear in any capacity-conserving model (see
EXPERIMENTS.md).
"""

from conftest import regen


def test_fig04_model_sweep_g9(benchmark, scale):
    result = regen(benchmark, "fig04", scale)
    points = dict(result.data["points"])
    # diversity starved at 3-hop, near the bound with all VLB
    assert points["3-hop"] < 0.3
    assert points["all VLB"] > 0.5
    # strong rise from the small sets toward the full set
    assert points["4-hop"] < points["all VLB"]
    assert points["all VLB"] <= 0.5625 + 1e-6  # the analytic bound
