"""Fast checks of the validation experiment runners (tiny windows)."""

import pytest

from repro.experiments import Scale
from repro.experiments.validation import validate_adversarial, validate_uniform
from repro.topology import Dragonfly

TINY = Scale(window=60)


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(2, 4, 2, 5)


@pytest.mark.slow
class TestValidationRunners:
    def test_uniform_structure(self, topo):
        result = validate_uniform(topo, TINY)
        assert set(result.data) == {"min", "ugal-l", "vlb"}
        for row in result.data.values():
            assert row["saturation"] >= 0.0
        # MIN beats VLB on uniform traffic even at tiny windows
        assert (
            result.data["min"]["low_load_latency"]
            < result.data["vlb"]["low_load_latency"]
        )

    def test_adversarial_structure(self, topo):
        result = validate_adversarial(topo, TINY)
        assert result.data["min_bound"] == pytest.approx(
            topo.links_per_group_pair / (topo.a * topo.p)
        )
        assert (
            result.data["vlb"]["saturation"]
            > result.data["min"]["saturation"]
        )
