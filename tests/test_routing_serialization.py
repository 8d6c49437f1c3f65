"""Round-trip tests for T-VLB policy serialization."""

import numpy as np
import pytest

from repro.routing.paths import Channel
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    StrategicFiveHopPolicy,
)
from repro.routing.serialization import (
    load_policy,
    policy_from_dict,
    policy_to_dict,
    save_policy,
)
from repro.routing.vlb import VlbDescriptor, enumerate_vlb_descriptors
from repro.topology import Dragonfly


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(2, 4, 2, 3)


def _same_membership(topo, a, b, pairs):
    for src, dst in pairs:
        for desc in enumerate_vlb_descriptors(topo, src, dst):
            assert a.contains(topo, src, dst, desc) == b.contains(
                topo, src, dst, desc
            )


PAIRS = [(0, 8), (3, 10)]


class TestRoundTrips:
    def test_all(self, topo):
        pol = AllVlbPolicy()
        back = policy_from_dict(policy_to_dict(pol))
        _same_membership(topo, pol, back, PAIRS)

    def test_hopclass(self, topo):
        pol = HopClassPolicy(4, 0.37, seed=9)
        back = policy_from_dict(policy_to_dict(pol))
        assert back == pol
        _same_membership(topo, pol, back, PAIRS)

    def test_strategic(self, topo):
        pol = StrategicFiveHopPolicy("3+2")
        back = policy_from_dict(policy_to_dict(pol))
        assert back == pol

    def test_excluding(self, topo):
        d0 = next(enumerate_vlb_descriptors(topo, 0, 8))
        pol = ExcludingPolicy(
            HopClassPolicy(5, 0.5),
            excluded_channels=frozenset({Channel(0, 1), Channel(4, 8, 0)}),
            excluded_descriptors=frozenset({(0, 8, d0)}),
        )
        back = policy_from_dict(policy_to_dict(pol))
        _same_membership(topo, pol, back, PAIRS)
        assert back.excluded_channels == pol.excluded_channels
        assert back.excluded_descriptors == pol.excluded_descriptors

    def test_excluding_built_from_numpy_integers(self, topo):
        """np.int64 channels/descriptors (what a numpy-derived pair list
        feeds the balance adjustment) serialize as plain JSON ints and
        round-trip through the spec layer."""
        import json

        from repro.spec import PolicySpec

        i64 = np.int64
        pol = ExcludingPolicy(
            AllVlbPolicy(),
            excluded_channels=frozenset({Channel(i64(4), i64(8), i64(0))}),
            excluded_descriptors=frozenset(
                {(i64(0), i64(8), VlbDescriptor(i64(4), i64(0), i64(1)))}
            ),
        )
        data = PolicySpec.of(pol).to_dict()
        back = PolicySpec.from_dict(json.loads(json.dumps(data))).build()
        assert back.excluded_channels == {Channel(4, 8, 0)}
        assert back.excluded_descriptors == {(0, 8, VlbDescriptor(4, 0, 1))}
        _same_membership(topo, pol, back, PAIRS)

    def test_explicit(self, topo):
        descs = list(enumerate_vlb_descriptors(topo, 0, 8))[:5]
        pol = ExplicitPathSet(paths={(0, 8): descs}, label="mine")
        back = policy_from_dict(policy_to_dict(pol))
        assert back.label == "mine"
        assert back.paths == {(0, 8): descs}
        assert all(
            isinstance(d, VlbDescriptor) for d in back.paths[(0, 8)]
        )

    def test_file_roundtrip(self, topo, tmp_path):
        pol = StrategicFiveHopPolicy("2+3")
        path = tmp_path / "tvlb.json"
        save_policy(pol, str(path))
        back = load_policy(str(path))
        assert back == pol

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            policy_from_dict({"kind": "quantum"})

    def test_unserializable_type_raises(self):
        class Custom(AllVlbPolicy):
            pass

        # subclass of AllVlbPolicy still serializes as "all";
        # a truly foreign policy object must raise
        class Foreign:
            pass

        with pytest.raises(TypeError):
            policy_to_dict(Foreign())

    def test_algorithm_output_serializes(self, topo):
        """Any policy Algorithm 1 can emit survives a round trip."""
        from repro.core import compute_tvlb

        def cheap(policy, label):
            return -getattr(policy, "full_hops", 6)

        res = compute_tvlb(topo, evaluator=cheap, seed=0)
        back = policy_from_dict(policy_to_dict(res.policy))
        _same_membership(topo, res.policy, back, PAIRS)
