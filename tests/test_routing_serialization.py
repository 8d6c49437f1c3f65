"""Round-trip tests for T-VLB policy serialization.

A policy's JSON form is its ``repro.spec`` registry entry:
``PolicySpec.of(p).to_dict()`` / ``PolicySpec.from_dict(...).build()`` in
memory, :func:`repro.spec.save_policy` / ``PolicySpec.parse("@file")`` on
disk.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.paths import Channel
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    OrderedVlbPolicy,
    StrategicFiveHopPolicy,
)
from repro.routing.vlb import VlbDescriptor, enumerate_vlb_descriptors
from repro.spec import POLICY_REGISTRY, PolicySpec, SpecError, save_policy
from repro.topology import Dragonfly


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(2, 4, 2, 3)


def _roundtrip(policy):
    """Through the canonical dict and real JSON text, as a file would."""
    data = json.loads(json.dumps(PolicySpec.of(policy).to_dict()))
    return PolicySpec.from_dict(data).build()


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
        back = _roundtrip(pol)
        _same_membership(topo, pol, back, PAIRS)

    def test_hopclass(self, topo):
        pol = HopClassPolicy(4, 0.37, seed=9)
        back = _roundtrip(pol)
        assert back == pol
        _same_membership(topo, pol, back, PAIRS)

    def test_strategic(self, topo):
        pol = StrategicFiveHopPolicy("3+2")
        back = _roundtrip(pol)
        assert back == pol

    def test_excluding(self, topo):
        d0 = next(enumerate_vlb_descriptors(topo, 0, 8))
        pol = ExcludingPolicy(
            HopClassPolicy(5, 0.5),
            excluded_channels=frozenset({Channel(0, 1), Channel(4, 8, 0)}),
            excluded_descriptors=frozenset({(0, 8, d0)}),
        )
        back = _roundtrip(pol)
        _same_membership(topo, pol, back, PAIRS)
        assert back.excluded_channels == pol.excluded_channels
        assert back.excluded_descriptors == pol.excluded_descriptors

    def test_excluding_built_from_numpy_integers(self, topo):
        """np.int64 channels/descriptors (what a numpy-derived pair list
        feeds the balance adjustment) serialize as plain JSON ints and
        round-trip through the spec layer."""
        i64 = np.int64
        pol = ExcludingPolicy(
            AllVlbPolicy(),
            excluded_channels=frozenset({Channel(i64(4), i64(8), i64(0))}),
            excluded_descriptors=frozenset(
                {(i64(0), i64(8), VlbDescriptor(i64(4), i64(0), i64(1)))}
            ),
        )
        back = _roundtrip(pol)
        assert back.excluded_channels == {Channel(4, 8, 0)}
        assert back.excluded_descriptors == {(0, 8, VlbDescriptor(4, 0, 1))}
        _same_membership(topo, pol, back, PAIRS)

    def test_explicit(self, topo):
        descs = list(enumerate_vlb_descriptors(topo, 0, 8))[:5]
        pol = ExplicitPathSet(paths={(0, 8): descs}, label="mine")
        back = _roundtrip(pol)
        assert back.label == "mine"
        assert back.paths == {(0, 8): tuple(descs)}
        assert all(
            isinstance(d, VlbDescriptor) for d in back.paths[(0, 8)]
        )

    def test_file_roundtrip(self, topo, tmp_path):
        pol = StrategicFiveHopPolicy("2+3")
        path = tmp_path / "tvlb.json"
        save_policy(pol, str(path))
        assert path.read_text().endswith("}\n")
        back = PolicySpec.parse(f"@{path}").build()
        assert back == pol

    def test_unknown_kind_raises(self):
        with pytest.raises(SpecError, match="unknown policy 'quantum'"):
            PolicySpec.from_dict({"kind": "quantum"})
        # a nested base goes through the same registry
        bad = {
            "kind": "excluding",
            "args": {
                "base": {"kind": "quantum"},
                "excluded_channels": [],
                "excluded_descriptors": [],
            },
        }
        with pytest.raises(SpecError, match="unknown policy 'quantum'"):
            PolicySpec.from_dict(bad).build()

    def test_unserializable_type_raises(self, tmp_path):
        class Custom(AllVlbPolicy):
            pass

        class Foreign:
            pass

        # dispatch is on the exact type: a subclass of a registered policy
        # may behave differently, so it has no spec, and neither has a
        # foreign object
        for policy in (Custom(), Foreign()):
            with pytest.raises(SpecError, match="no registered spec"):
                PolicySpec.of(policy)
            with pytest.raises(SpecError):
                save_policy(policy, str(tmp_path / "x.json"))
        assert not (tmp_path / "x.json").exists()

    def test_algorithm_output_serializes(self, topo):
        """Any policy Algorithm 1 can emit survives a round trip."""
        from repro.core import compute_tvlb

        def cheap(policy, label):
            return -getattr(policy, "full_hops", 6)

        res = compute_tvlb(topo, evaluator=cheap, seed=0)
        back = _roundtrip(res.policy)
        _same_membership(topo, res.policy, back, PAIRS)


class _NoVlb(HopClassPolicy):
    """Ad-hoc subclass: admits no VLB path, whatever its fields say."""

    def contains(self, topo, src, dst, desc):
        return False


def test_excluding_over_adhoc_base_has_no_spec():
    """The nested base dispatches on its exact type, like the top level:
    a spec of the wrapper would otherwise build a different base."""
    with pytest.raises(SpecError, match="_NoVlb"):
        PolicySpec.of(ExcludingPolicy(_NoVlb(4, 0.5)))


def test_nested_base_encodes_numbers_like_the_top_level():
    top = PolicySpec.of(HopClassPolicy(5, 1)).args
    nested = PolicySpec.of(ExcludingPolicy(HopClassPolicy(5, 1))).args
    assert nested["base"] == {"kind": "hopclass", **top}
    assert isinstance(nested["base"]["extra_fraction"], float)


def test_file_string_and_object_forms_fingerprint_alike(tmp_path):
    """A file that omits a defaulted field, or writes a float as an int,
    names the same policy as the object and the mini-language do."""
    cases = [
        (
            {"kind": "hopclass", "full_hops": 4, "extra_fraction": 0.5},
            HopClassPolicy(4, 0.5),
            "hopclass:4,0.5",
        ),
        (
            {"kind": "hopclass", "full_hops": 5, "extra_fraction": 1,
             "seed": 0},
            HopClassPolicy(5, 1.0),
            "hopclass:5,1",
        ),
    ]
    for i, (data, policy, text) in enumerate(cases):
        path = tmp_path / f"p{i}.json"
        path.write_text(json.dumps(data))
        from_file = PolicySpec.parse(f"@{path}")
        assert from_file.build() == policy
        assert (
            from_file.fingerprint()
            == PolicySpec.of(policy).fingerprint()
            == PolicySpec.parse(text).fingerprint()
        )


# ---------------------------------------------------------------------------
# Every registered kind round-trips: in memory and through a file
# ---------------------------------------------------------------------------
TOPO = Dragonfly(2, 4, 2, 3)
_PAIRS = [(s, d) for s in range(TOPO.num_switches) for d in (0, 8, 10) if s != d]
_seeds = st.integers(0, 2**16)
_fractions = st.floats(0.0, 1.0, allow_nan=False)

_simple = st.one_of(
    st.just(AllVlbPolicy()),
    st.builds(
        HopClassPolicy, st.sampled_from([0, 2, 3, 4, 5, 6, 12]), _fractions,
        seed=_seeds,
    ),
    st.builds(StrategicFiveHopPolicy, st.sampled_from(["2+3", "3+2"])),
    st.builds(
        OrderedVlbPolicy, st.floats(0.0, 1.0, exclude_min=True),
        seed=_seeds,
    ),
)


@st.composite
def _excluding(draw, base):
    """Exclusions named by numpy integers, as the balance step makes."""
    i64 = np.int64
    pairs = draw(st.lists(st.sampled_from(_PAIRS), max_size=3))
    triples = set()
    for src, dst in pairs:
        descs = list(enumerate_vlb_descriptors(TOPO, src, dst))
        desc = descs[draw(st.integers(0, len(descs) - 1))]
        triples.add((i64(src), i64(dst), VlbDescriptor(*map(i64, desc))))
    channels = draw(st.lists(
        st.builds(
            Channel,
            st.integers(0, TOPO.num_switches - 1).map(i64),
            st.integers(0, TOPO.num_switches - 1).map(i64),
            st.integers(-1, 1).map(i64),
        ),
        max_size=3,
    ))
    return ExcludingPolicy(
        draw(base),
        excluded_channels=frozenset(channels),
        excluded_descriptors=frozenset(triples),
    )


@st.composite
def _explicit(draw):
    paths = {}
    for src, dst in draw(st.lists(st.sampled_from(_PAIRS), max_size=3)):
        descs = list(enumerate_vlb_descriptors(TOPO, src, dst))
        # repeats allowed: a listed path may be sampled twice as often
        paths[(src, dst)] = draw(
            st.lists(st.sampled_from(descs), min_size=1, max_size=4)
        )
    return ExplicitPathSet(paths=paths, label=draw(st.text(max_size=8)))


_policies = st.one_of(
    _simple,
    _excluding(_simple),
    _excluding(_excluding(_simple)),
    _explicit(),
    _excluding(_explicit()),
)


def test_strategies_cover_every_registered_kind():
    covered = {"all", "hopclass", "strategic", "ordered", "excluding",
               "explicit"}
    assert set(POLICY_REGISTRY.kinds()) == covered


@settings(max_examples=60, deadline=None)
@given(policy=_policies)
def test_every_policy_kind_roundtrips(tmp_path_factory, policy):
    spec = PolicySpec.of(policy)
    assert spec.build() == policy
    assert _roundtrip(policy) == policy
    path = tmp_path_factory.mktemp("policy") / "p.json"
    save_policy(policy, str(path))
    assert PolicySpec.parse(f"@{path}").fingerprint() == spec.fingerprint()
