"""The topology abstraction layer, end to end.

Covers the TOPOLOGY registry round trip for every registered kind
(spec/of/parse/build/fingerprint parity), the per-topology hooks the
rest of the stack dispatches on, the cross-topology deadlock
certification matrix (each topology's declared VC scheme certifies;
a seeded-cyclic mutant fails), the ordered-VLB policy and its codec,
the legacy-model fallback for policies with no class-weight
translation, and Algorithm 1 running end to end on a full mesh.
"""

import json

import numpy as np
import pytest

from repro.core import compute_tvlb
from repro.model.fastpath import FastModel
from repro.model.lp_model import model_throughput
from repro.routing.channels import Channel
from repro.routing.pathset import AllVlbPolicy, OrderedVlbPolicy
from repro.routing.serialization import policy_from_dict, policy_to_dict
from repro.routing.vlb import enumerate_vlb_descriptors
from repro.sim import SimParams
from repro.spec import PolicySpec, SpecError, TopologySpec
from repro.spec.registry import TOPOLOGY_REGISTRY
from repro.topology import (
    DEFAULT_DRAGONFLY,
    CascadeDragonfly,
    Dragonfly,
    FullMesh,
    default_dragonfly,
)
from repro.traffic import Shift
from repro.verify import build_cdg, certify_deadlock_freedom

TOPOLOGIES = [
    Dragonfly(2, 4, 2, 5),
    CascadeDragonfly(2, 4, 2, 5, rows=2, cols=2),
    FullMesh(6, p=2),
]


# ---------------------------------------------------------------------------
# Registry round trips
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "topo", TOPOLOGIES, ids=lambda t: type(t).__name__
)
def test_spec_of_build_round_trip(topo):
    spec = TopologySpec.of(topo)
    rebuilt = spec.build()
    assert type(rebuilt) is type(topo)
    assert rebuilt == topo


@pytest.mark.parametrize(
    "topo", TOPOLOGIES, ids=lambda t: type(t).__name__
)
def test_spec_dict_round_trip_and_fingerprint_parity(topo):
    spec = TopologySpec.of(topo)
    data = json.loads(json.dumps(spec.to_dict()))  # through-serialization
    back = TopologySpec.from_dict(data)
    assert back == spec
    assert back.fingerprint() == spec.fingerprint()


def test_dfly_dict_layout_is_kindless():
    """The historical dragonfly dict layout is preserved byte for byte."""
    assert TopologySpec.of(Dragonfly(4, 8, 4, 9)).to_dict() == {
        "p": 4, "a": 8, "h": 4, "g": 9, "arrangement": "absolute",
    }
    cascade = TopologySpec.of(
        CascadeDragonfly(2, 4, 2, 5, rows=2, cols=2)
    ).to_dict()
    assert cascade == {
        "p": 2, "a": 4, "h": 2, "g": 5, "arrangement": "absolute",
        "rows": 2, "cols": 2,
    }


def test_fullmesh_dict_carries_kind_and_args():
    spec = TopologySpec.of(FullMesh(8, p=2))
    assert spec.to_dict() == {
        "kind": "full-mesh", "args": {"n": 8, "p": 2},
    }


def test_parse_forms_agree():
    assert TopologySpec.parse("4,8,4,9") == TopologySpec.parse("dfly:4,8,4,9")
    fm = TopologySpec.parse("full-mesh:8,2")
    assert fm == TopologySpec.of(FullMesh(8, p=2))
    assert TopologySpec.parse("full-mesh:8").build() == FullMesh(8, p=1)
    cascade = TopologySpec.parse("cascade:2,4,2,5,2,2").build()
    assert isinstance(cascade, CascadeDragonfly)
    assert (cascade.rows, cascade.cols) == (2, 2)


def test_parse_rejects_garbage_with_registry_help():
    with pytest.raises(SpecError, match="full-mesh"):
        TopologySpec.parse("not-a-topology")


def test_registry_lists_all_builtin_kinds():
    assert {"dfly", "cascade", "full-mesh"} <= set(TOPOLOGY_REGISTRY.kinds())


def test_default_dragonfly_constant():
    assert DEFAULT_DRAGONFLY == Dragonfly(4, 8, 4, 9)
    fresh = default_dragonfly()
    assert fresh == DEFAULT_DRAGONFLY
    assert fresh is not DEFAULT_DRAGONFLY


# ---------------------------------------------------------------------------
# Per-topology hooks
# ---------------------------------------------------------------------------
def test_dragonfly_hooks_defaults():
    topo = Dragonfly(2, 4, 2, 5)
    assert topo.deadlock_vc_scheme is None
    assert isinstance(topo.baseline_policy(), AllVlbPolicy)
    from repro.core.datapoints import table1_datapoints

    assert [p.describe() for p in topo.tvlb_datapoints(step=0.5)] == [
        p.describe() for p in table1_datapoints(step=0.5)
    ]


def test_fullmesh_hooks():
    topo = FullMesh(6)
    assert topo.deadlock_vc_scheme == "none"
    assert topo.baseline_policy() is None
    ladder = topo.tvlb_datapoints(step=0.25)
    assert all(isinstance(p, OrderedVlbPolicy) for p in ladder)
    assert [p.fraction for p in ladder] == [0.25, 0.5, 0.75, 1.0]


def test_fullmesh_structure():
    topo = FullMesh(6, p=2)
    assert topo.n == 6
    assert (topo.a, topo.h, topo.g) == (1, 5, 6)
    assert topo.max_local_hops == 1
    assert topo.links_per_group_pair == 1
    assert topo.num_switches == 6
    assert topo.num_nodes == 12


# ---------------------------------------------------------------------------
# Ordered-VLB policy + codec
# ---------------------------------------------------------------------------
def test_ordered_policy_membership_is_ordered():
    topo = FullMesh(6)
    pol = OrderedVlbPolicy()
    for src, dst in [(0, 1), (2, 4), (1, 0)]:
        mids = [
            d.mid for d in pol.iter_descriptors(topo, src, dst)
        ]
        assert mids  # some candidate exists below the max id
        assert all(m > src and m > dst for m in mids)
    # pairs containing the max switch id admit no ordered candidate
    top = topo.num_switches - 1
    assert list(pol.iter_descriptors(topo, 0, top)) == []
    assert list(pol.iter_descriptors(topo, top, 0)) == []


def test_ordered_policy_fraction_subsets_nest():
    topo = FullMesh(8)
    full = {
        (s, d, desc.mid)
        for s in range(8)
        for d in range(8)
        if s != d
        for desc in OrderedVlbPolicy().iter_descriptors(topo, s, d)
    }
    half = {
        (s, d, desc.mid)
        for s in range(8)
        for d in range(8)
        if s != d
        for desc in OrderedVlbPolicy(0.5).iter_descriptors(topo, s, d)
    }
    assert half < full
    assert 0 < len(half) < len(full)


def test_ordered_policy_validation():
    with pytest.raises(ValueError):
        OrderedVlbPolicy(fraction=0.0)
    with pytest.raises(ValueError):
        OrderedVlbPolicy(fraction=1.5)


def test_ordered_policy_codec_round_trips():
    pol = OrderedVlbPolicy(fraction=0.5, seed=3)
    assert policy_from_dict(policy_to_dict(pol)) == pol
    spec = PolicySpec.of(pol)
    assert spec.build() == pol
    assert PolicySpec.parse("ordered:0.5,3") == spec
    assert PolicySpec.parse("ordered").build() == OrderedVlbPolicy()
    assert "ordered" in pol.describe() or "%" in pol.describe()


# ---------------------------------------------------------------------------
# Cross-topology certification matrix
# ---------------------------------------------------------------------------
CERTIFY_MATRIX = [
    (Dragonfly(2, 4, 2, 5), AllVlbPolicy(), "won"),
    (Dragonfly(2, 4, 2, 5), AllVlbPolicy(), "perhop"),
    (CascadeDragonfly(2, 4, 2, 5, rows=2, cols=2), AllVlbPolicy(), "won"),
    (FullMesh(8, p=2), OrderedVlbPolicy(), "none"),
    (FullMesh(8, p=2), OrderedVlbPolicy(fraction=0.5), "none"),
]


@pytest.mark.parametrize(
    "topo,policy,scheme",
    CERTIFY_MATRIX,
    ids=[
        f"{type(t).__name__}-{s}-{p.describe()}".replace(" ", "_")
        for t, p, s in CERTIFY_MATRIX
    ],
)
def test_declared_scheme_certifies(topo, policy, scheme):
    res = certify_deadlock_freedom(topo, policy, scheme=scheme)
    assert res.cycle is None, res.cycle
    assert res.exhaustive
    assert res.num_edges > 0


def test_all_vlb_under_one_vc_deadlocks():
    """Negative control: the unordered set cycles without VC protection."""
    res = certify_deadlock_freedom(FullMesh(8, p=2), AllVlbPolicy(),
                                   scheme="none")
    assert res.cycle is not None


def test_seeded_cycle_mutant_fails_certification():
    topo = FullMesh(6, p=2)
    graph = build_cdg(topo, OrderedVlbPolicy(), scheme="none")
    assert graph.find_cycle() is None
    link = topo.global_links[0]
    fwd = Channel(link.switch_a, link.switch_b, link.slot)
    rev = Channel(link.switch_b, link.switch_a, link.slot)
    graph.add_dependency(fwd, 0, rev, 0)
    graph.add_dependency(rev, 0, fwd, 0)
    cycle = graph.find_cycle()
    assert cycle is not None


# ---------------------------------------------------------------------------
# One LP pipeline on the second topology
# ---------------------------------------------------------------------------
def test_ordered_policy_is_enumerated_exactly_by_both_assemblies():
    topo = FullMesh(6, p=2)
    demand = Shift(topo, 1, 0).demand_matrix()
    model = FastModel(topo)
    # no class-weight translation: FastModel solves over policy blocks
    for fraction in (1.0, 0.5):
        policy = OrderedVlbPolicy(fraction=fraction)
        for mode in ("uniform", "free"):
            res = model.solve(demand, policy=policy, mode=mode)
            ref = model_throughput(topo, demand, policy=policy, mode=mode)
            assert res.status == ref.status == "optimal"
            assert 0.0 < res.throughput <= 1.0
            assert res.throughput == pytest.approx(ref.throughput, abs=1e-9)


def test_legacy_and_fast_agree_on_translatable_policy():
    topo = FullMesh(6, p=2)
    demand = Shift(topo, 1, 0).demand_matrix()
    legacy = model_throughput(topo, demand, policy=AllVlbPolicy())
    fast = FastModel(topo).solve(demand, policy=AllVlbPolicy())
    assert legacy.throughput == pytest.approx(fast.throughput, abs=1e-6)


# ---------------------------------------------------------------------------
# Algorithm 1 end to end on the second topology
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_algorithm1_end_to_end_on_full_mesh():
    topo = FullMesh(5, p=2)
    res = compute_tvlb(
        topo,
        sim_params=SimParams(window_cycles=60),
        seed=0,
        step=0.5,
    )
    assert isinstance(res.policy, OrderedVlbPolicy)
    assert res.candidates
    # the winner certifies deadlock-free under the topology's scheme
    cert = certify_deadlock_freedom(topo, res.policy, scheme="none")
    assert cert.cycle is None


def test_vlb_descriptors_exist_on_full_mesh():
    topo = FullMesh(6)
    descs = list(enumerate_vlb_descriptors(topo, 0, 1))
    assert {d.mid for d in descs} == {2, 3, 4, 5}
