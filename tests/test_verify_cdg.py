"""Tests for the channel-dependency-graph builder and deadlock certifier."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.channels import ChannelIndex
from repro.routing.paths import Channel, Path
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    OrderedVlbPolicy,
    StrategicFiveHopPolicy,
)
from repro.topology import CascadeDragonfly, Dragonfly, FullMesh
from repro.verify import (
    ChannelDependencyGraph,
    build_cdg,
    certify_deadlock_freedom,
)
from repro.verify.cdg import VC_SCHEMES


@pytest.fixture(scope="module")
def paper_topo():
    """The paper's dfly(4,8,4,9): 72 switches, 4 links per group pair."""
    return Dragonfly(4, 8, 4, 9)


@pytest.fixture(scope="module")
def small_topo():
    return Dragonfly(2, 4, 2, 5)


# ---------------------------------------------------------------------------
# Graph primitives
# ---------------------------------------------------------------------------
class TestGraphPrimitives:
    def test_channel_roundtrip(self, small_topo):
        # nodes are numbered in ChannelIndex order, like every other array
        g = ChannelDependencyGraph(small_topo, "won")
        chidx = ChannelIndex(small_topo)
        assert g.num_node_ids == len(chidx) * g.num_levels
        for index in range(len(chidx)):
            for vc in (0, g.num_levels - 1):
                node = index * g.num_levels + vc
                assert g.decode_node(node) == (chidx.channel(index), vc)

    def test_parallel_links_stay_distinct(self, small_topo):
        # dfly(2,4,2,5) has 2 links per group pair; both directions of both
        # must be four distinct nodes
        g = ChannelDependencyGraph(small_topo, "won")
        links = small_topo.links_between_groups(0, 1)
        assert len(links) == 2
        for ln in links:
            for a, b in ((0, 1), (1, 0)):
                g.add_dependency(
                    Channel(ln.endpoint_in(a), ln.endpoint_in(b), ln.slot), 0,
                    Channel(0, 1), 1,
                )
        assert g.num_edges == 4
        assert g.num_nodes == 5

    def test_node_roundtrip(self, small_topo):
        g = ChannelDependencyGraph(small_topo, "won")
        g.add_dependency(Channel(2, 3), 3, Channel(3, 1), 4)
        assert list(g.iter_dependencies()) == [
            ((Channel(2, 3), 3), (Channel(3, 1), 4))
        ]

    def test_unknown_channel_rejected(self, small_topo):
        g = ChannelDependencyGraph(small_topo, "won")
        with pytest.raises(ValueError, match="not a channel"):
            g.add_dependency(Channel(0, 1), 0, Channel(0, 4), 0)

    def test_unknown_scheme_rejected(self, small_topo):
        with pytest.raises(ValueError, match="unknown vc scheme"):
            ChannelDependencyGraph(small_topo, "rainbow")
        assert set(VC_SCHEMES) == {"won", "perhop", "none"}

    def test_add_path_edges(self, small_topo):
        g = ChannelDependencyGraph(small_topo, "won")
        # 0 -> 1 -> (global) -> dst-group switch
        links = small_topo.links_between_groups(0, 1)
        x, y = links[0].endpoint_in(0), links[0].endpoint_in(1)
        src = next(s for s in range(4) if s != x)
        path = Path((src, x, y), (-1, links[0].slot))
        g.add_path(path, [0, 0])
        assert g.num_paths == 1
        assert g.num_edges == 1
        deps = list(g.iter_dependencies())
        assert deps == [((Channel(src, x), 0), (Channel(x, y, links[0].slot), 0))]
        assert g.num_nodes == 2

    def test_add_path_vc_length_mismatch(self, small_topo):
        g = ChannelDependencyGraph(small_topo, "won")
        with pytest.raises(ValueError, match="VC assignments"):
            g.add_path(Path((0, 1), (-1,)), [0, 1])


class TestCycleDetection:
    def test_empty_graph_acyclic(self, small_topo):
        assert ChannelDependencyGraph(small_topo, "won").find_cycle() is None

    def test_hand_built_cycle_found(self, small_topo):
        # three local channels of group 0 waiting on each other at vc 0
        g = ChannelDependencyGraph(small_topo, "won")
        ring = [Channel(0, 1), Channel(1, 2), Channel(2, 0)]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            g.add_dependency(a, 0, b, 0)
        # an acyclic appendix must not confuse the search
        g.add_dependency(Channel(3, 0), 0, ring[0], 0)
        cycle = g.find_cycle()
        assert cycle is not None
        assert len(cycle) == 3
        assert {ch for ch, _vc in cycle} == set(ring)
        assert all(vc == 0 for _ch, vc in cycle)

    def test_cycle_is_in_traversal_order(self, small_topo):
        g = ChannelDependencyGraph(small_topo, "won")
        ring = [Channel(0, 1), Channel(1, 2), Channel(2, 3), Channel(3, 0)]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            g.add_dependency(a, 1, b, 1)
        cycle = g.find_cycle()
        deps = set(g.iter_dependencies())
        for i, node in enumerate(cycle):
            assert (node, cycle[(i + 1) % len(cycle)]) in deps

    def test_vc_levels_separate_nodes(self, small_topo):
        # same channels at different vc levels do NOT close a cycle
        g = ChannelDependencyGraph(small_topo, "won")
        g.add_dependency(Channel(0, 1), 0, Channel(1, 0), 0)
        g.add_dependency(Channel(1, 0), 1, Channel(0, 1), 1)
        assert g.find_cycle() is None


# ---------------------------------------------------------------------------
# Certification of real configurations
# ---------------------------------------------------------------------------
class TestPaperCertification:
    def test_full_vlb_won_certified(self, paper_topo):
        res = certify_deadlock_freedom(paper_topo, scheme="won", routing="par")
        assert res.certified and res.deadlock_free and res.exhaustive
        assert res.cycle is None
        # MIN: one per link per inter-group pair; VLB: every
        # (mid switch, slot1, slot2) triple, incl. intra-group pairs
        min_paths = 9 * 8 * (8 * 8) * 4
        vlb_inter = 9 * 8 * 7 * 8**3 * 4**2
        vlb_intra = 9 * 8 * (8 * 7 * 8) * 4**2
        assert res.num_paths == min_paths + vlb_inter + vlb_intra
        assert "certified" in res.describe()

    def test_full_vlb_perhop_certified(self, paper_topo):
        res = certify_deadlock_freedom(paper_topo, scheme="perhop", routing="par")
        assert res.certified
        # perhop spreads hops over more levels than won
        assert res.num_nodes > 0

    def test_tvlb_hopclass_certified(self, paper_topo):
        res = certify_deadlock_freedom(
            paper_topo, HopClassPolicy(4, 0.1, seed=3), scheme="won",
            routing="t-par",
        )
        assert res.certified
        # the restricted set admits strictly fewer paths than full VLB
        assert res.num_paths < 4_663_296

    def test_none_scheme_reports_concrete_cycle(self, paper_topo):
        # without VC protection the local channels alone deadlock; the
        # counterexample must be a real closed dependency chain
        res = certify_deadlock_freedom(paper_topo, scheme="none", routing="par")
        assert not res.deadlock_free and not res.certified
        assert "DEADLOCK RISK" in res.describe()
        cycle = res.cycle
        assert len(cycle) >= 2
        for (ch, vc), (nxt, nvc) in zip(cycle, cycle[1:] + cycle[:1]):
            assert vc == 0 and nvc == 0
            assert ch.dst == nxt.src or ch.is_global or nxt.is_global


def _same_graph(topo, policy, scheme, routing):
    """Array and generic builder agree edge for edge and on the count."""
    fast = build_cdg(topo, policy, scheme=scheme, routing=routing, method="fast")
    generic = build_cdg(
        topo, policy, scheme=scheme, routing=routing, method="generic"
    )
    assert fast._edges == generic._edges
    assert fast.num_paths == generic.num_paths
    assert fast.exhaustive and generic.exhaustive
    return fast


def _excluding(topo):
    """A balanced-looking policy: two channels and one path removed."""
    last = topo.num_switches - 1
    excluded_desc = next(AllVlbPolicy().iter_descriptors(topo, 0, last))
    link = topo.links_between_groups(0, 1)[0]
    return ExcludingPolicy(
        base=HopClassPolicy(5, 1.0),
        excluded_channels=frozenset(
            {
                Channel(0, 1),
                Channel(link.endpoint_in(0), link.endpoint_in(1), link.slot),
            }
        ),
        excluded_descriptors=frozenset({(0, last, excluded_desc)}),
    )


def _matrix(topo):
    """Policies beyond the hop-class family, by the topology's kind."""
    if topo.a == 1:  # full mesh: no local hop, hop classes do not split
        return [AllVlbPolicy(), OrderedVlbPolicy(), OrderedVlbPolicy(0.4, 2**63 + 11)]
    excluding = _excluding(topo)
    explicit = ExplicitPathSet.from_policy(topo, HopClassPolicy(3, 0.3))
    return [
        AllVlbPolicy(),
        HopClassPolicy(4, 0.37, seed=-5),
        StrategicFiveHopPolicy("3+2"),
        OrderedVlbPolicy(0.4, seed=2**63 + 11),
        excluding,
        ExcludingPolicy(excluding, excluded_channels=frozenset({Channel(1, 0)})),
        explicit,
        ExcludingPolicy(explicit, excluded_channels=frozenset({Channel(0, 1)})),
    ]


TOPOLOGIES = {
    "dfly": lambda: Dragonfly(2, 4, 2, 5),
    "cascade": lambda: CascadeDragonfly(1, 4, 1, 3, rows=2, cols=2),
    "full-mesh": lambda: FullMesh(8),
}


class TestBuilderEquivalence:
    POLICIES = [
        AllVlbPolicy(),
        HopClassPolicy(4, 0.0),
        HopClassPolicy(4, 0.37, seed=7),
        HopClassPolicy(5, 0.5, seed=1),
        StrategicFiveHopPolicy("2+3"),
        StrategicFiveHopPolicy("3+2"),
    ]

    @pytest.mark.parametrize("scheme", ["won", "perhop", "none"])
    @pytest.mark.parametrize("routing", ["ugal-l", "par"])
    def test_fast_matches_generic_all_vlb(self, small_topo, scheme, routing):
        _same_graph(small_topo, AllVlbPolicy(), scheme, routing)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.describe())
    def test_fast_matches_generic_policies(self, small_topo, policy):
        _same_graph(small_topo, policy, "won", "par")

    def test_fast_matches_generic_excluding(self, small_topo):
        _same_graph(small_topo, _excluding(small_topo), "won", "par")

    @pytest.mark.parametrize("scheme", ["won", "perhop"])
    @pytest.mark.parametrize("routing", ["ugal-l", "par"])
    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_fast_matches_generic_matrix(self, kind, scheme, routing):
        # nested exclusions, explicit lists, ordered VLB; sparse groups
        # (Cascade) and no groups at all (full mesh)
        topo = TOPOLOGIES[kind]()
        for policy in _matrix(topo):
            _same_graph(topo, policy, scheme, routing)

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_fast_matches_generic_property(self, data):
        topo = data.draw(
            st.sampled_from(
                [
                    Dragonfly(1, 2, 1, 3),
                    Dragonfly(2, 4, 2, 3),
                    Dragonfly(1, 3, 2, 4),
                    CascadeDragonfly(1, 4, 1, 3, rows=2, cols=2),
                    FullMesh(5),
                    FullMesh(8),
                ]
            )
        )
        policy = data.draw(st.sampled_from(_matrix(topo)))
        scheme = data.draw(st.sampled_from(VC_SCHEMES))
        routing = data.draw(st.sampled_from(["ugal-l", "par", "t-par"]))
        _same_graph(topo, policy, scheme, routing)

    def test_par_adds_fragment_dependencies(self, small_topo):
        ugal = build_cdg(small_topo, scheme="won", routing="ugal-l")
        par = build_cdg(small_topo, scheme="won", routing="par")
        assert ugal._edges < par._edges  # strict superset
        assert ugal.num_paths == par.num_paths  # fragments are not new paths

    def test_num_paths_counts_choices(self, small_topo):
        # one MIN path per link of a pair of groups, every VLB descriptor
        # of every pair, whichever builder ran
        a, g, m = 4, 5, 2
        inter = g * (g - 1) * a * a
        intra = g * a * (a - 1)
        want = inter * m + inter * (g - 2) * a * m * m + intra * (g - 1) * a * m * m
        for method in ("fast", "generic"):
            assert build_cdg(small_topo, method=method).num_paths == want
        listed_twice = ExplicitPathSet(
            {(0, 19): 2 * list(AllVlbPolicy().iter_descriptors(small_topo, 0, 19))[:3]}
        )
        assert _same_graph(small_topo, listed_twice, "won", "par").num_paths == (
            inter * m + 3
        )


class TestBuilderModes:
    def test_sampling_clears_exhaustive(self, small_topo):
        res = certify_deadlock_freedom(small_topo, max_pairs=10)
        assert res.deadlock_free
        assert not res.exhaustive and not res.certified
        assert "sampled" in res.describe()

    def test_large_topology_is_sampled_by_default(self, monkeypatch, small_topo):
        # one place decides exhaustive vs sampled: past the row limit
        # method="auto" runs the bounded check and says so
        monkeypatch.setattr("repro.verify.cdg._ROW_LIMIT", 1000)
        monkeypatch.setattr("repro.verify.cdg._SAMPLED_PAIRS", 10)
        res = certify_deadlock_freedom(small_topo)
        assert res.deadlock_free and not res.exhaustive
        assert certify_deadlock_freedom(small_topo, method="fast").certified

    def test_explicit_pathset_certifies_from_its_program(self, small_topo):
        policy = ExplicitPathSet.from_policy(
            small_topo, HopClassPolicy(4, 0.0), pairs=[(0, 8), (8, 0)]
        )
        res = certify_deadlock_freedom(small_topo, policy, scheme="won")
        assert res.deadlock_free and res.exhaustive
        _same_graph(small_topo, policy, "won", "par")

    def test_fast_method_builds_an_empty_pathset(self, small_topo):
        # no VLB path at all: what is left is the MIN dependencies
        graph = _same_graph(small_topo, ExplicitPathSet(), "won", "par")
        assert graph._edges == build_cdg(small_topo, HopClassPolicy(0))._edges

    def test_fast_method_builds_sparse_groups(self):
        casc = CascadeDragonfly(1, 4, 1, 3, rows=2, cols=2)
        for scheme in ("won", "perhop"):
            _same_graph(casc, AllVlbPolicy(), scheme, "par")

    def test_python_only_policy_takes_the_generic_builder(self, small_topo):
        class Narrowed(HopClassPolicy):
            def contains(self, topo, src, dst, desc):
                return desc.mid % 2 == 0 and super().contains(topo, src, dst, desc)

        policy = Narrowed(4)
        res = certify_deadlock_freedom(small_topo, policy)
        assert res.certified
        wider = certify_deadlock_freedom(small_topo, HopClassPolicy(4))
        assert 0 < res.num_paths < wider.num_paths
        with pytest.raises(ValueError, match="has no membership program"):
            build_cdg(small_topo, policy, method="fast")

    def test_unknown_method_rejected(self, small_topo):
        with pytest.raises(ValueError, match="unknown method"):
            build_cdg(small_topo, method="telepathy")

    def test_cascade_certified_via_generic(self):
        # sparse intra-group topology: both schemes certify under PAR,
        # by the default builder and by the oracle alike
        casc = CascadeDragonfly(1, 4, 1, 3, rows=2, cols=2)
        for scheme in ("won", "perhop"):
            for method in ("auto", "generic"):
                res = certify_deadlock_freedom(
                    casc, scheme=scheme, routing="par", method=method
                )
                assert res.certified, res.describe()
