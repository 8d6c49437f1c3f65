"""Tests for path policies (the T-VLB representation)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    StrategicFiveHopPolicy,
    vlb_hops,
    vlb_path,
)
from repro.routing.pathset import candidate_weights, policy_program
from repro.routing.table import route_table
from repro.routing.vlb import count_vlb_paths, enumerate_vlb_descriptors
from repro.topology import Dragonfly


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(4, 8, 4, 9)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


class TestAllVlbPolicy:
    def test_contains_everything(self, topo):
        pol = AllVlbPolicy()
        size = sum(1 for _ in pol.iter_descriptors(topo, 0, 17))
        assert size == count_vlb_paths(topo, 0, 17)

    def test_sample_uniform_over_groups(self, topo, rng):
        pol = AllVlbPolicy()
        groups = [
            topo.group_of(pol.sample(topo, 0, 17, rng).mid) for _ in range(700)
        ]
        # neither endpoint group ever used
        assert 0 not in groups and 2 not in groups
        # every other group appears
        assert set(groups) == set(range(topo.g)) - {0, 2}


class TestHopClassPolicy:
    def test_full_class_only(self, topo):
        pol = HopClassPolicy(full_hops=4)
        sizes = {h: 0 for h in range(2, 7)}
        for d in pol.iter_descriptors(topo, 0, 17):
            sizes[vlb_hops(topo, 0, 17, d)] += 1
        assert sizes[5] == sizes[6] == 0
        assert sizes[3] + sizes[4] > 0

    def test_fraction_is_approximately_respected(self, topo):
        pol = HopClassPolicy(full_hops=4, extra_fraction=0.5)
        total5 = 0
        kept5 = 0
        for d in enumerate_vlb_descriptors(topo, 0, 17):
            if vlb_hops(topo, 0, 17, d) == 5:
                total5 += 1
                kept5 += pol.contains(topo, 0, 17, d)
        assert total5 > 0
        assert abs(kept5 / total5 - 0.5) < 0.15

    def test_membership_deterministic(self, topo):
        pol_a = HopClassPolicy(4, 0.3, seed=7)
        pol_b = HopClassPolicy(4, 0.3, seed=7)
        descs = list(enumerate_vlb_descriptors(topo, 0, 17))
        assert [pol_a.contains(topo, 0, 17, d) for d in descs] == [
            pol_b.contains(topo, 0, 17, d) for d in descs
        ]

    def test_different_seeds_differ(self, topo):
        descs = list(enumerate_vlb_descriptors(topo, 0, 17))
        a = [HopClassPolicy(4, 0.3, seed=1).contains(topo, 0, 17, d) for d in descs]
        b = [HopClassPolicy(4, 0.3, seed=2).contains(topo, 0, 17, d) for d in descs]
        assert a != b

    def test_sampled_paths_obey_policy(self, topo, rng):
        pol = HopClassPolicy(full_hops=4, extra_fraction=0.2)
        for _ in range(100):
            d = pol.sample(topo, 0, 17, rng)
            assert pol.contains(topo, 0, 17, d)
            assert vlb_hops(topo, 0, 17, d) <= 5

    def test_describe_matches_table1_language(self):
        assert HopClassPolicy(3).describe() == "3-hop"
        assert HopClassPolicy(4, 0.6).describe() == "60% 5-hop"
        assert HopClassPolicy(6).describe() == "all VLB"

    def test_validation(self):
        with pytest.raises(ValueError):
            HopClassPolicy(1)
        with pytest.raises(ValueError):
            HopClassPolicy(4, 1.5)

    @settings(max_examples=15, deadline=None)
    @given(frac=st.floats(min_value=0.0, max_value=1.0))
    def test_policy_is_monotone_in_fraction(self, topo, frac):
        # a path kept at fraction f stays kept at any f' >= f
        lo = HopClassPolicy(4, frac, seed=3)
        hi = HopClassPolicy(4, min(1.0, frac + 0.25), seed=3)
        for d in list(enumerate_vlb_descriptors(topo, 0, 17))[::31]:
            if lo.contains(topo, 0, 17, d):
                assert hi.contains(topo, 0, 17, d)


class TestStrategicPolicy:
    def test_half_of_five_hop_class(self, topo):
        from repro.routing.vlb import vlb_leg_hops

        pol = StrategicFiveHopPolicy("2+3")
        for d in pol.iter_descriptors(topo, 0, 17):
            a, b = vlb_leg_hops(topo, 0, 17, d)
            assert a + b <= 4 or (a, b) == (2, 3)

    def test_two_orders_partition_five_hop(self, topo):
        p23 = StrategicFiveHopPolicy("2+3")
        p32 = StrategicFiveHopPolicy("3+2")
        n23 = sum(
            1
            for d in p23.iter_descriptors(topo, 0, 17)
            if vlb_hops(topo, 0, 17, d) == 5
        )
        n32 = sum(
            1
            for d in p32.iter_descriptors(topo, 0, 17)
            if vlb_hops(topo, 0, 17, d) == 5
        )
        total5 = sum(
            1
            for d in enumerate_vlb_descriptors(topo, 0, 17)
            if vlb_hops(topo, 0, 17, d) == 5
        )
        assert n23 + n32 == total5

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            StrategicFiveHopPolicy("4+1")


class TestExcludingPolicy:
    def test_excluded_descriptor_removed(self, topo):
        base = AllVlbPolicy()
        d0 = next(enumerate_vlb_descriptors(topo, 0, 17))
        pol = ExcludingPolicy(
            base, excluded_descriptors=frozenset({(0, 17, d0)})
        )
        assert not pol.contains(topo, 0, 17, d0)
        # only that pair is affected
        assert pol.contains(topo, 1, 17, d0)

    def test_excluded_channel_removes_paths_through_it(self, topo):
        base = AllVlbPolicy()
        d0 = next(enumerate_vlb_descriptors(topo, 0, 17))
        path = vlb_path(topo, 0, 17, d0)
        ch = next(path.channels())
        pol = ExcludingPolicy(base, excluded_channels=frozenset({ch}))
        assert not pol.contains(topo, 0, 17, d0)
        # every surviving path avoids the channel
        for d in list(pol.iter_descriptors(topo, 0, 17))[::41]:
            assert ch not in list(vlb_path(topo, 0, 17, d).channels())


class TestExplicitPathSet:
    def test_from_policy_roundtrip(self, topo, rng):
        pol = HopClassPolicy(4)
        explicit = ExplicitPathSet.from_policy(topo, pol, pairs=[(0, 17)])
        a = list(pol.iter_descriptors(topo, 0, 17))
        b = list(explicit.iter_descriptors(topo, 0, 17))
        assert a == b
        d = explicit.sample(topo, 0, 17, rng)
        assert d in a

    def test_sample_empty_pair_returns_none(self, topo, rng):
        explicit = ExplicitPathSet(paths={})
        assert explicit.sample(topo, 0, 17, rng) is None

    def test_a_set_is_a_value(self, topo):
        """Frozen and hashable, so a wrapping policy is hashable too,
        and equal sets built apart share one compiled program."""
        pairs = [(0, 17), (3, 40)]
        one = ExplicitPathSet.from_policy(topo, HopClassPolicy(4), pairs=pairs)
        two = ExplicitPathSet.from_policy(topo, HopClassPolicy(4), pairs=pairs)
        assert one is not two and one == two and hash(one) == hash(two)
        assert hash(ExcludingPolicy(one)) == hash(ExcludingPolicy(two))
        table = route_table(topo)
        assert policy_program(one, table) is policy_program(two, table)
        with pytest.raises(dataclasses.FrozenInstanceError):
            one.label = "renamed"  # type: ignore[misc]
        # the caller's lists are copied, in order, repeats kept
        listed = list(one.paths[(0, 17)][:2]) * 2
        three = ExplicitPathSet(paths={(0, 17): listed})
        listed.clear()
        assert three.paths[(0, 17)] == tuple(one.paths[(0, 17)][:2]) * 2

    def test_contains_is_list_membership(self, topo):
        """``contains`` answers like the pair's list, repeats and all,
        and ``candidate_weights`` still counts a repeat twice."""
        every = list(enumerate_vlb_descriptors(topo, 0, 17))
        listed = every[::3] + every[:40:7]  # some listed twice
        explicit = ExplicitPathSet(paths={(0, 17): listed})
        assert [explicit.contains(topo, 0, 17, d) for d in every] == [
            d in listed for d in every
        ]
        assert not explicit.contains(topo, 17, 0, every[0])
        table = route_table(topo)
        cand = table.vlb_candidates(0, 17)
        weight = candidate_weights(explicit, table, cand)
        named = [
            (int(m), int(a), int(b))
            for m, a, b in zip(cand.mid, cand.slot1, cand.slot2)
        ]
        assert weight.tolist() == [float(listed.count(d)) for d in named]
        assert weight.max() == 2.0


class TestAverageHops:
    def test_restricting_classes_reduces_average(self, topo):
        all_avg = AllVlbPolicy().average_hops(topo, 0, 17)
        short_avg = HopClassPolicy(4).average_hops(topo, 0, 17)
        assert short_avg < all_avg

    def test_average_raises_on_empty(self, topo):
        empty = ExplicitPathSet(paths={})
        with pytest.raises(ValueError):
            empty.average_hops(topo, 0, 17)
