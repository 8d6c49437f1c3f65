"""Lint findings pinned per configuration.

Every case lints the default 40-pair sample (seed 0) over all of each
pair's candidates and must report exactly the pinned multiset of
``(rule, severity, location)`` triples: a per-``rule/severity`` count
plus a digest of the sorted triples.  The constants are the findings of
the per-path linter that built and validated one ``Path`` per
descriptor, so the table-reading rules are held to it finding for
finding.  The cases cover every topology family with a clean and a
firing configuration, across policies, routings and VC counts.

The rules that have no per-path counterpart -- the compiled membership
program checked against ``contains`` -- are tested at the end.
"""

import hashlib
import re
from collections import Counter

import numpy as np
import pytest

from repro.core.balance import balance_adjust
from repro.routing.pathset import AllVlbPolicy, ExplicitPathSet, HopClassPolicy
from repro.routing.vlb import VlbDescriptor
from repro.sim import SimParams
from repro.spec import PolicySpec, TopologySpec
from repro.traffic import Shift
from repro.topology import Dragonfly
from repro.verify import lint_pathset

D5, G9 = "2,4,2,5", "4,8,4,9"
CASCADE, MESH = "cascade:2,12,2,5,3,4", "full-mesh:16,4"


def _spec(text):
    return lambda topo: PolicySpec.parse(text).build()


def _balanced(topo):
    # the CI smoke job's balanced set: 50% 6-hop minus 1444 paths
    pairs = list(zip(*np.nonzero(Shift(topo, 1, 0).demand_matrix())))[:4]
    policy, report = balance_adjust(topo, HopClassPolicy(5, 0.5), pairs)
    assert report.adjusted
    return policy


def _explicit_with(pair, desc):
    """Every VLB descriptor, listed, plus one that names no path."""

    def make(topo):
        paths = dict(ExplicitPathSet.from_policy(topo, AllVlbPolicy()).paths)
        paths[pair] = (*paths[pair], desc)
        return ExplicitPathSet(paths=paths, label="explicit bad")

    return make


# name: (topology, policy, routing, VCs below the requirement,
#        {rule/severity: count}, digest)
CASES = {
    "d5-all-par": (
        D5, _spec("all"), "par", 0,
        {"balance/warning": 2}, "8fc08bd4afe375ed",
    ),
    "d5-all-par-short": (
        D5, _spec("all"), "par", 1,
        {"balance/warning": 2, "vc-overflow/error": 584}, "b642bef4c1103785",
    ),
    "d5-hopclass-ugal": (
        D5, _spec("hopclass:4,0.5"), "ugal-l", 0,
        {"balance/warning": 4}, "1af4ad55bf8eca5b",
    ),
    "d5-hopclass-ugal-short": (
        D5, _spec("hopclass:4,0.5"), "ugal-l", 1,
        {"balance/warning": 4, "vc-overflow/error": 118}, "a19bc6c1fe1974e2",
    ),
    "d5-explicit-bad-slot": (
        D5, _explicit_with((0, 6), VlbDescriptor(8, 99, 0)), "par", 0,
        {"balance/warning": 2, "slot-range/error": 2}, "61e6c91568f0e0f2",
    ),
    "d5-explicit-bad-mid": (
        D5, _explicit_with((0, 6), VlbDescriptor(1, 0, 0)), "ugal-l", 0,
        {"balance/warning": 2, "hop-validity/error": 1}, "2501e0cc96afd39b",
    ),
    "g9-all-par": (
        G9, _spec("all"), "par", 0,
        {"balance/warning": 9}, "983e166ddba5a6bb",
    ),
    "g9-strategic-par": (
        G9, _spec("strategic:2+3"), "par", 0,
        {"balance/warning": 6}, "17f7f9a711952780",
    ),
    "g9-strategic-ugal-short": (
        G9, _spec("strategic:2+3"), "ugal-l", 1,
        {"balance/warning": 6, "vc-overflow/error": 2752}, "523aa4589d708553",
    ),
    "g9-balanced-par": (
        G9, _balanced, "par", 0,
        {"balance/warning": 9}, "983e166ddba5a6bb",
    ),
    "cascade-all-par": (
        CASCADE, _spec("all"), "par", 0,
        {"balance/warning": 9}, "e297220db6f391fd",
    ),
    "cascade-all-par-short": (
        CASCADE, _spec("all"), "par", 1,
        {"balance/warning": 9, "vc-overflow/error": 3408}, "df49c25f2a82d540",
    ),
    "cascade-hopclass-ugal": (
        CASCADE, _spec("hopclass:4,0.5"), "ugal-l", 0,
        {"balance/warning": 5}, "35a149d42f03110d",
    ),
    "mesh-ordered-par": (
        MESH, _spec("ordered:0.5"), "par", 0,
        {"vlb-reachability/warning": 9}, "20a98b5ef9374a25",
    ),
    "mesh-ordered-ugal-short": (
        MESH, _spec("ordered:0.5"), "ugal-l", 1,
        {"vlb-reachability/warning": 9}, "20a98b5ef9374a25",
    ),
    # one VC short never fires on a full mesh (its VLB paths are two
    # global hops); two VCs leave no room for a PAR-revised fragment
    "mesh-all-par-2vcs": (
        MESH, _spec("all"), "par", 3,
        {"balance/warning": 1, "vc-overflow/error": 560}, "b17666f7cbe313f3",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_findings_match_pin(name):
    spec, make_policy, routing, short, counts, digest = CASES[name]
    topo = TopologySpec.parse(spec).build()
    vcs = SimParams().vcs_required(routing, topo.max_local_hops) - short
    findings = lint_pathset(
        topo, make_policy(topo), routing=routing, num_vcs=vcs, max_pairs=40
    )
    rows = sorted(f"{f.rule}\t{f.severity}\t{f.location}" for f in findings)
    assert dict(Counter(f"{f.rule}/{f.severity}" for f in findings)) == counts
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16] == digest


def test_every_family_has_a_clean_and_a_firing_case():
    fires = {
        (case[0], any(key.endswith("/error") for key in case[4]))
        for case in CASES.values()
    }
    assert fires == {
        (spec, firing)
        for spec in (D5, G9, CASCADE, MESH)
        for firing in (False, True)
    }


class _Miscompiled(HopClassPolicy):
    """``contains`` keeps the hop-class restriction, the compiled
    program admits every VLB path."""

    def membership_program(self, table):
        return AllVlbPolicy().membership_program(table)


def test_program_disagreeing_with_contains_flagged():
    topo = Dragonfly(2, 4, 2, 5)
    findings = lint_pathset(
        topo, _Miscompiled(4, 0.0), rules=["hop-class"], max_pairs=5
    )
    assert findings
    assert all(f.rule == "hop-class" and f.severity == "error" for f in findings)
    assert all(
        "program admits a candidate contains() rejects" in f.message
        for f in findings
    )
    assert lint_pathset(
        topo, HopClassPolicy(4, 0.0), rules=["hop-class"], max_pairs=5
    ) == []


def test_contains_pass_reads_200_candidates_across_every_group():
    # a g9 pair offers 7 intermediate groups x 128 candidates, all of
    # which this ``contains`` rejects; the Python pass reads 200 of them
    # and reaches every group
    topo = Dragonfly(4, 8, 4, 9)
    findings = lint_pathset(
        topo, _Miscompiled(0, 0.0), rules=["hop-class"], max_pairs=1
    )
    assert len(findings) == 200
    located = [
        re.fullmatch(r"pair \((\d+)->(\d+)\) desc \(mid=(\d+),\d+,\d+\)", f.location)
        for f in findings
    ]
    (src, dst), = {(int(m[1]), int(m[2])) for m in located}
    groups = {topo.group_of(int(m[3])) for m in located}
    assert groups == set(range(topo.g)) - {topo.group_of(src), topo.group_of(dst)}
