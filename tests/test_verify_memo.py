"""The deadlock-freedom certificate is route-table state.

``certify_deadlock_freedom`` builds a configuration's channel dependency
graph once per route table and question (policy value, scheme, routing,
and for the sampled check the seed and sample size); every later ask --
``verify_config``, a verify-gated simulation point, Algorithm 1's final
check -- reads the same frozen :class:`CdgResult`.  Lint still runs on
every call.
"""

import dataclasses
import hashlib
import threading
import time

import pytest

from repro.core import compute_tvlb
from repro.obs import ObsConfig
from repro.routing import table as table_module
from repro.routing.pathset import HopClassPolicy, StrategicFiveHopPolicy
from repro.sim import SimParams, simulate
from repro.sim.sweep import latency_vs_load
from repro.topology import Dragonfly
from repro.traffic.patterns import UniformRandom
from repro.verify import cdg, certify_deadlock_freedom, verify_config

TOPO = Dragonfly(2, 4, 2, 5)


@pytest.fixture
def builds(monkeypatch):
    """Fresh route tables, and the ``build_cdg`` calls made on them."""
    monkeypatch.setattr(table_module, "_TABLES", {})
    monkeypatch.setattr(table_module, "_LAST", (None, None))
    calls = []
    build = cdg.build_cdg

    def counted(topo, policy=None, **kwargs):
        calls.append((policy, kwargs))
        return build(topo, policy, **kwargs)

    monkeypatch.setattr(cdg, "build_cdg", counted)
    return calls


def test_a_second_ask_builds_nothing_and_reports_the_same(builds):
    first = verify_config(TOPO, HopClassPolicy(4), scheme="won", routing="par")
    assert len(builds) == 1
    again = verify_config(TOPO, HopClassPolicy(4), scheme="won", routing="par")
    assert len(builds) == 1
    assert again.cdg is first.cdg
    assert again.to_json() == first.to_json()


def test_each_distinct_question_builds_once(builds):
    asks = [
        dict(policy=None, scheme="won", routing="par"),
        dict(policy=HopClassPolicy(4), scheme="won", routing="par"),
        dict(policy=None, scheme="perhop", routing="par"),
        dict(policy=None, scheme="won", routing="ugal-l"),
        # the routing as passed: the result names it
        dict(policy=None, scheme="won", routing="t-par"),
    ]
    for n, ask in enumerate(asks, 1):
        certify_deadlock_freedom(TOPO, **ask)
        certify_deadlock_freedom(TOPO, **ask)
        assert len(builds) == n, ask
    # None is the all-VLB policy, as in build_cdg
    certify_deadlock_freedom(TOPO, cdg.AllVlbPolicy())
    assert len(builds) == len(asks)


def test_an_exhaustive_certificate_reads_no_seed(builds):
    certify_deadlock_freedom(TOPO, seed=0)
    certify_deadlock_freedom(TOPO, seed=7)
    assert len(builds) == 1


def test_a_sampled_check_is_keyed_by_its_sample(builds, monkeypatch):
    monkeypatch.setattr(cdg, "_ROW_LIMIT", 1000)
    monkeypatch.setattr(cdg, "_SAMPLED_PAIRS", 10)
    res = certify_deadlock_freedom(TOPO, seed=0)
    assert not res.exhaustive
    assert len(builds) == 1
    certify_deadlock_freedom(TOPO, seed=0)
    assert len(builds) == 1
    certify_deadlock_freedom(TOPO, seed=1)
    assert len(builds) == 2
    monkeypatch.setattr(cdg, "_SAMPLED_PAIRS", 12)
    certify_deadlock_freedom(TOPO, seed=1)
    assert len(builds) == 3
    # the sampled check never stands in for the certificate
    monkeypatch.setattr(cdg, "_ROW_LIMIT", 50_000_000)
    assert certify_deadlock_freedom(TOPO, seed=1).certified
    assert len(builds) == 4


def test_threads_asking_at_once_build_one_certificate(builds, monkeypatch):
    build = cdg.build_cdg

    def slow(*args, **kwargs):
        time.sleep(0.05)  # both threads are inside the call before it ends
        return build(*args, **kwargs)

    monkeypatch.setattr(cdg, "build_cdg", slow)
    start = threading.Barrier(2)
    got = []

    def ask():
        start.wait()
        got.append(certify_deadlock_freedom(TOPO, HopClassPolicy(4)))

    threads = [threading.Thread(target=ask) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(builds) == 1
    assert got[0] is got[1]


def test_a_verify_gated_ladder_builds_one_certificate(builds):
    pattern = UniformRandom(TOPO)
    loads = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    params = SimParams(window_cycles=60, warmup_windows=1)
    policy = StrategicFiveHopPolicy("2+3")
    gated = latency_vs_load(
        TOPO, pattern, loads, routing="t-ugal-l", policy=policy,
        params=dataclasses.replace(params, verify=True), seed=3,
        stop_after_saturation=False,
    )
    assert len(gated.results) == 6
    assert len(builds) == 1
    plain = latency_vs_load(
        TOPO, pattern, loads, routing="t-ugal-l", policy=policy,
        params=params, seed=3, stop_after_saturation=False,
    )
    assert gated.rows() == plain.rows()
    assert len(builds) == 1


def test_a_gated_run_counts_the_certificate_as_table_fill(builds, monkeypatch):
    """The certificate is set-up like any other fill: the run that
    builds it reports the build in ``routing.table_fill_seconds``, the
    next one finds it built and reports 0."""
    build = cdg.build_cdg
    spent = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        graph = build(*args, **kwargs)
        spent.append(time.perf_counter() - start)
        return graph

    monkeypatch.setattr(cdg, "build_cdg", timed)
    params = SimParams(
        window_cycles=20, warmup_windows=1, verify=True,
        obs=ObsConfig(metrics=True),
    )
    filled = []
    for _ in range(2):
        result = simulate(
            TOPO, UniformRandom(TOPO), 0.1, routing="t-ugal-l",
            policy=HopClassPolicy(4), params=params,
        )
        filled.append(result.manifest.metrics["routing.table_fill_seconds"])
    assert len(spent) == 1
    assert filled[0] >= spent[0] > 0
    assert filled[1] == 0.0


def test_a_warm_compute_tvlb_builds_no_certificate(builds):
    topo = Dragonfly(2, 4, 2, 3)
    pair = (0, topo.a * 2)

    def shortest(policy, label):
        try:
            return -policy.average_hops(topo, *pair)
        except (ValueError, TypeError):
            return -10.0

    cold = compute_tvlb(topo, evaluator=shortest, seed=1)
    assert len(builds) == 1
    warm = compute_tvlb(topo, evaluator=shortest, seed=1)
    assert len(builds) == 1
    assert warm.verify_report.to_json() == cold.verify_report.to_json()


def test_a_shared_certificate_is_frozen():
    res = certify_deadlock_freedom(TOPO, scheme="none")
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.cycle = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.num_edges = 0
    assert isinstance(res.cycle, tuple)


# ``to_json()`` of dfly(2,4,2,5) under all-VLB PAR, as printed before the
# certificate became route-table state: a memo hit and a cycle held as a
# tuple serialize byte for byte as the per-call build and its list did
PINNED_REPORTS = {
    "won": (
        "fafde3a7f64f260ac7f316c725a8e1073f8e89b09ec48cb31eaef286d612325e",
        {
            "deadlock_free": True,
            "certified": True,
            "exhaustive": True,
            "num_nodes": 460,
            "num_edges": 1640,
            "num_paths": 19840,
            "cycle": None,
        },
    ),
    "none": (
        "7ae3597d772e5276f82d7c9ef1205bef762f6adf4efa1d8301c5b12c744193b5",
        {
            "deadlock_free": False,
            "certified": False,
            "exhaustive": True,
            "num_nodes": 100,
            "num_edges": 500,
            "num_paths": 19840,
            "cycle": [
                {"src": 0, "dst": 1, "slot": -1, "vc": 0},
                {"src": 1, "dst": 0, "slot": -1, "vc": 0},
            ],
        },
    ),
}


@pytest.mark.parametrize("scheme", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(builds, scheme):
    digest, cdg_dict = PINNED_REPORTS[scheme]
    for _ in range(2):  # the build, then the memo hit
        report = verify_config(TOPO, scheme=scheme, routing="par")
        assert report.to_dict()["cdg"] == cdg_dict
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
    assert len(builds) == 1
