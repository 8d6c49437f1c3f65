"""Spec layer: round trips, fingerprints, registries, shared errors."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.sim import SimParams
from repro.sim.routing import ROUTING_VARIANTS, make_routing
from repro.spec import (
    PatternSpec,
    PolicySpec,
    ROUTING_REGISTRY,
    RunSpec,
    SpecError,
    SuiteSpec,
    SweepSpec,
    TopologySpec,
    resolve_routing,
)
from repro.topology import Dragonfly
from repro.topology.cascade import CascadeDragonfly
from repro.verify import check_registries

TOPO = Dragonfly(2, 4, 2, 5)


def _run_spec(**overrides):
    base = dict(
        topology=TopologySpec(2, 4, 2, 5),
        pattern=PatternSpec.parse("shift:2,0"),
        load=0.2,
        routing="ugal-l",
        policy=None,
        params=SimParams(window_cycles=60),
        seed=3,
    )
    base.update(overrides)
    return RunSpec(**base)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec_str",
    ["ur", "shift:2,0", "shift:3", "perm:7", "type2:3", "mixed:75,25",
     "tmixed:50,50,5"],
)
def test_pattern_round_trip(spec_str):
    spec = PatternSpec.parse(spec_str)
    again = PatternSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()
    # live object -> spec recovers the same identity
    assert PatternSpec.of(spec.build(TOPO)) == spec


@pytest.mark.parametrize(
    "spec_str", ["all", "hopclass:4,0.6", "strategic:2+3", "strategic:3+2"]
)
def test_policy_round_trip(spec_str):
    spec = PolicySpec.parse(spec_str)
    again = PolicySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()
    assert PolicySpec.of(spec.build()) == spec


@pytest.mark.parametrize(
    "topo",
    [Dragonfly(4, 8, 4, 9), Dragonfly(2, 4, 2, 5, arrangement="circulant"),
     CascadeDragonfly(2, 4, 2, 5, rows=2, cols=2)],
)
def test_topology_round_trip(topo):
    spec = TopologySpec.of(topo)
    again = TopologySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    built = spec.build()
    assert type(built) is type(topo)
    assert TopologySpec.of(built) == spec


def test_run_spec_round_trip():
    spec = _run_spec(
        routing="t-ugal-l", policy=PolicySpec.parse("strategic:2+3")
    )
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()


def test_sweep_and_suite_round_trip():
    sweep = SweepSpec(
        topology=TopologySpec(2, 4, 2, 5),
        pattern=PatternSpec.parse("perm:7"),
        loads=(0.1, 0.2),
        label="UGAL-L",
    )
    suite = SuiteSpec("fig", (sweep,))
    again = SuiteSpec.from_dict(json.loads(json.dumps(suite.to_dict())))
    assert again == suite
    assert again.fingerprint() == suite.fingerprint()
    assert [r.load for r in sweep.run_specs()] == [0.1, 0.2]


def test_with_seed():
    assert PatternSpec.parse("perm:7").with_seed(9) == PatternSpec.parse(
        "perm:9"
    )
    # seedless kinds are unchanged
    spec = PatternSpec.parse("shift:2,0")
    assert spec.with_seed(9) is spec


def test_policy_file_is_embedded(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"kind": "strategic", "order": "3+2"}))
    spec = PolicySpec.parse(f"@{path}")
    assert spec == PolicySpec.parse("strategic:3+2")
    # content is embedded: later file changes don't affect the spec
    path.write_text(json.dumps({"kind": "strategic", "order": "2+3"}))
    assert spec.args == {"order": "3+2"}


# ---------------------------------------------------------------------------
# Fingerprint stability across processes
# ---------------------------------------------------------------------------
def test_fingerprint_stable_across_processes():
    """Hash-seed randomization must not leak into fingerprints."""
    spec = _run_spec(
        routing="t-ugal-l", policy=PolicySpec.parse("strategic:2+3")
    )
    script = (
        "from repro.spec import RunSpec\n"
        f"spec = RunSpec.from_dict({spec.to_dict()!r})\n"
        "print(spec.fingerprint())\n"
    )
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    prints = [
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src_dir, "PYTHONHASHSEED": hash_seed},
        ).stdout.strip()
        for hash_seed in ("0", "4242")
    ]
    assert prints[0] == prints[1] == spec.fingerprint()


# ---------------------------------------------------------------------------
# Registry consistency + the shared routing-variant gate
# ---------------------------------------------------------------------------
def test_registries_are_consistent():
    assert check_registries() == []


def test_routing_registry_matches_simulator():
    assert ROUTING_REGISTRY.kinds() == ROUTING_VARIANTS


@pytest.mark.parametrize("variant", ["t-min", "t-vlb"])
def test_t_min_t_vlb_rejected_everywhere(variant):
    """make_routing and the spec layer reject T- forms with one message."""
    expected = (
        f"unknown routing variant {variant!r}: only variants with "
        "custom-policy support have a T- form (t-ugal-l, t-ugal-g, t-par)"
    )
    with pytest.raises(ValueError, match="T- form"):
        resolve_routing(variant)
    try:
        resolve_routing(variant)
    except SpecError as exc:
        assert str(exc) == expected
    try:
        make_routing(TOPO, variant)
    except ValueError as exc:
        assert str(exc) == expected
    else:  # pragma: no cover - the raise is the test
        pytest.fail("make_routing accepted " + variant)
    with pytest.raises(ValueError, match="T- form"):
        _run_spec(routing=variant, policy=PolicySpec.parse("all"))


def test_unknown_variant_message_lists_t_forms():
    with pytest.raises(SpecError, match="t-ugal-l, t-ugal-g, t-par"):
        resolve_routing("warp")


def test_t_variant_requires_policy():
    with pytest.raises(SpecError, match="needs a custom policy"):
        _run_spec(routing="t-ugal-l", policy=None)


def test_a_saved_spec_with_the_candidate_cache_is_refused_by_name():
    """A run spec saved while ``SimParams`` still had
    ``vlb_cache_per_pair`` describes a run this code cannot make: loading
    it names the field instead of failing inside ``SimParams``."""
    data = _run_spec().to_dict()
    data["params"]["vlb_cache_per_pair"] = 128
    with pytest.raises(SpecError, match=r"\['vlb_cache_per_pair'\]"):
        RunSpec.from_dict(json.loads(json.dumps(data)))
    run = _run_spec()
    sweep = SweepSpec(
        run.topology, run.pattern, (0.1, 0.2), params=run.params
    ).to_dict()
    sweep["params"]["vlb_cache_per_pair"] = 0
    with pytest.raises(SpecError, match="vlb_cache_per_pair"):
        SweepSpec.from_dict(sweep)


def test_ad_hoc_subclass_has_no_spec():
    class Weird(Dragonfly):
        pass

    with pytest.raises(SpecError, match="no registered spec"):
        TopologySpec.of(Weird(2, 4, 2, 5))
