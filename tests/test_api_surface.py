"""Structural checks on the public API: docstrings and __all__ hygiene."""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.topology",
    "repro.topology.dragonfly",
    "repro.topology.arrangements",
    "repro.topology.validate",
    "repro.topology.cascade",
    "repro.routing",
    "repro.routing.paths",
    "repro.routing.minimal",
    "repro.routing.vlb",
    "repro.routing.pathset",
    "repro.routing.channels",
    "repro.routing.analysis",
    "repro.traffic",
    "repro.traffic.patterns",
    "repro.traffic.mixed",
    "repro.traffic.adversarial",
    "repro.traffic.trace",
    "repro.model",
    "repro.model.lp_model",
    "repro.model.pathstats",
    "repro.model.fastpath",
    "repro.model.sweep",
    "repro.model.bounds",
    "repro.core",
    "repro.core.datapoints",
    "repro.core.balance",
    "repro.core.algorithm",
    "repro.sim",
    "repro.sim.params",
    "repro.sim.packet",
    "repro.sim.network",
    "repro.sim.routing",
    "repro.sim.strategies",
    "repro.sim.vc",
    "repro.sim.engine",
    "repro.sim.batch",
    "repro.sim.array.lane",
    "repro.sim.stats",
    "repro.sim.sweep",
    "repro.sim.replication",
    "repro.obs",
    "repro.obs.config",
    "repro.obs.log",
    "repro.obs.manifest",
    "repro.obs.metrics",
    "repro.obs.progress",
    "repro.obs.trace",
    "repro.spec",
    "repro.spec.registry",
    "repro.spec.builtins",
    "repro.spec.specs",
    "repro.verify",
    "repro.verify.cdg",
    "repro.verify.lint",
    "repro.verify.registry",
    "repro.verify.report",
    "repro.experiments",
    "repro.experiments.report",
    "repro.experiments.figures",
    "repro.experiments.ablations",
    "repro.experiments.validation",
    "repro.cli",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_all_entries_exist(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


@pytest.mark.parametrize(
    "name",
    [m for m in PUBLIC_MODULES if not m.endswith(("cli", "figures"))],
)
def test_public_callables_documented(name):
    """Every function/class exported via __all__ carries a docstring."""
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{name}.{symbol} lacks a docstring"
            )


def test_the_run_loop_surface():
    """One way to advance a run: ``Run.advance`` (which every driver
    calls) over the lane object's ``run`` -- ``RouteLane.run`` or
    ``RoutingAlgorithm.run``, the same surface on both lanes -- patterns
    describing themselves through ``destination_program``, and nothing
    left of the lockstep, the word buffers, the one-cycle forms of the
    compiled routing calls, the one-cycle driving of the native network
    (Python steps only the wheel ``Network``), the routing algorithm's
    kernel front door or ``Run``'s own packet injection."""
    import repro.sim.array.network as array_network
    from repro.sim.array.lane import RouteLane
    from repro.sim.array.network import ArrayNetwork
    from repro.sim.engine import Run, build_network
    from repro.sim.network import Network
    from repro.sim.packet import Packet
    from repro.sim.params import SimParams
    from repro.sim.routing import RoutingAlgorithm, make_routing
    from repro.topology.dragonfly import Dragonfly
    from repro.traffic import (
        DestinationProgram,
        TrafficPattern,
        destination_program,
    )

    for owner, name in (
        (Run, "advance"),
        (Run, "finish"),
        (RoutingAlgorithm, "run"),
        (RoutingAlgorithm, "traffic"),
        (RoutingAlgorithm, "inject"),
        (RoutingAlgorithm, "counts"),
        (RouteLane, "run"),
        (RouteLane, "traffic"),
        (RouteLane, "counts"),
        (RouteLane, "destinations"),
        (TrafficPattern, "destination_program"),
    ):
        doc = getattr(owner, name).__doc__
        assert doc and doc.strip(), f"{owner.__name__}.{name} lacks a docstring"
    assert destination_program.__doc__ and DestinationProgram.__doc__
    assert DestinationProgram._fields == ("fixed", "ur_mask", "ur_probability")
    for owner, name in (
        (Run, "_inject_arrays"),
        (Run, "inject"),
        (Run, "_advance_packets"),
        (RoutingAlgorithm, "compile"),
        (RoutingAlgorithm, "advance"),
        (ArrayNetwork, "pre_step"),
        (ArrayNetwork, "post_step"),
        (RouteLane, "words_drawn"),
        (RoutingAlgorithm, "route_nodes"),
        (RoutingAlgorithm, "revise_arrivals"),
        (RouteLane, "route"),
        (RouteLane, "revise"),
        (ArrayNetwork, "step"),
        (ArrayNetwork, "inject_batch"),
        (ArrayNetwork, "inject"),
        (ArrayNetwork, "route_handle"),
        (Network, "route_handle"),
        (Packet, "route_ref"),
    ):
        assert not hasattr(owner, name), f"{owner.__name__}.{name} is back"
    assert not hasattr(array_network, "ArrayChannel")
    network = build_network(Dragonfly(2, 4, 2, 5), SimParams(), "ugal-l")
    assert not hasattr(make_routing(network, "ugal-l"), "lane")
    import repro.sim.array.lane as lane
    import repro.sim.batch as batch

    assert not hasattr(lane, "WordSource")
    assert not hasattr(batch, "_state_pointers")


def test_the_routing_algorithm_knows_nothing_of_the_kernel():
    """The per-packet procedure is one lane object and the kernel's
    ``RouteLane`` the other: ``repro.sim.routing`` imports nothing from
    ``repro.sim.array``."""
    import ast

    import repro.sim.routing as routing

    tree = ast.parse(inspect.getsource(routing))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        node.module or ""
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ]
    assert not [name for name in imported if name.startswith("repro.sim.array")]


# a sweep is scheduled by ``jobs`` alone: no per-run batch hint on
# ``SimParams``, no ``batch`` on ``SweepExecutor``, no ``--batch``
def test_sim_params_has_no_batch_hint():
    import dataclasses

    from repro.sim.params import SimParams

    assert "batch" not in {f.name for f in dataclasses.fields(SimParams)}


def test_sweep_executor_takes_only_jobs_cache_tracer_progress():
    from repro.perf import SweepExecutor

    assert list(inspect.signature(SweepExecutor).parameters) == [
        "jobs", "cache", "tracer", "progress"
    ]


def test_sweep_has_no_batch_flag():
    from repro.cli import main

    with pytest.raises(SystemExit) as err:
        main(["sweep", "--batch", "2"])
    assert err.value.code == 2


def test_lint_has_no_descriptor_cap():
    """Lint reads every candidate of a sampled pair: neither entry point
    takes ``max_descriptors``."""
    from repro.verify import lint_pathset, verify_config

    for entry in (lint_pathset, verify_config):
        assert "max_descriptors" not in inspect.signature(entry).parameters
