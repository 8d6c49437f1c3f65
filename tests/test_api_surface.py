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
    "repro.routing.serialization",
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
    """One way to advance a native run: ``Run.advance`` (which both
    drivers call) over ``RoutingAlgorithm.advance`` / ``RouteLane.run``,
    patterns describing themselves through ``destination_program`` --
    and nothing left of the lockstep or the word buffers."""
    from repro.sim.array.lane import RouteLane
    from repro.sim.array.network import ArrayNetwork
    from repro.sim.engine import Run
    from repro.sim.routing import RoutingAlgorithm
    from repro.traffic import (
        DestinationProgram,
        TrafficPattern,
        destination_program,
    )

    for owner, name in (
        (Run, "advance"),
        (Run, "inject"),
        (Run, "finish"),
        (RoutingAlgorithm, "advance"),
        (RoutingAlgorithm, "route_nodes"),
        (RoutingAlgorithm, "revise_arrivals"),
        (RouteLane, "run"),
        (RouteLane, "traffic"),
        (RouteLane, "destinations"),
        (ArrayNetwork, "step"),
        (ArrayNetwork, "inject_batch"),
        (TrafficPattern, "destination_program"),
    ):
        doc = getattr(owner, name).__doc__
        assert doc and doc.strip(), f"{owner.__name__}.{name} lacks a docstring"
    assert destination_program.__doc__ and DestinationProgram.__doc__
    assert DestinationProgram._fields == ("fixed", "ur_mask", "ur_probability")
    for owner, name in (
        (Run, "_inject_arrays"),
        (ArrayNetwork, "pre_step"),
        (ArrayNetwork, "post_step"),
        (RouteLane, "words_drawn"),
    ):
        assert not hasattr(owner, name), f"{owner.__name__}.{name} is back"
    import repro.sim.array.lane as lane
    import repro.sim.batch as batch

    assert not hasattr(lane, "WordSource")
    assert not hasattr(batch, "_state_pointers")
