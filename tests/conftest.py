"""Shared fixtures."""

import pytest


@pytest.fixture
def reference_engine(monkeypatch):
    """Networks built in this test step on the reference path.

    ``REPRO_ARRAYNET_NATIVE=0`` is the gate a compiler-less host is
    behind: ``ArrayNetwork`` then runs the timing-wheel ``Network`` code
    it inherits, which is what the native kernel is held bit-identical
    to.  The gate is read each time a network is built, so a test can
    ``monkeypatch.delenv`` it again to get the host's default path.
    """
    monkeypatch.setenv("REPRO_ARRAYNET_NATIVE", "0")
    return monkeypatch


@pytest.fixture(
    scope="module",
    params=[
        # the production arm keeps each test's plain name
        pytest.param("fast", id=pytest.HIDDEN_PARAM),
        pytest.param("reference", id="reference"),
    ],
)
def lp_solve(request):
    """The LP's ``reference_engine``: every test using it runs twice.

    ``lp_solve(topo, demand, weight_fn=None, *, policy=, mode=,
    monotonic=)`` solves through ``FastModel`` (what production runs;
    the unsuffixed test id) and through the reference assembly
    ``model_throughput`` (``[reference]``), so analytic bounds and LP
    properties are asserted on both.  Structural state is shared per
    topology for the module, like a sweep would.
    """
    from repro.model import FastModel, PathStatsCache, model_throughput
    from repro.routing.table import topology_key

    state = {}

    def solve(topo, demand, weight_fn=None, **options):
        key = topology_key(topo)
        if request.param == "fast":
            if key not in state:
                state[key] = FastModel(topo)
            return state[key].solve(demand, weight_fn, **options)
        if key not in state:
            state[key] = PathStatsCache(topo)
        return model_throughput(
            topo, demand, weight_fn, cache=state[key], **options
        )

    return solve
