"""Run-to-run determinism.

The seed engine kept its transmit work list in a ``set`` of channel
objects, so iteration order -- and with it, any future behaviour that
depends on event order -- varied with object memory addresses from run
to run.  The engine now uses ordered structures (wheels and
insertion-ordered dicts) throughout; these tests pin that down: the
same (topology, pattern, routing, seed) produces bit-identical
``SimResult`` records on repeated in-process runs.  (That the values
are still the ones the seed engine's data structures produced is pinned
by the ``oracle/`` cases of ``tests/test_routing_parity_matrix.py``.)
"""

import pytest

from repro.sim import SimParams, simulate
from repro.topology import Dragonfly
from repro.traffic.patterns import UniformRandom

TOPO = Dragonfly(2, 4, 2, 5)
PARAMS = SimParams(window_cycles=80)


def _run(routing, load=0.2, seed=3):
    return simulate(
        TOPO,
        UniformRandom(TOPO),
        load,
        routing=routing,
        params=PARAMS,
        seed=seed,
    )


@pytest.mark.parametrize("routing", ["min", "vlb", "ugal-l", "par"])
def test_same_seed_same_result(routing):
    """Two fresh runs with one seed agree on every SimResult field.

    Object identities (hence hashes and set orders) differ between the
    two runs, so this regresses the old address-ordered work lists.
    """
    assert _run(routing) == _run(routing)


def test_different_seeds_differ():
    # sanity: the equality above is not vacuous
    assert _run("ugal-l", seed=3) != _run("ugal-l", seed=4)
