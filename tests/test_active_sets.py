"""The kernel's active sets against the reference, across word edges.

The kernel keeps a router's occupied input slots as a bitset of
``ceil(radix * VCs / 64)`` words and visits them ring-rotated from the
router's round-robin pointer, wrapping around the words; the reference
``Network`` bisects a sorted list.  Grant order decides every result
(and PAR's revision draws), so one whole run per slot count -- below one
word, exactly one, between one and two, past two -- at a load that
keeps several slots of a router occupied must equal the reference field
for field.
"""

import numpy as np
import pytest

from repro.sim import SimParams
from repro.sim.array import native_available
from repro.topology import Dragonfly
from tests.test_run_loop import _assert_same_run, _drive

G9 = Dragonfly(4, 8, 4, 9)  # radix 15
G10 = Dragonfly(4, 9, 4, 10)  # radix 16

# (topology, routing, params overrides, slots a router): 60 < 64 = 64 <
# 75 <= 128 < 240.  Sixteen VCs, of which UGAL-L uses four, put the
# occupied VCs of every group of four ports in a word of their own.
CASES = {
    "g9-ugal-l": (G9, "ugal-l", {}, 60),
    "g10-ugal-l": (G10, "ugal-l", {}, 64),
    "g9-par": (G9, "par", {}, 75),
    "g9-ugal-l-16vcs": (G9, "ugal-l", {"num_vcs": 16}, 240),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_active_sets_across_word_edges_equal_the_reference(
    name, reference_engine
):
    topo, routing, overrides, slots = CASES[name]
    params = SimParams(window_cycles=100, warmup_windows=4, **overrides)
    assert topo.radix * params.vcs_required(routing) == slots
    # a router's round-robin pointer advances one slot a cycle: the run
    # takes it around the ring twice
    assert params.total_cycles >= 2 * slots
    case = (topo, "ur", 0.9, routing, None, params, 7, 10_000)
    reference = _drive(case)
    assert reference[0].lane == "packet"
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    got = _drive(case)
    _assert_same_run(got, reference)
    if not native_available():
        return
    assert got[0].lane == "array"
    # the run ends with routers that hold several occupied slots, spread
    # over every word of their bitsets
    S = got[0].net._S
    assert S.act_slots.shape == (topo.num_switches, -(-slots // 64))
    assert S.act_len.max() >= 8
    assert (S.act_slots != 0).any(axis=0).all()
    counted = np.array(
        [sum(bin(int(word)).count("1") for word in row) for row in S.act_slots]
    )
    assert (counted == S.act_len).all()
