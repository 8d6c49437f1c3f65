"""Synthetic traffic patterns (Section 4.1.3 of the paper).

Five families:

* :class:`UniformRandom` -- every destination equally likely (UR);
* :class:`Shift` -- the adversarial ``shift(dg, ds)`` group/switch shift (ADV);
* :class:`RandomPermutation` -- node-level random permutation;
* :class:`Mixed` -- space-domain mix: a fixed random subset of nodes runs UR,
  the rest run ADV (``MIXED(UR%, ADV%)``);
* :class:`TimeMixed` -- time-domain mix: each packet independently picks a
  UR or ADV destination (``TMIXED(UR%, ADV%)``).

Plus the two adversarial suites Algorithm 1 trains against
(Section 3.3.1): :func:`type_1_set` (all group+switch shifts) and
:func:`type_2_set` (random group-level permutations refined by per-pair
switch-level permutations).

Every pattern exposes per-packet destination sampling (vectorized, for the
simulator) and a switch-level demand matrix (for the LP model).  A
destination of ``-1`` (``NO_TRAFFIC``) means "this node does not inject".
The built-in families also describe their sampler as data
(:class:`DestinationProgram`), which the simulator's native cycle loop
draws from directly.
"""

from repro.traffic.patterns import (
    NO_TRAFFIC,
    DestinationProgram,
    DiscoveredPermutation,
    GroupSwitchPermutation,
    RandomPermutation,
    Shift,
    TrafficPattern,
    UniformRandom,
    destination_program,
    permutation_matrix,
)
from repro.traffic.mixed import Mixed, TimeMixed
from repro.traffic.adversarial import type_1_set, type_2_set
from repro.traffic.trace import (
    TraceTraffic,
    load_trace,
    save_trace,
    synthetic_trace,
)

__all__ = [
    "NO_TRAFFIC",
    "TrafficPattern",
    "UniformRandom",
    "Shift",
    "RandomPermutation",
    "GroupSwitchPermutation",
    "DiscoveredPermutation",
    "DestinationProgram",
    "destination_program",
    "permutation_matrix",
    "Mixed",
    "TimeMixed",
    "type_1_set",
    "type_2_set",
    "TraceTraffic",
    "synthetic_trace",
    "save_trace",
    "load_trace",
]
