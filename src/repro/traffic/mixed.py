"""Space- and time-domain mixes of uniform and adversarial traffic.

``MIXED(UR%, ADV%)``: a fixed, randomly selected UR% of the compute nodes
generate uniform-random traffic; the remaining nodes follow an adversarial
pattern (default ``shift(1, 0)``).

``TMIXED(UR%, ADV%)``: every packet of every node independently has UR%
probability of a uniform destination and ADV% of the adversarial one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.topology.dragonfly import Dragonfly
from repro.traffic.patterns import (
    NO_TRAFFIC,
    DestinationProgram,
    Shift,
    TrafficPattern,
    UniformRandom,
    destination_program,
)

__all__ = ["Mixed", "TimeMixed"]


def _fixed_part(mix: "Mixed | TimeMixed") -> Optional[np.ndarray]:
    """The destination map of ``mix.adv`` when a program can describe the
    mix: ``adv`` is that map and nothing else (the mix draws after it, so
    only a draw-free ``adv`` keeps the order of draws data) and ``ur`` is
    the uniform sampler, with somebody to draw."""
    program = destination_program(mix.adv)
    if (
        program is None
        or program.fixed is None
        or program.ur_mask is not None
        or program.ur_probability is not None
        or type(mix.ur) is not UniformRandom
        or destination_program(mix.ur) is None
    ):
        return None
    return program.fixed


def _check_percentages(ur_percent: float, adv_percent: float) -> None:
    if ur_percent < 0 or adv_percent < 0:
        raise ValueError("percentages must be non-negative")
    if abs(ur_percent + adv_percent - 100.0) > 1e-9:
        raise ValueError(
            f"UR% + ADV% must equal 100, got {ur_percent} + {adv_percent}"
        )


class Mixed(TrafficPattern):
    """Space-domain mix MIXED(UR%, ADV%): node roles fixed at construction."""

    def __init__(
        self,
        topo: Dragonfly,
        ur_percent: float,
        adv_percent: float,
        adv: Optional[TrafficPattern] = None,
        seed: int = 0,
    ) -> None:
        _check_percentages(ur_percent, adv_percent)
        super().__init__(topo)
        self.ur_percent = ur_percent
        self.adv_percent = adv_percent
        self.seed = seed
        self.ur = UniformRandom(topo)
        self.adv = adv if adv is not None else Shift(topo, 1, 0)
        rng = np.random.default_rng(seed)
        n = topo.num_nodes
        n_ur = int(round(n * ur_percent / 100.0))
        chosen = rng.choice(n, size=n_ur, replace=False)
        self.is_ur = np.zeros(n, dtype=bool)
        self.is_ur[chosen] = True

    def sample_destinations(self, srcs, rng):
        dests = self.adv.sample_destinations(srcs, rng)
        mask = self.is_ur[srcs]
        if np.any(mask):
            dests = dests.copy()
            dests[mask] = self.ur.sample_destinations(srcs[mask], rng)
        return dests

    def destination_program(self) -> Optional[DestinationProgram]:
        fixed = _fixed_part(self)
        if fixed is None:
            return None
        return DestinationProgram(fixed=fixed, ur_mask=self.is_ur)

    def demand_matrix(self) -> np.ndarray:
        topo = self.topo
        n_sw = topo.num_switches
        demand = np.zeros((n_sw, n_sw))
        n = topo.num_nodes
        p = topo.p
        # UR nodes spread over all other nodes; ADV nodes follow the map.
        adv_map = self.adv.dest_map  # Mixed requires a fixed ADV pattern
        for node in range(n):
            s = topo.switch_of_node(node)
            if self.is_ur[node]:
                demand[s, :] += p / (n - 1)
                demand[s, s] -= p / (n - 1)  # same-switch stays local
            else:
                dest = adv_map[node]
                if dest != NO_TRAFFIC and dest != node:
                    d = topo.switch_of_node(dest)
                    if d != s:
                        demand[s, d] += 1.0
        np.fill_diagonal(demand, 0.0)
        return demand

    def describe(self) -> str:
        return (
            f"MIXED({self.ur_percent:g},{self.adv_percent:g}; "
            f"{self.adv.describe()})"
        )


class TimeMixed(TrafficPattern):
    """Time-domain mix TMIXED(UR%, ADV%): per-packet random role."""

    def __init__(
        self,
        topo: Dragonfly,
        ur_percent: float,
        adv_percent: float,
        adv: Optional[TrafficPattern] = None,
        seed: int = 0,
    ) -> None:
        _check_percentages(ur_percent, adv_percent)
        super().__init__(topo)
        self.ur_percent = ur_percent
        self.adv_percent = adv_percent
        self.seed = seed
        self.ur = UniformRandom(topo)
        self.adv = adv if adv is not None else Shift(topo, 1, 0)

    def sample_destinations(self, srcs, rng):
        dests = self.adv.sample_destinations(srcs, rng)
        mask = rng.random(len(srcs)) < self.ur_percent / 100.0
        if np.any(mask):
            dests = dests.copy()
            dests[mask] = self.ur.sample_destinations(srcs[mask], rng)
        return dests

    def destination_program(self) -> Optional[DestinationProgram]:
        fixed = _fixed_part(self)
        if fixed is None:
            return None
        return DestinationProgram(
            fixed=fixed, ur_probability=self.ur_percent / 100.0
        )

    def demand_matrix(self) -> np.ndarray:
        f_ur = self.ur_percent / 100.0
        return f_ur * self.ur.demand_matrix() + (1 - f_ur) * (
            self.adv.demand_matrix()
        )

    def describe(self) -> str:
        return (
            f"TMIXED({self.ur_percent:g},{self.adv_percent:g}; "
            f"{self.adv.describe()})"
        )
