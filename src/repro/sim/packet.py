"""Packet representation (single-flit packets, as in the paper)."""

from __future__ import annotations

__all__ = ["Packet"]


class Packet:
    """One single-flit packet and its source route.

    ``route`` is the list of :class:`~repro.sim.network.SimChannel` objects
    to traverse (switch-to-switch channels; the ejection channel follows
    implicitly); ``vcs`` the matching VC per hop.  ``hop`` indexes the
    next entry of ``route``.  Both lists are shared with every other
    packet on the same routing candidate (never mutate them).
    """

    __slots__ = (
        "src_node",
        "dst_node",
        "inject_cycle",
        "route",
        "vcs",
        "hop",
        "revisable",
        "used_vlb",
        "path_hops",
        "arrived_channel",
        "current_vc",
    )

    def __init__(self, src_node: int, dst_node: int, inject_cycle: int) -> None:
        self.src_node = src_node
        self.dst_node = dst_node
        self.inject_cycle = inject_cycle
        self.route = None  # type: ignore[assignment]
        self.vcs = None  # type: ignore[assignment]
        self.hop = 0
        self.revisable = False  # PAR: may re-decide at the second switch
        self.used_vlb = False
        self.path_hops = 0  # switch-to-switch hops of the chosen path
        self.arrived_channel = None  # channel whose buffer we occupy
        self.current_vc = 0  # VC of the buffer slot currently held

    @property
    def next_vc(self) -> int:
        return self.vcs[self.hop]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.src_node}->{self.dst_node} "
            f"t={self.inject_cycle} hop={self.hop}/{self.path_hops})"
        )
