"""Switch-level paths and channel identities.

A :class:`Path` records the switch sequence plus, for every global hop, the
*slot* of the global link used -- required because non-maximal dragonflies
have parallel global links between the same pair of switches and link-level
load accounting must tell them apart.

A :class:`Channel` is a directed switch-to-switch channel key usable as a
dict key for load accounting: local channels are identified by their
endpoint switches, global channels additionally by the link slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.topology.dragonfly import Dragonfly

__all__ = ["Channel", "Path"]

LOCAL_SLOT = -1  # slot placeholder for local (intra-group) hops


@dataclass(frozen=True)
class Channel:
    """A directed switch-to-switch channel.

    ``slot`` is the global-link slot (0-based within the group pair) for
    global channels and ``-1`` for local channels.
    """

    src: int
    dst: int
    slot: int = LOCAL_SLOT

    @property
    def is_global(self) -> bool:
        return self.slot != LOCAL_SLOT


@dataclass(frozen=True)
class Path:
    """A switch-level path: ``switches[i] -> switches[i+1]`` per hop.

    ``slots[i]`` is the global-link slot of hop ``i`` (``-1`` if local).
    A zero-hop path (source switch == destination switch) is
    ``Path((sw,), ())``.
    """

    switches: Tuple[int, ...]
    slots: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.switches) == 0:
            raise ValueError("a path needs at least one switch")
        if len(self.slots) != len(self.switches) - 1:
            raise ValueError(
                f"{len(self.switches)} switches need "
                f"{len(self.switches) - 1} hop slots, got {len(self.slots)}"
            )

    @property
    def src(self) -> int:
        return self.switches[0]

    @property
    def dst(self) -> int:
        return self.switches[-1]

    @property
    def num_hops(self) -> int:
        return len(self.switches) - 1

    @property
    def num_global_hops(self) -> int:
        return sum(1 for s in self.slots if s != LOCAL_SLOT)

    def channels(self) -> Iterator[Channel]:
        """Directed channels traversed, in order."""
        for i in range(self.num_hops):
            yield Channel(self.switches[i], self.switches[i + 1], self.slots[i])

    def concat(self, other: "Path") -> "Path":
        """Join two paths sharing a junction switch (``self.dst == other.src``)."""
        if self.dst != other.src:
            raise ValueError(
                f"cannot join path ending at {self.dst} with path starting "
                f"at {other.src}"
            )
        return Path(
            self.switches + other.switches[1:], self.slots + other.slots
        )

    def validate(self, topo: Dragonfly) -> None:
        """Raise ``ValueError`` unless every hop is a real channel of ``topo``."""
        for ch in self.channels():
            gu, gv = topo.group_of(ch.src), topo.group_of(ch.dst)
            if ch.slot == LOCAL_SLOT:
                if not topo.local_adjacent(ch.src, ch.dst):
                    raise ValueError(f"{ch} is not a local channel")
            else:
                links = topo.links_between_groups(gu, gv)
                if ch.slot >= len(links):
                    raise ValueError(f"{ch}: slot out of range")
                link = links[ch.slot]
                if {link.switch_a, link.switch_b} != {ch.src, ch.dst}:
                    raise ValueError(
                        f"{ch} does not match link {link} at that slot"
                    )

    def __len__(self) -> int:
        return self.num_hops
