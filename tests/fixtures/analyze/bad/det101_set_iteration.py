"""The exact historical ``_busy_channels`` bug shape.

The fast engine once kept its per-cycle work list as a ``set`` and
iterated it in ``_transmit``; channel objects hash by ``id()``, so the
scan order -- and with it credit allocation under contention -- changed
from run to run.  The fix was an insertion-ordered dict-as-set
(``Dict[SimChannel, None]``); the engine's work lists are timing wheels
today.
"""

from typing import List, Set


class SetWorkListNetwork:
    def __init__(self) -> None:
        # DET101: a set of id()-hashed objects used as a work list
        self._busy_channels: Set[object] = set()
        self.inject_channels: List[object] = []

    def inject(self, packet, channel) -> None:
        self._busy_channels.add(channel)

    def _transmit(self) -> None:
        done = []
        for channel in self._busy_channels:  # scan order = memory order
            if not channel.out_queue:
                done.append(channel)
        for channel in done:
            self._busy_channels.discard(channel)
