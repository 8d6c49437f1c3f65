"""Heartbeat/ETA progress reporting for sweep batches.

:class:`ProgressReporter` is a tiny terminal-friendly reporter the
executor drives: ``start(total)`` then ``advance()`` per finished point,
``finish()`` at the end of each batch.  One reporter counts across every
batch it is given -- a ladder computed batch by batch reads as one
``done/total`` count -- and its clock starts at the first.  Output goes
to ``stderr`` (results stay clean on ``stdout``) and is throttled to one
line per ``interval`` seconds plus one at each batch's end, so a
thousand cache hits do not print a thousand lines.  The ETA is the
classic remaining/rate estimate over *computed* points -- cache hits are
counted separately and excluded from the rate, since a hit costs a file
read, not a simulation.

The reporter is deliberately dependency-free (no tqdm) and injectable
(``stream``, ``clock``) so tests can drive it deterministically.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Throttled ``N done / N total / cache hits / ETA`` heartbeats."""

    def __init__(
        self,
        label: str = "sweep",
        interval: float = 1.0,
        stream: Optional[TextIO] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.label = label
        self.interval = interval
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self.total = 0
        self.done = 0
        self.cache_hits = 0
        self._started: Optional[float] = None
        self._last_emit = 0.0  # 0 forces an initial heartbeat
        self._emitted_done = -1  # the count the last line showed
        self.lines_emitted = 0

    def start(self, total: int) -> None:
        """Add a batch of ``total`` points to the count (the first batch
        starts the clock)."""
        self.total += total
        if self._started is None:
            self._started = self._clock()

    def advance(self, cache_hit: bool = False) -> None:
        """Mark one point finished; emits a heartbeat when due."""
        self.done += 1
        if cache_hit:
            self.cache_hits += 1
        now = self._clock()
        due = (
            self.done >= self.total
            or self._last_emit == 0.0
            or now - self._last_emit >= self.interval
        )
        if due:
            self._emit(now)

    def finish(self) -> None:
        """Emit the line of a finished batch, unless it is already out."""
        if self.done < self.total or self._emitted_done == self.done:
            return  # batch ended early (e.g. an exception), or no news
        self._emit(self._clock())

    def eta_seconds(self, now: Optional[float] = None) -> Optional[float]:
        """Estimated seconds remaining, or ``None`` (no rate yet).

        Cache hits are excluded from the rate: the estimate divides the
        elapsed wall time by *computed* points only, then scales by the
        remaining count (pessimistically assuming no further hits).
        """
        computed = self.done - self.cache_hits
        if computed <= 0 or self.done >= self.total:
            return None
        now = self._clock() if now is None else now
        elapsed = max(now - (self._started or 0.0), 0.0)
        rate = computed / elapsed if elapsed > 0 else None
        if not rate:
            return None
        return (self.total - self.done) / rate

    def _emit(self, now: float) -> None:
        self._last_emit = now
        self._emitted_done = self.done
        eta = self.eta_seconds(now)
        eta_text = f", ETA {eta:.0f}s" if eta is not None else ""
        hits = (
            f", {self.cache_hits} cache hit"
            f"{'s' if self.cache_hits != 1 else ''}"
            if self.cache_hits
            else ""
        )
        self.stream.write(
            f"[{self.label}] {self.done}/{self.total} done{hits}{eta_text}\n"
        )
        self.stream.flush()
        self.lines_emitted += 1
