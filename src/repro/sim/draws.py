"""Order-pinned bounded-integer draws from bulk raw words.

A routing decision draws a handful of small bounded integers per packet
(MIN pick, VLB group / switch / link slots), and a scalar
``int(rng.integers(n))`` costs about a microsecond of call overhead each.
:class:`DrawStream` serves the same values for a fraction of that: it
pulls raw 32-bit words from the generator in chunks and applies NumPy's
own bounded-integer rule in Python.

The contract is bit-exactness with the scalar calls, in both directions:

* ``stream.integers(n)`` returns what ``int(rng.integers(n))`` would have
  returned at that point of the sequence, and
* after :meth:`close` the generator is in the state those scalar calls
  would have left, so every later draw of any kind (``random``,
  ``integers(size=...)``, a traffic pattern's ``sample_destinations``)
  is unchanged.

Both rest on how ``numpy.random.Generator.integers`` produces an int64
below ``n <= 2**32`` (``random_bounded_uint64`` in NumPy's
``distributions.c``): ``n == 1`` consumes nothing; otherwise Lemire's
multiply-shift rejection over ``next_uint32`` words -- ``m = word * n``,
redraw while ``m mod 2**32 < (2**32 - n) mod n``, result ``m >> 32``.
``next_uint32`` hands out the halves of each 64-bit generator step and
keeps the spare half in the bit generator's state, which is why a
snapshot/restore of ``bit_generator.state`` plus re-drawing exactly the
consumed number of words reproduces the scalar end state.  The property
test in ``tests/test_draw_stream.py`` pins all of this against the
installed NumPy across bit generators.

That snapshot / bulk-draw / restore-and-redraw protocol is
:class:`WordSource`.  :class:`DrawStream` applies the bounded-integer
rule to its words in Python, for the per-packet reference procedure.
The routing kernel applies the same rule in C (``bounded`` in
``sim/array/kernel.c``) but needs no such protocol: it calls the bit
generator's own ``next_uint32`` through NumPy's ``bitgen_t`` interface.
"""

from __future__ import annotations

from types import TracebackType
from typing import List, Optional, Type

import numpy as np

__all__ = ["DrawStream", "WordSource"]

_WORD = 1 << 32
_MASK = _WORD - 1


class WordSource:
    """Raw 32-bit words ahead of their use, handed back on close.

    :meth:`take` returns the generator's next ``count`` ``next_uint32``
    words (successive takes continue the sequence); :meth:`close` leaves
    the generator where consuming only the first ``consumed`` of them
    would have.  Between the first take and close the generator must not
    be used directly; a source that never took leaves it untouched.
    """

    __slots__ = ("_rng", "_state")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._state: Optional[dict] = None  # snapshot, once words are drawn

    def take(self, count: int) -> np.ndarray:
        if self._state is None:
            self._state = self._rng.bit_generator.state
        return self._rng.integers(0, _WORD, size=count, dtype=np.uint32)

    def close(self, consumed: int) -> None:
        if self._state is None:
            return
        self._rng.bit_generator.state = self._state
        if consumed:
            self._rng.integers(0, _WORD, size=consumed, dtype=np.uint32)
        self._state = None


class DrawStream:
    """Duck-types ``Generator.integers(n)`` over pre-drawn raw words.

    Use as a context manager (or call :meth:`close`); while open, the
    wrapped generator must not be used directly.  Nothing is drawn -- and
    the generator is not touched -- until the first bounded draw.
    """

    __slots__ = ("_source", "_chunk", "_words", "_pos", "_spent")

    def __init__(self, rng: np.random.Generator, chunk: int = 256) -> None:
        self._source = WordSource(rng)
        self._chunk = max(1, chunk)
        self._words: List[int] = []
        self._pos = 0
        self._spent = 0  # words consumed from earlier chunks

    def _next_word(self) -> int:
        if self._pos == len(self._words):
            self._spent += self._pos
            self._words = self._source.take(self._chunk).tolist()
            self._pos = 0
        word = self._words[self._pos]
        self._pos += 1
        return word

    def integers(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` for ``1 <= n <= 2**32``."""
        if n == 1:
            return 0
        if not 1 < n <= _WORD:
            raise ValueError(f"bound {n} is outside [1, 2**32]")
        # inlined fast path of _next_word: this is the hot call
        pos = self._pos
        if pos < len(self._words):
            m = self._words[pos] * n
            self._pos = pos + 1
        else:
            m = self._next_word() * n
        leftover = m & _MASK
        if leftover < n:
            threshold = (_WORD - n) % n
            while leftover < threshold:
                m = self._next_word() * n
                leftover = m & _MASK
        return m >> 32

    def close(self) -> None:
        """Leave the generator where the scalar calls would have."""
        self._source.close(self._spent + self._pos)
        self._words = []
        self._pos = 0
        self._spent = 0

    def __enter__(self) -> "DrawStream":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()
