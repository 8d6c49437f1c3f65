"""DrawStream == scalar ``Generator.integers(n)``, values and end state.

The routing hot path draws its bounded integers from a
:class:`repro.sim.draws.DrawStream`; results stay bit-identical only if
the stream reproduces NumPy's bounded-integer rule exactly *and* leaves
the generator where the scalar calls would have.  Both depend on the
installed NumPy, so they are property-tested against it here rather than
assumed: across bit generators, starting on either half of a buffered
64-bit word, for ``n == 1`` (consumes nothing), bounds around powers of
two and up to ``2**32``, and chunk sizes that force refills mid-draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.draws import DrawStream

BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "philox": np.random.Philox,
    "sfc64": np.random.SFC64,
    "mt19937": np.random.MT19937,
}

bounds = st.one_of(
    st.integers(1, 12),
    st.sampled_from(
        [2**k + d for k in (8, 16, 31, 32) for d in (-1, 0, 1) if 2**k + d <= 2**32]
    ),
    st.integers(1, 2**32),
)
# what else the generator is used for between routing batches
interludes = st.sampled_from(["none", "random", "integers32", "integers64"])


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return bool((a == b).all())
    return a == b


def _interlude(kind, rng):
    if kind == "random":
        return rng.random(3).tolist()
    if kind == "integers32":
        # an odd count of 32-bit words flips the buffered-half parity
        return rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
    if kind == "integers64":
        return rng.integers(0, 10**12, size=2).tolist()
    return None


@pytest.mark.parametrize("name", sorted(BIT_GENERATORS))
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batches=st.lists(
        st.tuples(interludes, st.lists(bounds, max_size=30), st.integers(1, 9)),
        min_size=1,
        max_size=4,
    ),
)
def test_stream_equals_scalar_draws_and_end_state(name, seed, batches):
    scalar = np.random.Generator(BIT_GENERATORS[name](seed))
    streamed = np.random.Generator(BIT_GENERATORS[name](seed))
    for interlude, ns, chunk in batches:
        assert _interlude(interlude, scalar) == _interlude(interlude, streamed)
        want = [int(scalar.integers(n)) for n in ns]
        with DrawStream(streamed, chunk=chunk) as draws:
            got = [draws.integers(n) for n in ns]
        assert got == want
        assert all(type(x) is int for x in got)
        assert _same_state(
            scalar.bit_generator.state, streamed.bit_generator.state
        )
    assert scalar.random() == streamed.random()


def test_untouched_stream_leaves_the_generator_alone():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with DrawStream(rng) as draws:
        assert draws.integers(1) == 0  # n == 1 consumes nothing
    assert _same_state(before, rng.bit_generator.state)


def test_generator_is_restored_when_the_body_raises():
    scalar = np.random.default_rng(11)
    streamed = np.random.default_rng(11)
    want = [int(scalar.integers(7)) for _ in range(3)]
    with pytest.raises(RuntimeError):
        with DrawStream(streamed, chunk=2) as draws:
            got = [draws.integers(7) for _ in range(3)]
            raise RuntimeError("mid-batch failure")
    assert got == want
    assert scalar.random() == streamed.random()


@pytest.mark.parametrize("bound", [0, -3, 2**32 + 1])
def test_out_of_range_bounds_are_rejected(bound):
    with DrawStream(np.random.default_rng(0)) as draws:
        with pytest.raises(ValueError):
            draws.integers(bound)
