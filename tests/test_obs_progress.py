"""ProgressReporter heartbeats, throttling, and ETA semantics."""

import io

from repro.obs import ProgressReporter


def _fake_clock(step=1.0):
    state = {"t": -step}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


def _reporter(interval=10.0, step=1.0):
    stream = io.StringIO()
    reporter = ProgressReporter(
        label="test", interval=interval, stream=stream,
        clock=_fake_clock(step),
    )
    return reporter, stream


class TestHeartbeats:
    def test_lines_carry_counts_and_label(self):
        reporter, stream = _reporter(interval=0.0)
        reporter.start(3)
        for _ in range(3):
            reporter.advance()
        reporter.finish()
        lines = stream.getvalue().strip().splitlines()
        assert all(line.startswith("[test]") for line in lines)
        assert "3/3 done" in lines[-1]

    def test_throttled_to_interval(self):
        # clock ticks 1s per call, interval 10s: the first advance emits
        # (initial heartbeat), then only the final one (done == total)
        reporter, stream = _reporter(interval=10.0)
        reporter.start(5)
        for _ in range(5):
            reporter.advance()
        emitted = stream.getvalue().count("\n")
        assert emitted < 5
        assert reporter.lines_emitted == emitted

    def test_cache_hits_reported(self):
        reporter, stream = _reporter(interval=0.0)
        reporter.start(2)
        reporter.advance(cache_hit=True)
        reporter.advance()
        assert "1 cache hit" in stream.getvalue()


class TestEta:
    def test_eta_excludes_cache_hits(self):
        reporter, _ = _reporter(interval=1000.0)
        reporter.start(10)
        # 4 clock ticks consumed: start + three advances below
        reporter.advance(cache_hit=True)
        reporter.advance(cache_hit=True)
        reporter.advance()  # the only computed point
        eta = reporter.eta_seconds()
        assert eta is not None
        # rate is computed-points / elapsed, not done / elapsed: with
        # hits counted the estimate would be ~3x smaller
        assert eta > (10 - 3) / (3 / 1.0)

    def test_no_eta_without_computed_points(self):
        reporter, _ = _reporter()
        reporter.start(4)
        reporter.advance(cache_hit=True)
        assert reporter.eta_seconds() is None

    def test_no_eta_when_done(self):
        reporter, _ = _reporter(interval=0.0)
        reporter.start(1)
        reporter.advance()
        assert reporter.eta_seconds() is None


class TestFinish:
    def test_early_end_stays_quiet(self):
        reporter, stream = _reporter(interval=1000.0)
        reporter.start(5)
        reporter.advance()
        before = stream.getvalue()
        reporter.finish()  # batch aborted: no misleading final line
        assert stream.getvalue() == before

    def test_start_extends_the_count(self):
        reporter, _ = _reporter(interval=0.0)
        reporter.start(2)
        reporter.advance(cache_hit=True)
        reporter.start(3)
        assert reporter.done == 1
        assert reporter.cache_hits == 1
        assert reporter.total == 5


class TestBatches:
    def test_two_batches_end_on_one_total_line(self):
        """A sweep computed batch by batch reads as one count: the last
        line is the sum of both batches, printed once."""
        reporter, stream = _reporter(interval=1000.0)
        for size in (2, 3):
            reporter.start(size)
            for _ in range(size):
                reporter.advance()
            reporter.finish()
        lines = stream.getvalue().strip().splitlines()
        assert lines[-1] == "[test] 5/5 done"
        assert sum("5/5 done" in line for line in lines) == 1

    def test_clock_starts_at_the_first_batch(self):
        # one tick per clock call: the first start at t=0, then three
        # computed points at t=1..3, the last one of a second batch; the
        # rate is the points over the time since the first start
        reporter, _ = _reporter(interval=1000.0)
        reporter.start(2)
        reporter.advance()
        reporter.advance()
        reporter.start(4)
        reporter.advance()
        # 3 points in 3 ticks: 3 remain at 1 point per tick
        assert reporter.eta_seconds(now=3.0) == 3.0
