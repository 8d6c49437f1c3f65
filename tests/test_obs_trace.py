"""Tracer round trips, Chrome export, capture(), executor lifecycles."""

import json

import pytest

from repro.obs import ObsConfig, Tracer, capture, render_summary
from repro.perf import SimTask, SweepExecutor
from repro.perf.cache import SimCache
from repro.sim import SimParams, simulate
from repro.topology import Dragonfly
from repro.traffic.patterns import UniformRandom


def _fake_clock(start=1000.0, step=0.25):
    state = {"t": start - step}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


SMALL = dict(window_cycles=80, warmup_windows=1)


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(2, 4, 2, 9)


class TestJsonlRoundTrip:
    def test_record_save_load(self, tmp_path):
        tracer = Tracer(clock=_fake_clock())
        tracer.record("task_finished", kind="sim", index=0, duration=0.5)
        tracer.record("cache_hit", kind="sim", index=1, label="min@0.1")
        path = str(tmp_path / "trace.jsonl")
        tracer.save_jsonl(path)
        loaded = Tracer.load_jsonl(path)
        assert loaded.events == tracer.events

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "cache_hit", "t": 1.0}\n\n')
        assert len(Tracer.load_jsonl(str(path))) == 1


class TestChromeExport:
    def _traced(self):
        tracer = Tracer(clock=_fake_clock())
        tracer.record("batch_start", kind="sim", tasks=2)
        tracer.record("cache_hit", kind="sim", index=0, label="min@0.05")
        tracer.record(
            "task_finished",
            kind="sim",
            index=1,
            label="min@0.1",
            worker=4242,
            started=1000.5,
            duration=0.125,
            mode="serial",
        )
        tracer.record(
            "run_start", run="seed0-load0.1", cycle=0, kind="sim"
        )
        tracer.record(
            "engine_sample",
            run="seed0-load0.1",
            cycle=40,
            backlog=3,
            in_flight=17,
            vc_occupancy=[1, 2],
            util={"local_mean": 0.25, "global_max": 0.5},
        )
        tracer.record(
            "run_end", run="seed0-load0.1", cycle=80, kind="sim"
        )
        tracer.record(
            "batch_end",
            kind="sim",
            cache_hits=1,
            computed=1,
            wall_seconds=0.5,
        )
        return tracer

    def test_event_mapping(self):
        doc = self._traced().to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        json.dumps(doc)  # must be JSON-clean

        slices = [e for e in events if e["ph"] == "X"]
        assert any(e["name"] == "min@0.1" for e in slices)
        task = next(e for e in slices if e["name"] == "min@0.1")
        assert task["tid"] == 4242
        assert task["dur"] == pytest.approx(0.125e6)
        assert any(e["name"].startswith("batch:") for e in slices)

        instants = [e for e in events if e["ph"] == "i"]
        assert any(e["name"].startswith("cache-hit") for e in instants)

        counters = [e for e in events if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert {"backlog", "vc_occupancy", "utilization"} <= names
        backlog = next(e for e in counters if e["name"] == "backlog")
        assert backlog["ts"] == 40.0  # engine time = cycle number
        assert backlog["pid"] >= 100  # engine runs on their own rows

    def test_export_chrome_writes_file(self, tmp_path):
        path = str(tmp_path / "out" / "trace.json")
        self._traced().export_chrome(path)
        doc = json.load(open(path))
        assert doc["traceEvents"]

    def test_summary_aggregates(self):
        summary = self._traced().summary()
        assert summary["cache_hits"] == 1
        assert summary["computed"] == 1
        assert summary["cache_hit_rate"] == 0.5
        assert summary["engine_samples"] == 1
        assert summary["max_backlog"] == 3
        text = render_summary(summary)
        assert "50% hit rate" in text
        assert "max backlog 3" in text
        # one line per batch kind, however many batches of it ran
        tracer = self._traced()
        tracer.record("batch_end", kind="sim", cache_hits=0, computed=3,
                      wall_seconds=0.25)
        tracer.record("batch_end", kind="model", cache_hits=2, computed=2,
                      wall_seconds=1.0)
        summary = tracer.summary()
        assert len(summary["batches"]) == 3
        lines = [
            line.strip() for line in render_summary(summary).splitlines()
            if line.strip().startswith("batch[")
        ]
        assert lines == [
            "batch[model]: 1 batch, 4 points in 1.000s (2 cache hits)",
            "batch[sim]: 2 batches, 5 points in 0.750s (1 cache hits)",
        ]


class TestEngineCapture:
    def test_capture_collects_engine_samples(self, topo):
        pattern = UniformRandom(topo)
        params = SimParams(**SMALL, obs=ObsConfig(sample_every=20))
        with capture() as tracer:
            simulate(topo, pattern, 0.1, params=params, seed=3)
        types = [e["type"] for e in tracer.events]
        assert types[0] == "run_start"
        assert types[-1] == "run_end"
        assert types.count("engine_sample") > 0
        sample = next(
            e for e in tracer.events if e["type"] == "engine_sample"
        )
        assert set(sample) >= {
            "run", "cycle", "backlog", "in_flight", "vc_occupancy", "util"
        }

    def test_no_capture_no_side_effects(self, topo):
        pattern = UniformRandom(topo)
        params = SimParams(**SMALL, obs=ObsConfig(sample_every=20))
        simulate(topo, pattern, 0.1, params=params, seed=3)  # no crash

    def test_trace_dir_writes_per_run_files(self, topo, tmp_path):
        pattern = UniformRandom(topo)
        params = SimParams(
            **SMALL,
            obs=ObsConfig(sample_every=20, trace_dir=str(tmp_path)),
        )
        simulate(topo, pattern, 0.1, params=params, seed=3)
        files = list(tmp_path.glob("engine-*.jsonl"))
        assert len(files) == 1
        loaded = Tracer.load_jsonl(str(files[0]))
        assert any(e["type"] == "engine_sample" for e in loaded.events)


    def test_capture_holds_runs_computed_on_executor_threads(self, topo):
        """Points an executor computes on helper threads run in this
        process, so every run's engine events reach the caller's
        capture, each run's log whole and in order."""
        from repro.sim.sweep import latency_vs_load

        loads = [0.05, 0.1, 0.15, 0.2]
        params = SimParams(**SMALL, obs=ObsConfig(sample_every=20))
        with capture() as tracer:
            with SweepExecutor(jobs=2) as executor:
                latency_vs_load(
                    topo,
                    UniformRandom(topo),
                    loads,
                    routing="ugal-l",
                    params=params,
                    seed=3,
                    executor=executor,
                    stop_after_saturation=False,
                )
        engine = [e for e in tracer.events if "run" in e]
        runs = sorted({e["run"] for e in engine})
        assert runs == sorted(f"seed3-load{load:g}" for load in loads)
        alone = Tracer()
        with capture(alone):
            simulate(topo, UniformRandom(topo), 0.1, params=params, seed=3)
        per_run = len(alone.events)
        assert len(engine) == per_run * len(loads)
        for run in runs:
            at = [i for i, e in enumerate(engine) if e["run"] == run]
            assert at == list(range(at[0], at[0] + per_run))
            assert [engine[i]["type"] for i in at] == [
                e["type"] for e in alone.events
            ]
        finished = [e for e in tracer.events if e["type"] == "task_finished"]
        assert len(finished) == len(loads)


class TestExecutorLifecycle:
    def test_batch_and_task_events(self, topo, tmp_path):
        pattern = UniformRandom(topo)
        params = SimParams(**SMALL)
        tasks = [
            SimTask(topo, pattern, load, routing="min",
                    params=params, seed=1)
            for load in (0.05, 0.1)
        ]
        tracer = Tracer()
        cache = SimCache(str(tmp_path / "cache"))
        with SweepExecutor(jobs=1, cache=cache, tracer=tracer) as ex:
            first = ex.run(tasks)
        types = [e["type"] for e in tracer.events]
        assert types[0] == "batch_start"
        assert types[-1] == "batch_end"
        assert types.count("task_finished") == 2
        assert types.count("task_started") == 2
        assert types.count("task_submitted") == 2
        finished = [
            e for e in tracer.events if e["type"] == "task_finished"
        ]
        assert all(e["duration"] > 0 for e in finished)
        assert all(e["worker"] for e in finished)
        assert [e["index"] for e in finished] == [0, 1]

        # second batch: all cache hits, and results identical
        tracer2 = Tracer()
        with SweepExecutor(jobs=1, cache=cache, tracer=tracer2) as ex:
            second = ex.run(tasks)
        assert second == first
        types2 = [e["type"] for e in tracer2.events]
        assert types2.count("cache_hit") == 2
        assert types2.count("task_finished") == 0
        assert tracer2.summary()["cache_hit_rate"] == 1.0

    def test_executor_joins_active_capture(self, topo):
        pattern = UniformRandom(topo)
        task = SimTask(
            topo, pattern, 0.05, routing="min",
            params=SimParams(**SMALL), seed=1,
        )
        with capture() as tracer:
            with SweepExecutor(jobs=1) as ex:
                ex.run([task])
        types = [e["type"] for e in tracer.events]
        assert "batch_start" in types and "task_finished" in types
