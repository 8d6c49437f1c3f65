"""Top-level simulation driver.

``simulate(...)`` runs one simulation point at a fixed offered load and
returns a :class:`~repro.sim.stats.SimResult`.  What a run *is* -- its
set-up, its cycle loop, its result -- is :class:`Run`, shared with
:func:`repro.sim.batch.simulate_batch` and the executor's points.  Set-up
builds one lane object per run -- the kernel's
:class:`~repro.sim.array.lane.RouteLane` or the per-packet
:class:`~repro.sim.routing.RoutingAlgorithm` -- and from there on the
run drives it through ``traffic`` / ``run`` / ``counts()`` without
asking which one it is.

Injection follows BookSim's Bernoulli process: each node independently
generates a packet with probability ``load`` per cycle; packets wait in an
unbounded source queue, and their route is computed (the UGAL decision)
when they are handed to the network, using current queue state.
"""

from __future__ import annotations

import os
import time
from typing import Any, Optional

import numpy as np

from repro.obs import (
    NULL_REGISTRY,
    EngineSampler,
    MetricRegistry,
    Tracer,
    active_capture,
    channel_utilization,
)
from repro.obs.manifest import RunManifest
from repro.routing.pathset import AllVlbPolicy, PathPolicy
from repro.routing.table import route_table
from repro.sim.array import ArrayNetwork
from repro.sim.array.lane import RouteLane, kernel_plan
from repro.sim.network import Network
from repro.sim.params import SimParams
from repro.sim.routing import make_routing
from repro.sim.stats import SimResult, StatsCollector
from repro.topology.dragonfly import Dragonfly
from repro.traffic.patterns import TrafficPattern

__all__ = ["Run", "simulate", "build_network"]

# a Run's ``spec`` when its caller did not derive one: the manifest
# derives it from the live objects
_DERIVE: Any = object()


def _num_vcs(topo: Dragonfly, params: SimParams, routing: str) -> int:
    """The VC count the routing variant needs on ``topo``."""
    name = routing.lower()
    base = name[2:] if name.startswith("t-") else name
    return params.vcs_required(base, topo.max_local_hops)


def build_network(
    topo: Dragonfly,
    params: SimParams,
    routing_variant: str,
) -> Network:
    """The timing-wheel :class:`~repro.sim.network.Network`, sized for
    the routing variant's VCs, for a caller that drives it itself:
    routes packets (``make_routing``), queues them (``inject``) and
    advances it (``step``, then ``finalize``).  That per-packet
    procedure is the one a packet-lane :class:`Run` steps, and the
    reference the native kernel is held bit-identical to.
    """
    return Network(topo, params, _num_vcs(topo, params, routing_variant))


class Run:
    """One simulation run: set-up, the cycle loop, result.

    ``simulate()``, ``simulate_batch`` and the executor's points are all
    built from it: make one, :meth:`advance` it to ``total``,
    :meth:`finish`.  Everything that decides a result -- the rng, the
    routing, the statistics -- lives here once.  Set-up asks the lane
    rule (:func:`~repro.sim.array.lane.kernel_plan`) once and builds one
    lane object, ``algo``, with its engine ``net``: on the array lane a
    :class:`~repro.sim.array.lane.RouteLane` over an
    :class:`~repro.sim.array.ArrayNetwork` (the native kernel's cycle
    loop), on the packet lane a
    :class:`~repro.sim.routing.RoutingAlgorithm` over the wheel
    :class:`~repro.sim.network.Network` (the per-packet reference).
    Both inject, decide and step behind the same ``traffic`` / ``run``
    / ``counts()``, so nothing after set-up asks which lane it is.

    ``spec`` is the run's :class:`~repro.spec.RunSpec` when the caller
    already derived it, ``None`` when the caller found the components
    have none; left out, it is derived once, for the manifest.
    """

    def __init__(
        self,
        topo: Dragonfly,
        pattern: TrafficPattern,
        load: float,
        *,
        routing: str = "ugal-l",
        policy: Optional[PathPolicy] = None,
        params: Optional[SimParams] = None,
        seed: int = 0,
        max_source_queue: int = 10_000,
        spec: Any = _DERIVE,
    ) -> None:
        if not 0.0 <= load <= 1.0:
            raise ValueError("load must be in [0, 1] packets/cycle/node")
        params = params if params is not None else SimParams()
        self.topo = topo
        self.pattern = pattern
        self.load = load
        self.routing = routing
        self.policy = policy
        self.params = params
        self.seed = seed
        self.spec = spec
        self.warmup = params.warmup_cycles
        self.total = params.total_cycles
        num_vcs = _num_vcs(topo, params, routing)
        table = route_table(topo)
        filled = table.thread_fill_seconds()
        # repro: allow[DET104]: the set-up split is runtime metadata on
        # the manifest, never part of result identity or cache keys
        compile_start = time.perf_counter()
        # one rule picks the lane, and the lane picks the engine:
        # decisions are kernel calls wherever they can be -- the
        # per-packet procedure routes explicit event lists, policies
        # without a membership program and hosts without the kernel, on
        # the wheel Network
        plan = kernel_plan(
            topo,
            pattern,
            routing=routing,
            policy=policy,
            params=params,
            num_vcs=num_vcs,
        )
        self.rng = rng = np.random.default_rng(seed)
        self.stats = stats = StatsCollector(topo.num_nodes, self.warmup)
        # repro: allow[DET104]: set-up split, as above
        build_start = time.perf_counter()
        # the lane: its engine, the engine's ejection hook, its routing
        self.algo: Any
        if plan is None:
            self.lane = "packet"
            self.net: Any = Network(topo, params, num_vcs)
            self.net.on_eject = stats.record_ejection
            # repro: allow[DET104]: closes the network build measurement
            build_seconds = time.perf_counter() - build_start
            self.algo = make_routing(self.net, routing, policy=policy, rng=rng)
        else:
            self.lane = "array"
            self.net = ArrayNetwork(topo, params, num_vcs)
            self.net.on_eject_batch = stats.record_ejection_batch
            # repro: allow[DET104]: closes the network build measurement
            build_seconds = time.perf_counter() - build_start
            self.algo = RouteLane(
                self.net,
                table,
                plan.image,
                policy if policy is not None else AllVlbPolicy(),
                plan.program,
                plan.kind,
                rng,
            )
        self.algo.traffic(load, max_source_queue, pattern)
        # repro: allow[DET104]: closes the compile measurement
        compile_seconds = time.perf_counter() - compile_start - build_seconds
        if params.verify:
            # static pre-flight gate: certify deadlock freedom and path-set
            # invariants before burning cycles on a broken configuration
            from repro.verify import verify_config

            report = verify_config(
                topo,
                policy,
                scheme=params.vc_scheme,
                routing=routing,
                num_vcs=num_vcs,
                seed=seed,
            )
            if not report.passed:
                raise RuntimeError(
                    "static verification failed for this simulation "
                    f"configuration:\n{report.to_text()}"
                )
        obs = params.obs
        self.registry = (
            MetricRegistry()
            if obs is not None and obs.metrics
            else NULL_REGISTRY
        )
        gauge = self.registry.gauge
        gauge("engine.setup.build_network_seconds").set(build_seconds)
        gauge("engine.setup.compile_seconds").set(compile_seconds)
        # this thread's composing only: exactly 0 where the topology's
        # images were already composed, and runs set up at once on other
        # threads never count the same fill twice
        gauge("routing.table_fill_seconds").set(
            table.thread_fill_seconds() - filled
        )
        # the periodic state sampler and its event log: only a sampler
        # adds segment ends to advance() (tests/test_obs_parity.py
        # asserts ObsConfig() attaches none)
        self.tracer: Optional[Tracer] = None
        self.sampler: Optional[EngineSampler] = None
        self.sample_every = 0
        if obs is not None and obs.sample_every > 0:
            self.sample_every = obs.sample_every
            self.tracer = Tracer()
            self.tracer.record(
                "run_start",
                run=self._label,
                kind="sim",
                cycle=0,
                topology=str(topo),
                routing=routing,
                load=float(load),
                seed=int(seed),
                sample_every=self.sample_every,
            )
            self.sampler = EngineSampler(self.tracer, self.net, self._label)
        # repro: allow[DET104]: wall_seconds is runtime metadata on the
        # manifest, never part of result identity or cache keys
        self._wall_start = time.perf_counter()

    @property
    def _label(self) -> str:
        """The run's name in its trace events."""
        return f"seed{self.seed}-load{self.load:g}"

    @classmethod
    def from_spec(cls, spec: Any, topo: Optional[Dragonfly] = None) -> "Run":
        """The run a :class:`~repro.spec.RunSpec` declares (on ``topo``
        when the caller already built the spec's topology)."""
        if topo is None:
            topo = spec.topology.build()
        return cls(
            topo,
            spec.pattern.build(topo),
            spec.load,
            routing=spec.routing,
            policy=spec.policy.build() if spec.policy is not None else None,
            params=spec.params,
            seed=spec.seed,
            spec=spec,
        )

    # ------------------------------------------------------------------
    # The cycle loop
    # ------------------------------------------------------------------
    def advance(self, until: int) -> None:
        """Run cycles ``[net.cycle, until)``.

        Split where Python has something to do between two cycles: the
        channel counters restart when the warm-up ends, the sampler (if
        the run traces) ticks every ``sample_every`` cycles.  Each piece
        is one ``algo.run(stop)``.  Calling it once for the whole run or
        once per cycle gives the same run.
        """
        net = self.net
        run = self.algo.run
        every = self.sample_every
        while net.cycle < until:
            cycle = net.cycle
            if cycle == self.warmup:
                net.reset_channel_counters()
                if self.sampler is not None:
                    self.sampler.rebase()
            stop = until
            if cycle < self.warmup < stop:
                stop = self.warmup
            if every:
                stop = min(stop, cycle - cycle % every + every)
            run(stop)
            if every and stop % every == 0:
                self.sampler.sample()

    # ------------------------------------------------------------------
    def finish(self) -> SimResult:
        """Drain the network and package the run's :class:`SimResult`."""
        net = self.net
        params = self.params
        # the engine buffers ejections across cycles; drain them before
        # stats.result so the tail packets count
        net.finalize()
        # repro: allow[DET104]: closes the wall_seconds runtime measurement
        wall_seconds = time.perf_counter() - self._wall_start
        measure_cycles = params.measure_windows * params.window_cycles
        result = self.stats.result(
            offered_load=self.load,
            measure_cycles=measure_cycles,
            sat_latency=params.sat_latency,
            routing=self.algo,
            sat_accept_factor=params.sat_accept_factor,
            live_fraction=self.pattern.live_fraction(),
        )
        result.channel_utilization = channel_utilization(
            net.channel_flit_totals(), measure_cycles
        )

        # provenance, off the hot path: observability never perturbs the
        # result above
        registry = self.registry
        registry.counter("engine.cycles").inc(self.total)
        registry.counter("engine.packets_measured").inc(result.packets_measured)
        registry.gauge("engine.cycles_per_sec").set(
            self.total / wall_seconds if wall_seconds > 0 else 0.0
        )
        self.manifest = manifest = self._manifest()
        manifest.wall_seconds = wall_seconds
        manifest.engine_cycles = self.total
        if registry.enabled:
            # what the injection, the decisions and the loop did (on the
            # array lane, sampling attempts per accept is the policy's
            # "useful outcomes per attempt")
            for name, value in self.algo.counts().items():
                registry.counter(name).inc(value)
            manifest.metrics = registry.snapshot()
            manifest.metrics["routing.lane"] = self.lane
        result.manifest = manifest
        if self.tracer is not None:
            self._save_trace(manifest)
        return result

    def _save_trace(self, manifest: RunManifest) -> None:
        """Close the run's event log: ``run_end``, then the per-run
        JSONL under ``obs.trace_dir`` and the caller's capture."""
        tracer = self.tracer
        tracer.record(
            "run_end",
            run=self._label,
            kind="sim",
            cycle=self.total,
            cycles=self.total,
            wall_seconds=manifest.wall_seconds,
            metrics=manifest.metrics,
        )
        trace_dir = self.params.obs.trace_dir
        if trace_dir:
            stem = (
                manifest.spec_fingerprint[:12]
                if manifest.spec_fingerprint
                else "adhoc"
            )
            tracer.save_jsonl(
                os.path.join(trace_dir, f"engine-{stem}-{self._label}.jsonl")
            )
        captured = active_capture()
        if captured is not None:
            captured.extend(tracer.events)

    def _manifest(self) -> RunManifest:
        """The provenance record of this run (identity fields only).

        Both fingerprints come from the run's declarative ``RunSpec``
        (derived here from the live objects only when the caller did not
        hand one over, or its absence), so the key is the result cache's;
        a run with a component the spec registries cannot describe has
        neither.  Lazy imports keep ``repro.sim`` importable without
        ``repro.perf``.
        """
        from repro.perf.cache import spec_key
        from repro.spec import RunSpec, SpecError

        spec = self.spec
        if spec is _DERIVE:
            try:
                spec = RunSpec.from_objects(
                    self.topo,
                    self.pattern,
                    self.load,
                    routing=self.routing,
                    policy=self.policy,
                    params=self.params,
                    seed=self.seed,
                )
            except SpecError:
                spec = None
            self.spec = spec
        spec_fp = spec.fingerprint() if spec is not None else None
        return RunManifest(
            kind="sim",
            fingerprint=spec_key(spec_fp) if spec_fp is not None else None,
            spec_fingerprint=spec_fp,
            topology=str(self.topo),
            routing=self.routing.lower(),
            load=float(self.load),
            seed=int(self.seed),
        )


def simulate(
    topo,
    pattern: Optional[TrafficPattern] = None,
    load: Optional[float] = None,
    *,
    routing: str = "ugal-l",
    policy: Optional[PathPolicy] = None,
    params: Optional[SimParams] = None,
    seed: int = 0,
    max_source_queue: int = 10_000,
) -> SimResult:
    """Run one simulation at a fixed offered load (packets/cycle/node).

    Two call forms:

    * ``simulate(topo, pattern, load, ...)`` -- live objects, as always;
    * ``simulate(spec)`` -- a single :class:`repro.spec.RunSpec`, which
      carries every argument declaratively (what ``RunSpec.run`` calls).

    ``routing`` is one of ``min, vlb, ugal-l, ugal-g, par`` or a ``t-``
    variant (which requires ``policy``, the T-VLB set).

    Scheduled patterns (``repro.traffic.trace.TraceTraffic``) inject their
    explicit event list; ``load`` is then ignored for injection and only
    used as the nominal offered load in the result record.
    ``max_source_queue`` caps per-node source queues deep in saturation so
    runaway runs stay bounded; the cap is far above anything a
    non-saturated run reaches and packets are only generated while below
    it (stalled generation, like BookSim's finite injection queues).
    """
    if pattern is None and load is None:
        # spec form -- lazy import, the spec layer sits above sim
        from repro.spec import RunSpec

        if not isinstance(topo, RunSpec):
            raise TypeError(
                "simulate() needs (topo, pattern, load, ...) or a RunSpec"
            )
        run = Run.from_spec(topo)
    elif pattern is None or load is None:
        raise TypeError("simulate() needs both pattern and load")
    else:
        run = Run(
            topo,
            pattern,
            load,
            routing=routing,
            policy=policy,
            params=params,
            seed=seed,
            max_source_queue=max_source_queue,
        )
    run.advance(run.total)
    return run.finish()
