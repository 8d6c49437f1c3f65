"""Top-level simulation driver.

``simulate(...)`` builds the network, wires a routing algorithm and a
traffic pattern to it, runs warmup + measurement windows, and returns a
:class:`~repro.sim.stats.SimResult`.  What a run *is* -- its set-up, its
cycle loop, its result -- is :class:`Run`, shared with
:func:`repro.sim.batch.simulate_batch`.

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
)
from repro.obs.manifest import RunManifest
from repro.routing.pathset import PathPolicy
from repro.routing.table import route_table
from repro.sim.array import ArrayNetwork
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.sim.params import SimParams
from repro.sim.routing import kernel_plan, make_routing
from repro.sim.stats import SimResult, StatsCollector
from repro.topology.dragonfly import Dragonfly
from repro.traffic.patterns import (
    NO_TRAFFIC,
    TrafficPattern,
    destination_program,
)

__all__ = ["Run", "simulate", "build_network"]


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

    ``simulate()`` and ``simulate_batch`` are both built from it: make
    one, :meth:`advance` it to ``total``, :meth:`finish`.  Everything
    that decides a result -- the rng, the draw order, the routing
    algorithm, the statistics -- lives here once.  The lane is decided
    once, before the network is built (:func:`~repro.sim.routing.
    kernel_plan`), and picks the engine: on the array lane ``net`` is an
    :class:`~repro.sim.array.ArrayNetwork` and :meth:`advance` is the
    native kernel's cycle loop, entered once per segment (warm-up end,
    sampler tick, ``until``) and coming back in between only for a
    buffer to grow or drain; on the packet lane ``net`` is the wheel
    :class:`~repro.sim.network.Network` and :meth:`advance` is
    ``inject(cycle); net.step()`` per cycle, the reference.
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
        spec: Optional[Any] = None,
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
        self.max_source_queue = max_source_queue
        self.warmup = params.warmup_cycles
        self.total = params.total_cycles
        self._scheduled = getattr(pattern, "scheduled", False)
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
        self.lane = "packet" if plan is None else "array"
        # repro: allow[DET104]: set-up split, as above
        build_start = time.perf_counter()
        # the lane's engine: the wheel Network or the native ArrayNetwork
        self.net: Any = (
            Network(topo, params, num_vcs)
            if plan is None
            else ArrayNetwork(topo, params, num_vcs)
        )
        net = self.net
        # repro: allow[DET104]: closes the network build measurement
        build_seconds = time.perf_counter() - build_start
        compile_seconds = build_start - compile_start
        self.rng = np.random.default_rng(seed)
        self.algo = make_routing(net, routing, policy=policy, rng=self.rng)
        base = self.algo.variant  # the name without its t- prefix
        if params.verify:
            # static pre-flight gate: certify deadlock freedom and path-set
            # invariants before burning cycles on a broken configuration
            from repro.verify import verify_config

            report = verify_config(
                topo,
                policy,
                scheme=params.vc_scheme,
                routing=base,
                num_vcs=num_vcs,
                seed=seed,
            )
            if not report.passed:
                raise RuntimeError(
                    "static verification failed for this simulation "
                    f"configuration:\n{report.to_text()}"
                )
        self.stats = StatsCollector(topo.num_nodes, self.warmup)
        obs = params.obs
        self.registry = (
            MetricRegistry()
            if obs is not None and obs.metrics
            else NULL_REGISTRY
        )
        self._inc_injected = self.registry.counter("engine.packets_injected").inc
        self._inc_stalled = self.registry.counter("engine.inject_stalls").inc
        self._nodes = np.arange(topo.num_nodes)
        # simulate()'s periodic state sampler, ticked by advance()
        self.sampler: Optional[EngineSampler] = None
        self.sample_every = 0
        if plan is None:
            net.on_eject = self.stats.record_ejection
            net.on_arrival = self.algo.revise_at
        else:
            net.on_eject_batch = self.stats.record_ejection_batch
            # repro: allow[DET104]: set-up split, as above
            lane_start = time.perf_counter()
            self.algo.compile(plan)
            rng = self.rng
            self.algo.lane.traffic(
                load,
                max_source_queue,
                destination_program(pattern),
                lambda srcs: pattern.sample_destinations(srcs, rng),
            )
            # repro: allow[DET104]: closes the compile measurement
            compile_seconds += time.perf_counter() - lane_start
        gauge = self.registry.gauge
        gauge("engine.setup.build_network_seconds").set(build_seconds)
        gauge("engine.setup.compile_seconds").set(compile_seconds)
        # this thread's composing only: exactly 0 where the topology's
        # images were already composed, and runs set up at once on other
        # threads never count the same fill twice
        gauge("routing.table_fill_seconds").set(
            table.thread_fill_seconds() - filled
        )
        # repro: allow[DET104]: wall_seconds is runtime metadata on the
        # manifest, never part of result identity or cache keys
        self._wall_start = time.perf_counter()

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
        ``simulate()`` attached one) ticks every ``sample_every`` cycles.
        Calling it once for the whole run or once per cycle gives the
        same run.
        """
        net = self.net
        every = self.sample_every if self.sampler is not None else 0
        step = (
            self.algo.advance
            if self.lane == "array"
            else self._advance_packets
        )
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
            step(stop)
            if every and stop % every == 0:
                self.sampler.sample()

    def _advance_packets(self, until: int) -> None:
        """The packet lane: route and queue in Python, step per cycle."""
        net = self.net
        for cycle in range(net.cycle, until):
            self.inject(cycle)
            net.step()

    # ------------------------------------------------------------------
    # Packet-lane injection: trace events, or one Bernoulli draw per node
    # ------------------------------------------------------------------
    def inject(self, cycle: int) -> None:
        """Generate, route and queue the packets of ``cycle``, packet by
        packet (the reference of the kernel loop's injection phases)."""
        if self._scheduled:
            self._inject_scheduled(cycle)
        elif self.load > 0.0:
            draws = self.rng.random(self.topo.num_nodes) < self.load
            srcs = self._nodes[draws]
            if srcs.size:
                dests = self.pattern.sample_destinations(srcs, self.rng)
                self._inject_routed(cycle, srcs, dests)

    def _inject_scheduled(self, cycle: int) -> None:
        net = self.net
        algo = self.algo
        for src, dst in self.pattern.injections_at(cycle):
            if src == dst:
                continue
            if net.source_queue_len(src) >= self.max_source_queue:
                self._inc_stalled()
                continue
            packet = Packet(src, int(dst), cycle)
            algo.route_packet(packet)
            net.inject(packet)
            self._inc_injected()

    def _inject_routed(self, cycle: int, srcs: np.ndarray, dests) -> None:
        """Create, route all, then inject all.

        Routing reads only channel load_metric state (never source
        queues), each node draws at most one packet per cycle, and
        route_packets preserves sequence order, so this is bit-identical
        to a per-packet route/inject interleave.
        """
        net = self.net
        cap = self.max_source_queue
        inc_stalled, inc_injected = self._inc_stalled, self._inc_injected
        batch = []
        for src, dst in zip(srcs.tolist(), dests.tolist()):
            if dst == NO_TRAFFIC:
                continue
            if net.source_queue_len(src) >= cap:
                inc_stalled()
                continue
            batch.append(Packet(src, int(dst), cycle))
            inc_injected()
        if batch:
            self.algo.route_packets(batch)
            for packet in batch:
                net.inject(packet)

    # ------------------------------------------------------------------
    def finish(self) -> SimResult:
        """Drain the network and package the run's :class:`SimResult`."""
        net = self.net
        params = self.params
        # the engine buffers ejections across cycles; drain them before
        # stats.result so the tail packets count
        net.finalize()
        if self.lane == "packet":
            # the hook closes a network <-> routing reference cycle;
            # without it both are freed on return instead of piling up
            # until a full GC
            net.on_arrival = None
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
        result.channel_utilization = net.channel_utilization(measure_cycles)

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
            if self.algo.lane is not None:
                # what the decisions and the loop did, from counts the
                # kernel keeps anyway (sampling attempts per accept is
                # the policy's "useful outcomes per attempt")
                for name, value in self.algo.lane.counts().items():
                    registry.counter(name).inc(value)
            manifest.metrics = registry.snapshot()
            manifest.metrics["routing.lane"] = self.lane
        result.manifest = manifest
        return result

    def _manifest(self) -> RunManifest:
        """The provenance record of this run (identity fields only).

        Both fingerprints come from the run's declarative ``RunSpec``
        (derived once from the live objects when the run was not built
        from one), so the key is the result cache's; a run with a
        component the spec registries cannot describe has neither.
        Lazy imports keep ``repro.sim`` importable without ``repro.perf``.
        """
        from repro.perf.cache import spec_key
        from repro.spec import RunSpec, SpecError

        spec = self.spec
        if spec is None:
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
                pass
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
    total_cycles = run.total

    # --- observability wiring (repro.obs; identity-neutral) ---
    # The disabled default leaves the loop untouched: only a sampler
    # adds segment ends to ``run.advance`` (tests/test_obs_parity.py
    # asserts ``ObsConfig()`` attaches none and enters the kernel as
    # often as ``obs=None``).
    obs = run.params.obs
    tracer: Optional[Tracer] = None
    run_label = ""
    if obs is not None and obs.sample_every > 0:
        run.sample_every = sample_every = obs.sample_every
        run_label = f"seed{run.seed}-load{run.load:g}"
        tracer = Tracer()
        tracer.record(
            "run_start",
            run=run_label,
            kind="sim",
            cycle=0,
            topology=str(run.topo),
            routing=run.routing,
            load=float(run.load),
            seed=int(run.seed),
            sample_every=sample_every,
        )
        run.sampler = EngineSampler(tracer, run.net, run_label)

    run.advance(total_cycles)
    result = run.finish()

    if tracer is not None:
        manifest = run.manifest
        tracer.record(
            "run_end",
            run=run_label,
            kind="sim",
            cycle=total_cycles,
            cycles=total_cycles,
            wall_seconds=manifest.wall_seconds,
            metrics=manifest.metrics,
        )
        if obs is not None and obs.trace_dir:
            stem = (
                manifest.spec_fingerprint[:12]
                if manifest.spec_fingerprint
                else "adhoc"
            )
            tracer.save_jsonl(
                os.path.join(
                    obs.trace_dir,
                    f"engine-{stem}-{run_label}.jsonl",
                )
            )
        captured = active_capture()
        if captured is not None:
            captured.extend(tracer.events)
    return result
