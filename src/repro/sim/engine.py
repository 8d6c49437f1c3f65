"""Top-level simulation driver.

``simulate(...)`` builds the network, wires a routing algorithm and a
traffic pattern to it, runs warmup + measurement windows, and returns a
:class:`~repro.sim.stats.SimResult`.

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
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.sim.params import SimParams
from repro.sim.routing import make_routing
from repro.sim.stats import SimResult, StatsCollector
from repro.topology.dragonfly import Dragonfly
from repro.traffic.patterns import NO_TRAFFIC, TrafficPattern

__all__ = ["simulate", "build_network"]


def _run_manifest(
    topo: Dragonfly,
    pattern: TrafficPattern,
    load: float,
    routing: str,
    policy: Optional[PathPolicy],
    params: SimParams,
    seed: int,
    spec: Optional[Any],
) -> RunManifest:
    """The provenance record of one run (identity fields only).

    Fingerprint derivation mirrors the result cache: the declarative
    ``RunSpec`` identity when every component is a registered spec type,
    the structural fallback otherwise, ``None`` for ad-hoc components.
    Lazy imports keep ``repro.sim`` importable without ``repro.perf``.
    """
    from repro.perf.cache import fingerprint as cache_fingerprint
    from repro.spec import RunSpec, SpecError

    if spec is None:
        try:
            spec = RunSpec.from_objects(
                topo,
                pattern,
                load,
                routing=routing,
                policy=policy,
                params=params,
                seed=seed,
            )
        except SpecError:
            spec = None
    return RunManifest(
        kind="sim",
        fingerprint=cache_fingerprint(
            topo,
            pattern,
            load,
            routing=routing,
            policy=policy,
            params=params,
            seed=seed,
        ),
        spec_fingerprint=spec.fingerprint() if spec is not None else None,
        topology=str(topo),
        routing=routing.lower(),
        load=float(load),
        seed=int(seed),
    )


def build_network(
    topo: Dragonfly,
    params: SimParams,
    routing_variant: str,
) -> Network:
    """Construct a :class:`Network` sized for the routing variant's VCs.

    ``params.engine`` selects the implementation behind the shared
    interface: ``"wheel"`` (the default) is the timing-wheel
    :class:`Network`, ``"array"`` the struct-of-arrays engine with the
    native cycle kernel (``repro.sim.array``), ``"legacy"`` the
    seed-faithful oracle kept in ``repro.perf.bench``.  Results are
    bit-identical across them (the knob is identity-neutral), so the
    choice is purely a performance decision.
    """
    name = routing_variant.lower()
    base = name[2:] if name.startswith("t-") else name
    num_vcs = params.vcs_required(base, topo.max_local_hops)
    engine = params.engine
    if engine == "array":
        from repro.sim.array import ArrayNetwork

        return ArrayNetwork(topo, params, num_vcs)
    if engine == "legacy":
        # lazy: the oracle lives in the bench harness, above repro.sim
        from repro.perf.bench import LegacyNetwork

        return LegacyNetwork(topo, params, num_vcs)
    # the module-global name, not a direct class reference:
    # repro.perf.bench.legacy_engine() monkeypatches it for A/B timing
    return Network(topo, params, num_vcs)


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
      carries every argument declaratively (what sweep workers receive).

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
    run_spec = None
    if pattern is None and load is None:
        # spec form -- lazy import, the spec layer sits above sim
        from repro.spec import RunSpec

        if not isinstance(topo, RunSpec):
            raise TypeError(
                "simulate() needs (topo, pattern, load, ...) or a RunSpec"
            )
        run_spec = topo
        topo = run_spec.topology.build()
        pattern = run_spec.pattern.build(topo)
        load = run_spec.load
        routing = run_spec.routing
        policy = (
            run_spec.policy.build() if run_spec.policy is not None else None
        )
        params = run_spec.params
        seed = run_spec.seed
    elif pattern is None or load is None:
        raise TypeError("simulate() needs both pattern and load")
    if not 0.0 <= load <= 1.0:
        raise ValueError("load must be in [0, 1] packets/cycle/node")
    params = params if params is not None else SimParams()

    # drop sampling state inherited from earlier runs in this process, so
    # the result is a pure function of the arguments (and serial sweeps
    # match process-pool sweeps bit for bit)
    from repro.routing.pathset import reset_sample_memo

    reset_sample_memo()

    network = build_network(topo, params, routing)
    if params.verify:
        # static pre-flight gate: certify deadlock freedom and path-set
        # invariants before burning cycles on a broken configuration
        from repro.verify import verify_config

        base = routing.lower()
        base = base[2:] if base.startswith("t-") else base
        report = verify_config(
            topo,
            policy,
            scheme=params.vc_scheme,
            routing=base,
            num_vcs=network.num_vcs,
            seed=seed,
        )
        if not report.passed:
            raise RuntimeError(
                "static verification failed for this simulation "
                f"configuration:\n{report.to_text()}"
            )
    rng = np.random.default_rng(seed)
    algo = make_routing(network, routing, policy=policy, rng=rng)
    stats = StatsCollector(topo.num_nodes, params.warmup_cycles)

    network.on_eject = stats.record_ejection
    network.on_eject_batch = stats.record_ejection_batch
    network.on_arrival = algo.revise_at

    nodes = np.arange(topo.num_nodes)
    total_cycles = params.total_cycles
    warmup_cycles = params.warmup_cycles

    scheduled = getattr(pattern, "scheduled", False)

    # --- observability wiring (repro.obs; identity-neutral) ---
    # The disabled default keeps the hot loop untouched beyond one
    # ``sampler is not None`` check per cycle and no-op counter calls
    # per injected packet (the <2% budget asserted in the bench smoke).
    obs = params.obs
    registry = NULL_REGISTRY
    tracer: Optional[Tracer] = None
    sampler: Optional[EngineSampler] = None
    sample_every = 0
    run_label = ""
    if obs is not None:
        if obs.metrics:
            registry = MetricRegistry()
        if obs.sample_every > 0:
            sample_every = obs.sample_every
            run_label = f"seed{seed}-load{load:g}"
            tracer = Tracer()
            tracer.record(
                "run_start",
                run=run_label,
                kind="sim",
                cycle=0,
                topology=str(topo),
                routing=routing,
                load=float(load),
                seed=int(seed),
                sample_every=sample_every,
            )
            sampler = EngineSampler(tracer, network, run_label)
    inc_injected = registry.counter("engine.packets_injected").inc
    inc_stalled = registry.counter("engine.inject_stalls").inc

    # repro: allow[DET104]: wall_seconds is runtime metadata on the
    # result, never part of result identity or cache keys
    wall_start = time.perf_counter()
    for cycle in range(total_cycles):
        if cycle == warmup_cycles:
            network.reset_channel_counters()
            if sampler is not None:
                sampler.rebase()
        # --- injection: trace events, or Bernoulli per node ---
        if scheduled:
            for src, dst in pattern.injections_at(cycle):
                if src == dst:
                    continue
                if network.source_queue_len(src) >= max_source_queue:
                    inc_stalled()
                    continue
                packet = Packet(src, int(dst), cycle)
                algo.route_packet(packet)
                network.inject(packet)
                inc_injected()
        elif load > 0.0:
            draws = rng.random(topo.num_nodes) < load
            srcs = nodes[draws]
            if srcs.size:
                dests = pattern.sample_destinations(srcs, rng)
                # batch: create, route all, then inject all.  Routing
                # reads only channel load_metric state (never source
                # queues), each node draws at most one packet per cycle,
                # and route_packets preserves sequence order, so this is
                # bit-identical to the per-packet route/inject interleave
                batch = []
                for src, dst in zip(srcs.tolist(), dests.tolist()):
                    if dst == NO_TRAFFIC:
                        continue
                    if network.source_queue_len(src) >= max_source_queue:
                        inc_stalled()
                        continue
                    batch.append(Packet(src, int(dst), cycle))
                    inc_injected()
                if batch:
                    algo.route_packets(batch)
                    for packet in batch:
                        network.inject(packet)
        network.step()
        if sampler is not None and network.cycle % sample_every == 0:
            sampler.sample()
    # drain any ejections the engine buffered across cycles (array
    # engine); must precede stats.result so the tail packets count
    network.finalize()
    # the hook closes a network <-> routing reference cycle; without it
    # both are freed on return instead of piling up until a full GC
    network.on_arrival = None
    # repro: allow[DET104]: closes the wall_seconds runtime measurement
    wall_seconds = time.perf_counter() - wall_start

    measure_cycles = params.measure_windows * params.window_cycles
    result = stats.result(
        offered_load=load,
        measure_cycles=measure_cycles,
        sat_latency=params.sat_latency,
        routing=algo,
        sat_accept_factor=params.sat_accept_factor,
        live_fraction=pattern.live_fraction(),
    )
    result.channel_utilization = network.channel_utilization(measure_cycles)

    # --- provenance + trace finalization (post-measurement, off the
    # hot path; observability must never perturb the result above) ---
    registry.counter("engine.cycles").inc(total_cycles)
    registry.counter("engine.packets_measured").inc(result.packets_measured)
    registry.gauge("engine.cycles_per_sec").set(
        total_cycles / wall_seconds if wall_seconds > 0 else 0.0
    )
    manifest = _run_manifest(
        topo, pattern, load, routing, policy, params, seed, run_spec
    )
    manifest.wall_seconds = wall_seconds
    manifest.engine_cycles = total_cycles
    if registry.enabled:
        manifest.metrics = registry.snapshot()
    result.manifest = manifest
    if tracer is not None:
        tracer.record(
            "run_end",
            run=run_label,
            kind="sim",
            cycle=total_cycles,
            cycles=total_cycles,
            wall_seconds=wall_seconds,
            metrics=registry.snapshot() if registry.enabled else None,
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
