"""Batched multi-run driver: advance B independent runs in lockstep.

``simulate_batch([spec, ...])`` produces, for every :class:`RunSpec` in
the batch, a result **bit-identical** to ``simulate(spec)`` on the array
engine -- batching is a scheduling change, never an algorithm change.
One ``repro_step_batch`` kernel call advances every run one cycle
(run-major: each run's struct-of-arrays state stays contiguous, so
per-run cache behavior matches the single-run kernel), and the per-cycle
Python driver work around it is paid once per batch:

* **Shared candidate tables.**  MIN-path candidate sets are rng-free and
  identical for every run on one (topology, VC scheme) -- the flattened
  :class:`~repro.routing.table.MinImage` of the topology's interned
  route table -- and each run bulk-interns the whole image into its
  route arena in one vectorized copy.
* **Vectorized injection.**  For MIN routing the per-packet Python loop
  (candidate lookup, ``Packet`` objects, per-packet ``inject()``)
  collapses to array lookups plus one ``inject_batch`` scatter per run
  per cycle; only the order-pinned rng draws (one ``integers(k)`` per
  multi-candidate packet, in packet order -- exactly the draws
  ``RoutingAlgorithm.pick_min`` makes) stay scalar.
* **Generic fallback.**  Every other variant (VLB/UGAL/PAR and the T-
  forms) runs the engine's own per-packet injection loop verbatim, per
  run, still sharing the batched kernel call.  Their VLB candidate
  caches are rng-dependent, so each run owns a private sparse-sampling
  memo swapped in around its injection/revision slices
  (:func:`repro.routing.pathset.swap_sample_memo`).

Runs may differ in seed, load, pattern, and measurement params; runs
with fewer total cycles finish early and are compacted out of the batch
(ragged completion) while the rest keep advancing.  Each run gets its
own :class:`RunManifest`, is cached individually under its own RunSpec
fingerprint by the executor, and is announced through ``on_result`` /
tracer events as it completes.
"""

from __future__ import annotations

import ctypes
import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.obs import Tracer
from repro.routing.pathset import swap_sample_memo
from repro.routing.table import route_table
from repro.sim.array import ArrayNetwork
from repro.sim.array.native import CState
from repro.sim.packet import Packet
from repro.sim.params import SimParams
from repro.sim.routing import make_routing
from repro.sim.stats import SimResult, StatsCollector
from repro.traffic.patterns import NO_TRAFFIC

__all__ = ["BatchUnsupported", "simulate_batch"]

_MAX_SOURCE_QUEUE = 10_000  # simulate()'s default source-queue cap


class BatchUnsupported(RuntimeError):
    """This batch cannot take the batched path (caller should fall back
    to per-run ``simulate()``; results are identical either way)."""


# ----------------------------------------------------------------------
class _Run:
    """One batch member: network + routing + stats + private rng state."""

    __slots__ = (
        "spec", "pattern", "load", "routing", "policy", "params", "seed",
        "net", "rng", "algo", "stats", "memo", "swaps_memo", "scheduled",
        "warmup", "total", "offs", "table", "slot", "result",
    )

    def __init__(self, spec, topo) -> None:
        self.spec = spec
        self.pattern = spec.pattern.build(topo)
        self.load = spec.load
        self.routing = spec.routing
        self.policy = (
            spec.policy.build() if spec.policy is not None else None
        )
        self.params: SimParams = spec.params
        self.seed = spec.seed
        base = self.routing.lower()
        base = base[2:] if base.startswith("t-") else base
        num_vcs = self.params.vcs_required(base, topo.max_local_hops)
        if self.params.verify:
            from repro.verify import verify_config

            report = verify_config(
                topo,
                self.policy,
                scheme=self.params.vc_scheme,
                routing=base,
                num_vcs=num_vcs,
                seed=self.seed,
            )
            if not report.passed:
                raise RuntimeError(
                    "static verification failed for this simulation "
                    f"configuration:\n{report.to_text()}"
                )
        self.net = ArrayNetwork(topo, self.params, num_vcs)
        self.rng = np.random.default_rng(self.seed)
        self.algo = make_routing(
            self.net, self.routing, policy=self.policy, rng=self.rng
        )
        self.stats = StatsCollector(
            topo.num_nodes, self.params.warmup_cycles
        )
        self.net.on_eject = self.stats.record_ejection
        self.net.on_eject_batch = self.stats.record_ejection_batch
        self.net.on_arrival = self.algo.revise_at
        # private sparse-sampling reservoir memo: the batched equivalent
        # of simulate()'s reset_sample_memo() purity guarantee
        self.memo: dict = {}
        self.swaps_memo = base != "min"
        self.scheduled = getattr(self.pattern, "scheduled", False)
        self.warmup = self.params.warmup_cycles
        self.total = self.params.total_cycles
        self.offs: Optional[np.ndarray] = None  # MIN fast path arena map
        self.slot = 0
        self.result: Optional[SimResult] = None


def _check_compatible(specs) -> None:
    from repro.spec import RunSpec

    first = specs[0]
    if not isinstance(first, RunSpec):
        raise BatchUnsupported("batched runs require declarative RunSpecs")
    topo_d = first.topology.to_dict()
    routing = first.routing
    pol_d = first.policy.to_dict() if first.policy is not None else None
    for spec in specs[1:]:
        if not isinstance(spec, RunSpec):
            raise BatchUnsupported(
                "batched runs require declarative RunSpecs"
            )
        if (
            spec.topology.to_dict() != topo_d
            or spec.routing != routing
            or (spec.policy.to_dict() if spec.policy else None) != pol_d
        ):
            raise BatchUnsupported(
                "batch members must share topology + routing structure "
                "(seed/load/pattern/params may differ)"
            )
    for spec in specs:
        if spec.params.obs is not None:
            raise BatchUnsupported(
                "observability-instrumented runs take the single-run path"
            )
        if spec.params.engine == "legacy":
            raise BatchUnsupported(
                "engine='legacy' is an explicit oracle request"
            )


def simulate_batch(
    specs: Sequence,
    *,
    tracer: Optional[Tracer] = None,
    on_result: Optional[Callable[[int, SimResult], None]] = None,
) -> List[SimResult]:
    """Run every ``RunSpec`` in ``specs`` lockstep on the array engine.

    Returns results in spec order, each bit-identical to
    ``simulate(spec)``.  Raises :class:`BatchUnsupported` when the batch
    cannot take this path (non-spec payloads, mixed topology/routing,
    observability-instrumented runs, or no native kernel); callers fall
    back to per-run ``simulate()`` and lose only the speedup.
    ``on_result(index, result)`` fires as each run completes (ragged
    batches complete out of spec order).
    """
    specs = list(specs)
    if not specs:
        return []
    _check_compatible(specs)
    topo = specs[0].topology.build()
    # repro: allow[DET104]: wall_seconds is runtime metadata on the
    # manifest, never part of result identity or cache keys
    wall_start = time.perf_counter()
    runs = [_Run(spec, topo) for spec in specs]
    for i, run in enumerate(runs):
        run.slot = i
    if any(run.net.backend != "native" for run in runs):
        raise BatchUnsupported(
            "native array kernel unavailable on this host"
        )
    kernel = runs[0].net._kernel
    batch_step = kernel.repro_step_batch

    base = specs[0].routing.lower()
    fast_min = base == "min" and all(not r.scheduled for r in runs)
    nsw = topo.num_switches
    num_nodes = topo.num_nodes
    nodes = np.arange(num_nodes)
    if fast_min:
        sw_of = np.fromiter(
            (topo.switch_of_node(n) for n in range(num_nodes)),
            np.int64,
            num_nodes,
        )
        for run in runs:
            image = route_table(topo).min_image(
                run.params.vc_scheme, run.net.num_vcs
            )
            run.table = image
            run.offs = run.net.intern_route(image.chan, image.vc) + image.rel

    if tracer is not None:
        tracer.record(
            "batch_start",
            kind="sim-batch",
            runs=len(runs),
            routing=specs[0].routing,
            topology=str(topo),
        )

    active = list(runs)
    ptrs = (ctypes.POINTER(CState) * len(active))(
        *[ctypes.pointer(r.net._cstate) for r in active]
    )
    skips = (ctypes.c_int64 * len(active))()
    max_total = max(r.total for r in runs)
    results: List[Optional[SimResult]] = [None] * len(runs)

    for cycle in range(max_total):
        for i, run in enumerate(active):
            prev = swap_sample_memo(run.memo) if run.swaps_memo else None
            try:
                if cycle == run.warmup:
                    run.net.reset_channel_counters()
                if fast_min:
                    _inject_min(run, cycle, nodes, sw_of, nsw)
                else:
                    _inject_generic(run, cycle, nodes)
                skips[i] = run.net.pre_step()
            finally:
                if prev is not None:
                    swap_sample_memo(prev)
        rc = int(batch_step(ptrs, len(active), cycle, skips))
        if rc:
            run = active[rc % 1000]
            raise RuntimeError(
                f"array kernel invariant violation (code {rc // 1000}) "
                f"at cycle {cycle} in batched run seed={run.seed} "
                f"load={run.load:g}"
            )
        finished = False
        for run in active:
            run.net.post_step()
            if cycle + 1 == run.total:
                results[run.slot] = _finish(
                    run, topo, wall_start, len(runs), tracer
                )
                if on_result is not None:
                    on_result(run.slot, results[run.slot])
                finished = True
        if finished:
            active = [r for r in active if cycle + 1 != r.total]
            if active:
                ptrs = (ctypes.POINTER(CState) * len(active))(
                    *[ctypes.pointer(r.net._cstate) for r in active]
                )
                skips = (ctypes.c_int64 * len(active))()
    if tracer is not None:
        tracer.record(
            "batch_end",
            kind="sim-batch",
            runs=len(runs),
            # repro: allow[DET104]: trace timing is runtime metadata
            wall_seconds=time.perf_counter() - wall_start,
        )
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Injection paths
# ----------------------------------------------------------------------
def _inject_min(run: _Run, cycle: int, nodes, sw_of, nsw: int) -> None:
    """Vectorized MIN injection: bit-identical to the engine's loop.

    The rng consumption exactly matches ``simulate()`` + ``route_packets``:
    one ``random(num_nodes)`` Bernoulli draw, one ``sample_destinations``
    call with the unfiltered sources, then one ``integers(k)`` per
    multi-candidate packet in packet order (single-candidate and
    same-switch packets draw nothing, matching ``pick_min``).
    """
    load = run.load
    if load <= 0.0:
        return
    rng = run.rng
    draws = rng.random(nodes.size) < load
    srcs = nodes[draws]
    if not srcs.size:
        return
    dests = np.asarray(run.pattern.sample_destinations(srcs, rng))
    S = run.net._S
    keep = (dests != NO_TRAFFIC) & (S.src_len[srcs] < _MAX_SOURCE_QUEUE)
    srcs = srcs[keep]
    m = srcs.size
    if not m:
        return
    dests = dests[keep]
    ssw = sw_of[srcs]
    dsw = sw_of[dests]
    pairs = ssw * nsw + dsw
    table = run.table
    ks = np.where(ssw == dsw, 0, table.k[pairs])
    slots = table.first[pairs]
    multi = np.nonzero(ks > 1)[0]
    if multi.size:
        ints = rng.integers
        for i in multi.tolist():
            slots[i] += int(ints(int(ks[i])))
    picked = ks > 0
    records = np.zeros((m, 8), np.int32)  # kernel.c SE_* columns
    records[:, 0] = np.where(picked, table.hops[slots], 0)
    records[:, 1] = np.where(picked, table.vcs0[slots], 0)
    records[:, 2] = dests
    records[:, 4] = np.where(picked, run.offs[slots], 0)
    records[:, 5] = cycle
    run.algo.min_chosen += m
    run.net.inject_batch(srcs, records)


def _inject_generic(run: _Run, cycle: int, nodes) -> None:
    """The engine's per-packet injection loop, verbatim, for one run."""
    net = run.net
    algo = run.algo
    pattern = run.pattern
    if run.scheduled:
        for src, dst in pattern.injections_at(cycle):
            if src == dst:
                continue
            if net.source_queue_len(src) >= _MAX_SOURCE_QUEUE:
                continue
            packet = Packet(src, int(dst), cycle)
            algo.route_packet(packet)
            net.inject(packet)
        return
    load = run.load
    if load <= 0.0:
        return
    rng = run.rng
    draws = rng.random(nodes.size) < load
    srcs = nodes[draws]
    if not srcs.size:
        return
    dests = pattern.sample_destinations(srcs, rng)
    batch = []
    for src, dst in zip(srcs.tolist(), dests.tolist()):
        if dst == NO_TRAFFIC:
            continue
        if net.source_queue_len(src) >= _MAX_SOURCE_QUEUE:
            continue
        batch.append(Packet(src, int(dst), cycle))
    if batch:
        algo.route_packets(batch)
        for packet in batch:
            net.inject(packet)


def _finish(
    run: _Run, topo, wall_start: float, batch_size: int,
    tracer: Optional[Tracer],
) -> SimResult:
    """Finalize one completed run: drain, stats, manifest, trace."""
    from repro.sim.engine import _run_manifest

    run.net.finalize()
    run.net.on_arrival = None  # drop the network <-> routing cycle
    measure_cycles = run.params.measure_windows * run.params.window_cycles
    result = run.stats.result(
        offered_load=run.load,
        measure_cycles=measure_cycles,
        sat_latency=run.params.sat_latency,
        routing=run.algo,
        sat_accept_factor=run.params.sat_accept_factor,
        live_fraction=run.pattern.live_fraction(),
    )
    result.channel_utilization = run.net.channel_utilization(measure_cycles)
    manifest = _run_manifest(
        topo, run.pattern, run.load, run.routing, run.policy, run.params,
        run.seed, run.spec,
    )
    # repro: allow[DET104]: wall_seconds is runtime metadata
    manifest.wall_seconds = time.perf_counter() - wall_start
    manifest.engine_cycles = run.total
    manifest.batch_size = batch_size
    manifest.batch_slot = run.slot
    result.manifest = manifest
    if tracer is not None:
        tracer.record(
            "run_end",
            kind="sim-batch",
            slot=run.slot,
            seed=run.seed,
            load=float(run.load),
            cycles=run.total,
        )
    return result
