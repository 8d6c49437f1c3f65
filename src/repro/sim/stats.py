"""Latency/throughput statistics collection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.manifest import RunManifest

__all__ = ["StatsCollector", "SimResult"]


@dataclass
class SimResult:
    """Measurement-window outcome of one simulation run."""

    offered_load: float  # packets/cycle/node requested
    accepted_rate: float  # packets/cycle/node ejected in the window
    avg_latency: float  # cycles, packets ejected in the window
    p99_latency: float
    avg_hops: float  # switch-to-switch hops per delivered packet
    vlb_fraction: float  # share of delivered packets that used VLB
    packets_measured: int
    saturated: bool  # avg latency above the configured threshold
    min_chosen: int = 0
    vlb_chosen: int = 0
    par_revised: int = 0
    # measurement-window channel utilization: local/global mean and max
    channel_utilization: Optional[Dict[str, float]] = None
    # provenance record (repro.obs): excluded from equality because its
    # environment fields (timings, cache outcome) vary run to run while
    # the measurement itself stays bit-identical
    manifest: Optional["RunManifest"] = field(
        default=None, compare=False, repr=False
    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sat = " SAT" if self.saturated else ""
        return (
            f"SimResult(load={self.offered_load:.3f} "
            f"acc={self.accepted_rate:.3f} lat={self.avg_latency:.1f}{sat})"
        )


class StatsCollector:
    """Accumulates per-packet measurements inside the measurement window."""

    def __init__(self, num_nodes: int, warmup_cycles: int) -> None:
        self.num_nodes = num_nodes
        self.warmup_cycles = warmup_cycles
        self.latencies: List[int] = []
        self.hops: List[int] = []
        # batched ejections stay numpy chunks until result(); converting
        # tens of thousands of entries to Python ints per drain was the
        # single largest Python-side cost of the array engine's step
        self._lat_chunks: List["np.ndarray"] = []
        self._hop_chunks: List["np.ndarray"] = []
        self.vlb_count = 0
        self.ejected = 0

    def record_ejection(self, packet, cycle: int) -> None:
        if cycle < self.warmup_cycles:
            return
        self.ejected += 1
        self.latencies.append(cycle - packet.inject_cycle)
        self.hops.append(packet.path_hops)
        if packet.used_vlb:
            self.vlb_count += 1

    def record_ejection_batch(
        self,
        latencies: "np.ndarray",
        hops: "np.ndarray",
        used_vlb: "np.ndarray",
        cycles: "np.ndarray",
    ) -> None:
        """Batched ``record_ejection``: packets ejected over many cycles.

        ``cycles[i]`` is the ejection cycle of packet ``i`` (the array
        engine buffers ejections across cycles before draining), so the
        warmup guard is applied per packet, exactly like the scalar path.

        Bit-identity with the scalar path is by construction, not by
        accident -- audited for the array engine's batched reductions:

        * ``latencies``/``hops`` are *integers* (cycle counts), kept as
          numpy chunks and concatenated in ``result()`` in arrival
          order.  The sequence reaching ``result()`` -- order included,
          not just the multiset -- is identical to what per-packet
          appends would build, and every downstream reduction there
          (``np.mean`` pairwise summation over exact integer-valued
          floats < 2**53, multiset-based ``np.percentile``) therefore
          produces the same IEEE doubles regardless of whether entries
          arrived one at a time or in batches.  No float accumulation
          happens at record time, so pairwise-vs-sequential summation
          order never enters the picture (the summation-order audit of
          every reduction in this module lives in ``result()``).
        * callers must preserve ejection order within the batch (the
          array engine drains its eject buffer in delivery-bucket order,
          the same order the wheel engine fires ``on_eject``), and the
          boolean warmup mask below is order-preserving.  Interleaved
          scalar appends are folded into the chunk sequence in order,
          so mixing both hooks stays exact too.
        * ``vlb_count``/``ejected`` are plain int sums (associative).
        """
        mask = cycles >= self.warmup_cycles
        if not mask.all():
            if not mask.any():
                return
            latencies = latencies[mask]
            hops = hops[mask]
            used_vlb = used_vlb[mask]
        self.ejected += len(latencies)
        if self.latencies:
            # preserve global arrival order across mixed scalar/batch use
            self._lat_chunks.append(np.asarray(self.latencies))
            self._hop_chunks.append(np.asarray(self.hops))
            self.latencies = []
            self.hops = []
        # copy: callers may pass views into buffers they reuse
        self._lat_chunks.append(np.array(latencies))
        self._hop_chunks.append(np.array(hops))
        self.vlb_count += int(np.count_nonzero(used_vlb))

    def result(
        self,
        offered_load: float,
        measure_cycles: int,
        sat_latency: float,
        routing: Optional[Any] = None,
        sat_accept_factor: float = 0.90,
        live_fraction: float = 1.0,
    ) -> SimResult:
        """``routing`` is the run's lane object, read for its decision
        counts (``min_chosen`` / ``vlb_chosen`` / ``par_revised``).
        ``live_fraction`` scales the offered load for patterns where some
        nodes never inject (permutation fixed points, shift(0,0)).

        Float-summation-order audit (bit-identity across engines): the
        only float reductions over per-packet data are ``np.mean`` and
        ``np.percentile`` below, both over a single concatenated array
        whose element order equals the scalar append order, so numpy's
        pairwise summation sees the same operand tree no matter how the
        entries were recorded.  All record-time accumulators
        (``ejected``, ``vlb_count``) are exact integer sums, and the
        remaining arithmetic here (``accepted``, ``vlb_fraction``) is a
        single division of exact integers -- no order sensitivity
        anywhere.
        """
        lat_parts = list(self._lat_chunks)
        if self.latencies:
            lat_parts.append(np.asarray(self.latencies))
        lat = (
            np.concatenate(lat_parts).astype(float)
            if lat_parts
            else np.zeros(0)
        )
        hop_parts = list(self._hop_chunks)
        if self.hops:
            hop_parts.append(np.asarray(self.hops))
        hops = np.concatenate(hop_parts) if hop_parts else np.zeros(0, int)
        n = len(lat)
        avg_latency = float(lat.mean()) if n else float("inf")
        accepted = self.ejected / (self.num_nodes * measure_cycles)
        effective_offered = offered_load * live_fraction
        saturated = (
            (not n)
            or avg_latency > sat_latency
            or (
                effective_offered > 0
                and accepted < sat_accept_factor * effective_offered
            )
        )
        return SimResult(
            offered_load=offered_load,
            accepted_rate=accepted,
            avg_latency=avg_latency,
            p99_latency=float(np.percentile(lat, 99)) if n else float("inf"),
            avg_hops=float(np.mean(hops)) if n else 0.0,
            vlb_fraction=self.vlb_count / n if n else 0.0,
            packets_measured=n,
            saturated=saturated,
            min_chosen=getattr(routing, "min_chosen", 0),
            vlb_chosen=getattr(routing, "vlb_chosen", 0),
            par_revised=getattr(routing, "par_revised", 0),
        )
