"""Simulation parameters (Table 3 of the paper).

``SimParams.paper()`` restores the paper's exact BookSim configuration
(10000-cycle windows); the default constructor uses scaled-down windows so
that a run finishes in seconds even where routing decisions are
per-packet Python.  Everything else (buffers, link latencies, speedup, VC
scheme) defaults to Table 3.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Optional

from repro.obs.config import ObsConfig

__all__ = ["SimParams"]


@dataclass(frozen=True)
class SimParams:
    """Network and measurement parameters for one simulation run."""

    # --- router / flow control (Table 3 defaults) ---
    buffer_size: int = 32  # flits per VC input buffer
    local_latency: int = 10  # cycles, intra-group channel
    global_latency: int = 15  # cycles, inter-group channel
    injection_latency: int = 1  # terminal channel latency
    router_latency: int = 2  # per-hop router pipeline delay
    speedup: int = 2  # crossbar speedup over channel rate
    output_queue_size: int = 4  # per output port, flits
    num_vcs: int = 0  # 0 = auto from vc_scheme/routing
    vc_scheme: str = "won"  # "won" (routing(4)) or "perhop" (routing(6))
    ugal_threshold: int = 0  # T: bias toward MIN paths
    # candidates drawn per decision (paper default: 1 MIN + 1 VLB; the
    # original UGAL formulation allows "a small number" of each)
    min_candidates: int = 1
    vlb_candidates: int = 1
    # flits per packet.  The paper uses single-flit packets "to avoid any
    # potential flow-control issue"; sizes > 1 are simulated with virtual
    # cut-through at packet granularity: a packet needs `packet_size`
    # credits to advance, occupies its channel for `packet_size` cycles,
    # and is delivered when its tail flit arrives.
    packet_size: int = 1
    # per-pair VLB candidate cache: after this many distinct random
    # candidates have been drawn for a switch pair, further draws reuse
    # them uniformly (an unbiased approximation that removes path
    # construction from the simulator hot loop).  0 disables the cache.
    vlb_cache_per_pair: int = 128
    # statically verify the (topology, path set, VC scheme) configuration
    # with repro.verify before running the engine; a failed verification
    # raises instead of simulating a broken configuration
    verify: bool = False
    # observability switches (repro.obs): None = fully uninstrumented.
    # Identity-neutral: excluded from spec fingerprints and cache keys
    # (see identity_dict), because observability never changes results
    obs: Optional[ObsConfig] = None  # repro: identity-neutral
    # batched-execution scheduling hint (repro.perf.BatchPlanner):
    # 0 = planner default, 1 = never batch this run, N > 1 = cap the
    # batch this run joins at N.  Pure scheduling -- a batched run is
    # bit-identical to its single-run result (pinned by the batch parity
    # suite), so the knob is identity-neutral: it never reaches spec
    # fingerprints or cache keys
    batch: int = 0  # repro: identity-neutral

    # --- measurement (paper: 3 x 10000 warmup + 10000 measurement) ---
    warmup_windows: int = 3
    measure_windows: int = 1
    window_cycles: int = 600
    sat_latency: float = 500.0  # average latency above this = saturated
    # also saturated when accepted < factor x offered (robust at short
    # windows, where source-queue latency ramps up only gradually)
    sat_accept_factor: float = 0.90

    def __post_init__(self) -> None:
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if self.speedup < 1:
            raise ValueError("speedup must be >= 1")
        if self.vc_scheme not in ("won", "perhop"):
            raise ValueError("vc_scheme must be 'won' or 'perhop'")
        if min(self.local_latency, self.global_latency) < 1:
            raise ValueError("channel latencies must be >= 1")
        if min(self.min_candidates, self.vlb_candidates) < 1:
            raise ValueError("candidate counts must be >= 1")
        if self.packet_size < 1:
            raise ValueError("packet_size must be >= 1")
        if self.packet_size > self.buffer_size:
            raise ValueError(
                "packet_size cannot exceed buffer_size (virtual cut-through "
                "buffers whole packets)"
            )
        if self.batch < 0:
            raise ValueError("batch must be >= 0 (0 = planner default)")

    def identity_dict(self) -> Dict[str, Any]:
        """The fields that define this configuration's *identity*.

        ``dataclasses.asdict`` minus ``obs`` and ``batch``: observability
        never changes simulation results (asserted by the obs parity
        tests) and batched execution is bit-identical to single-run
        execution (asserted by the batch parity suite), so both are
        excluded from every spec fingerprint and cache key --
        traced/untraced and batched/unbatched runs of one point all
        share a single cache entry.
        """
        data = asdict(self)
        data.pop("obs", None)
        data.pop("batch", None)
        return data

    def with_obs(self, obs: Optional[ObsConfig]) -> "SimParams":
        """The same configuration with observability switched on/off."""
        return replace(self, obs=obs)

    @property
    def warmup_cycles(self) -> int:
        return self.warmup_windows * self.window_cycles

    @property
    def total_cycles(self) -> int:
        return (self.warmup_windows + self.measure_windows) * self.window_cycles

    def vcs_required(self, routing: str, max_local_hops: int = 1) -> int:
        """VCs needed by a routing variant under this VC scheme.

        Matches the paper: the Won et al. allocation uses 4 VCs for
        UGAL-L/UGAL-G and 5 for PAR; the per-hop allocation (routing(6))
        uses one VC per hop of the longest path.  ``max_local_hops`` is the
        topology's worst intra-group distance (1 for fully connected
        groups); sparser groups (e.g. the Cascade 2D all-to-all, 2) chain
        more consecutive local hops per group visit, and both schemes need
        extra levels to keep every path's VC sequence deadlock-free.
        """
        if self.num_vcs > 0:
            return self.num_vcs
        par = routing in ("par", "t-par")
        mlh = max_local_hops
        if self.vc_scheme == "won":
            # levels = 2 global hops + worst-case chained local hops
            # (src run: mlh-1, merged mid-group run: 2*mlh-1, dst run:
            # mlh-1), zero-based; PAR revision shifts everything up one
            base = 2 + (4 * mlh - 3) + 1
            return base + 1 if par else base
        longest = 2 * (2 * mlh + 1)  # max VLB hops on this topology
        return longest + 1 if par else longest

    @classmethod
    def paper(cls, **overrides) -> "SimParams":
        """The paper's full-scale measurement configuration."""
        base = cls(window_cycles=10_000)
        return replace(base, **overrides) if overrides else base

    def scaled(self, window_cycles: int) -> "SimParams":
        """Same configuration with a different window length."""
        return replace(self, window_cycles=window_cycles)
