"""Path computation on dragonfly: MIN paths, VLB paths, and path policies.

A *MIN path* crosses at most one global link; between two groups there is
exactly one canonical MIN path per global link joining them (local hop to
the link's source-side switch, the global hop, local hop to the
destination switch), so MIN path diversity equals the number of links
between the group pair.

A *VLB path* is two MIN paths glued at an intermediate switch outside the
source and destination groups.  We represent a VLB path compactly by its
:class:`VlbDescriptor` ``(mid, slot1, slot2)`` and only materialize
:class:`Path` objects on demand -- full enumeration is quadratic in the
links-per-group-pair and infeasible to store for large topologies.

:class:`PathPolicy` subclasses define *which* VLB paths a routing scheme may
use; they are the object Algorithm 1 (``repro.core``) produces and the
simulator and LP model consume.  A policy's JSON form is its
``repro.spec`` registry entry: ``repro.spec.save_policy`` writes a set to a
file and ``PolicySpec.parse("@file.json").build()`` loads it back.
"""

from repro.routing.paths import Channel, Path
from repro.routing.minimal import min_path_via, min_paths
from repro.routing.vlb import (
    VlbDescriptor,
    enumerate_vlb_descriptors,
    vlb_class_counts,
    vlb_hops,
    vlb_path,
)
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    PathPolicy,
    StrategicFiveHopPolicy,
)
from repro.routing.analysis import (
    PathLengthStats,
    expected_packet_hops,
    mean_min_hops,
    vlb_length_distribution,
)
from repro.routing.channels import ChannelIndex

__all__ = [
    "Channel",
    "Path",
    "min_paths",
    "min_path_via",
    "VlbDescriptor",
    "vlb_path",
    "vlb_hops",
    "vlb_class_counts",
    "enumerate_vlb_descriptors",
    "PathPolicy",
    "AllVlbPolicy",
    "HopClassPolicy",
    "StrategicFiveHopPolicy",
    "ExcludingPolicy",
    "ExplicitPathSet",
    "PathLengthStats",
    "vlb_length_distribution",
    "mean_min_hops",
    "expected_packet_hops",
    "ChannelIndex",
]
