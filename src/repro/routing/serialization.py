"""Serialization of path policies (T-VLB sets).

The paper emphasizes that T-VLB is computed once, offline, "during network
designing", and never changes unless the topology does.  These helpers
turn any policy produced by Algorithm 1 into a JSON-safe dict (and back),
so a computed T-VLB can be stored next to the network configuration and
loaded by the router at boot.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.routing.paths import Channel
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    OrderedVlbPolicy,
    PathPolicy,
    StrategicFiveHopPolicy,
)
from repro.routing.vlb import VlbDescriptor

__all__ = ["policy_to_dict", "policy_from_dict", "save_policy", "load_policy"]


def policy_to_dict(policy: PathPolicy) -> Dict:
    """JSON-safe representation of a policy."""
    if isinstance(policy, AllVlbPolicy):
        return {"kind": "all"}
    if isinstance(policy, HopClassPolicy):
        return {
            "kind": "hopclass",
            "full_hops": policy.full_hops,
            "extra_fraction": policy.extra_fraction,
            "seed": policy.seed,
        }
    if isinstance(policy, StrategicFiveHopPolicy):
        return {"kind": "strategic", "order": policy.order}
    if isinstance(policy, OrderedVlbPolicy):
        return {
            "kind": "ordered",
            "fraction": policy.fraction,
            "seed": policy.seed,
        }
    if isinstance(policy, ExcludingPolicy):
        return {
            "kind": "excluding",
            "base": policy_to_dict(policy.base),
            "excluded_channels": [
                [int(ch.src), int(ch.dst), int(ch.slot)]
                for ch in sorted(
                    policy.excluded_channels,
                    key=lambda c: (c.src, c.dst, c.slot),
                )
            ],
            "excluded_descriptors": [
                [int(src), int(dst), [int(x) for x in desc]]
                for src, dst, desc in sorted(policy.excluded_descriptors)
            ],
        }
    if isinstance(policy, ExplicitPathSet):
        return {
            "kind": "explicit",
            "label": policy.label,
            "paths": [
                [src, dst, [list(d) for d in descs]]
                for (src, dst), descs in sorted(policy.paths.items())
            ],
        }
    raise TypeError(f"cannot serialize policy type {type(policy).__name__}")


def policy_from_dict(data: Dict) -> PathPolicy:
    """Inverse of :func:`policy_to_dict`."""
    kind = data.get("kind")
    if kind == "all":
        return AllVlbPolicy()
    if kind == "hopclass":
        return HopClassPolicy(
            full_hops=data["full_hops"],
            extra_fraction=data["extra_fraction"],
            seed=data.get("seed", 0),
        )
    if kind == "strategic":
        return StrategicFiveHopPolicy(order=data["order"])
    if kind == "ordered":
        return OrderedVlbPolicy(
            fraction=data["fraction"], seed=data.get("seed", 0)
        )
    if kind == "excluding":
        return ExcludingPolicy(
            base=policy_from_dict(data["base"]),
            excluded_channels=frozenset(
                Channel(src, dst, slot)
                for src, dst, slot in data["excluded_channels"]
            ),
            excluded_descriptors=frozenset(
                (src, dst, VlbDescriptor(*desc))
                for src, dst, desc in data["excluded_descriptors"]
            ),
        )
    if kind == "explicit":
        return ExplicitPathSet(
            paths={
                (src, dst): [VlbDescriptor(*d) for d in descs]
                for src, dst, descs in data["paths"]
            },
            label=data.get("label", "explicit"),
        )
    raise ValueError(f"unknown policy kind {kind!r}")


def save_policy(policy: PathPolicy, path: str) -> None:
    """Write a policy to a JSON file."""
    with open(path, "w") as fh:
        json.dump(policy_to_dict(policy), fh, indent=2)
        fh.write("\n")


def load_policy(path: str) -> PathPolicy:
    """Load a policy from a JSON file."""
    with open(path) as fh:
        return policy_from_dict(json.load(fh))
