"""Built-in registrations: every shipped pattern, policy, variant, topology.

Importing this module (which ``repro.spec``'s package init does eagerly)
fills :data:`~repro.spec.registry.TRAFFIC_REGISTRY`,
:data:`~repro.spec.registry.POLICY_REGISTRY`,
:data:`~repro.spec.registry.ROUTING_REGISTRY`, and
:data:`~repro.spec.registry.TOPOLOGY_REGISTRY` with the package's own
kinds.  Third-party code registers additional kinds the same way -- see
``docs/architecture.md`` for a walkthrough.

Also home of :func:`resolve_routing`, the single place that validates
routing-variant names (including ``t-`` prefixes), so the CLI, the spec
layer, and ``make_routing`` all reject bad variants with the same words.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.routing.paths import Channel
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    OrderedVlbPolicy,
    StrategicFiveHopPolicy,
)
from repro.routing.vlb import VlbDescriptor
from repro.sim.strategies import (
    MinimalStrategy,
    ParStrategy,
    RoutingStrategy,
    UgalGlobalStrategy,
    UgalLocalStrategy,
    ValiantStrategy,
)
from repro.spec.registry import (
    POLICY_REGISTRY,
    ROUTING_REGISTRY,
    RegistryEntry,
    SpecError,
    TOPOLOGY_REGISTRY,
    TRAFFIC_REGISTRY,
)
from repro.topology.cascade import CascadeDragonfly
from repro.topology.dragonfly import Dragonfly
from repro.topology.fullmesh import FullMesh
from repro.traffic.mixed import Mixed, TimeMixed
from repro.traffic.patterns import (
    DiscoveredPermutation,
    GroupSwitchPermutation,
    RandomPermutation,
    Shift,
    UniformRandom,
)

__all__ = ["resolve_routing", "strategy_for"]


# ---------------------------------------------------------------------------
# Traffic patterns
# ---------------------------------------------------------------------------
def _no_args(what: str):
    def parse(args: str, spec: str) -> Dict[str, Any]:
        if args:
            raise SpecError(f"{what} takes no arguments, got {spec!r}")
        return {}

    return parse


def _parse_shift(args: str, spec: str) -> Dict[str, Any]:
    try:
        parts = [int(x) for x in args.split(",")] if args else [1]
    except ValueError:
        raise SpecError(
            f"bad pattern spec {spec!r}: shift needs DG[,DS]"
        ) from None
    if len(parts) > 2:
        raise SpecError(f"bad pattern spec {spec!r}: shift needs DG[,DS]")
    return {"dg": parts[0], "ds": parts[1] if len(parts) > 1 else 0}


def _parse_seed_only(what: str):
    def parse(args: str, spec: str) -> Dict[str, Any]:
        try:
            return {"seed": int(args) if args else 0}
        except ValueError:
            raise SpecError(
                f"bad pattern spec {spec!r}: {what} takes an integer SEED"
            ) from None

    return parse


def _parse_mix(args: str, spec: str) -> Dict[str, Any]:
    parts = args.split(",") if args else []
    try:
        if len(parts) not in (2, 3):
            raise ValueError
        ur, adv = float(parts[0]), float(parts[1])
        seed = int(parts[2]) if len(parts) > 2 else 0
    except ValueError:
        raise SpecError(
            f"bad pattern spec {spec!r}: need UR,ADV[,SEED]"
        ) from None
    return {
        "ur_percent": ur,
        "adv_percent": adv,
        "seed": seed,
        # the mini-language always uses the paper's default adversary
        "adv": {"kind": "shift", "args": {"dg": 1, "ds": 0}},
    }


def _build_mix(cls):
    def build(args: Dict[str, Any], topo: Dragonfly) -> Any:
        adv = args.get("adv")
        adv_pattern = (
            TRAFFIC_REGISTRY.build(adv["kind"], adv.get("args", {}), topo)
            if adv
            else None
        )
        return cls(
            topo,
            args["ur_percent"],
            args["adv_percent"],
            adv=adv_pattern,
            seed=args.get("seed", 0),
        )

    return build


def _mix_to_dict(pattern: Any) -> Dict[str, Any]:
    adv_kind, adv_args = TRAFFIC_REGISTRY.spec_of(pattern.adv)
    return {
        "ur_percent": float(pattern.ur_percent),
        "adv_percent": float(pattern.adv_percent),
        "seed": pattern.seed,
        "adv": {"kind": adv_kind, "args": adv_args},
    }


TRAFFIC_REGISTRY.register(RegistryEntry(
    kind="ur",
    build=lambda args, topo: UniformRandom(topo),
    to_dict=lambda p: {},
    parse=_no_args("ur"),
    cls=UniformRandom,
    help="ur",
    example="ur",
))
TRAFFIC_REGISTRY.register(RegistryEntry(
    kind="shift",
    build=lambda args, topo: Shift(topo, args["dg"], args.get("ds", 0)),
    to_dict=lambda p: {"dg": p.dg, "ds": p.ds},
    parse=_parse_shift,
    cls=Shift,
    help="shift:DG[,DS]",
    example="shift:2,0",
))
TRAFFIC_REGISTRY.register(RegistryEntry(
    kind="perm",
    build=lambda args, topo: RandomPermutation(
        topo, seed=args.get("seed", 0)
    ),
    to_dict=lambda p: {"seed": p.seed},
    parse=_parse_seed_only("perm"),
    cls=RandomPermutation,
    help="perm[:SEED]",
    example="perm:7",
))
TRAFFIC_REGISTRY.register(RegistryEntry(
    kind="type2",
    build=lambda args, topo: GroupSwitchPermutation(
        topo, seed=args.get("seed", 0)
    ),
    to_dict=lambda p: {"seed": p.seed},
    parse=_parse_seed_only("type2"),
    cls=GroupSwitchPermutation,
    help="type2[:SEED]",
    example="type2:3",
))
TRAFFIC_REGISTRY.register(RegistryEntry(
    # dict-only kind (like the "excluding"/"explicit" policies): found
    # adversaries are saved as JSON specs by `repro adversary --out` and
    # loaded back with `--pattern @file.json`; identity is the dest map
    kind="discovered",
    build=lambda args, topo: DiscoveredPermutation(topo, args["dest"]),
    to_dict=lambda p: {"dest": [int(d) for d in p.dest_map]},
    cls=DiscoveredPermutation,
    help="@file.json (a pattern saved by 'adversary --out')",
))
TRAFFIC_REGISTRY.register(RegistryEntry(
    kind="mixed",
    build=_build_mix(Mixed),
    to_dict=_mix_to_dict,
    parse=_parse_mix,
    cls=Mixed,
    help="mixed:UR,ADV[,SEED]",
    example="mixed:75,25",
))
TRAFFIC_REGISTRY.register(RegistryEntry(
    kind="tmixed",
    build=_build_mix(TimeMixed),
    to_dict=_mix_to_dict,
    parse=_parse_mix,
    cls=TimeMixed,
    help="tmixed:UR,ADV[,SEED]",
    example="tmixed:50,50",
))


# ---------------------------------------------------------------------------
# Path policies
# ---------------------------------------------------------------------------
def _parse_hopclass(args: str, spec: str) -> Dict[str, Any]:
    parts = args.split(",") if args else []
    if not parts:
        raise SpecError("hopclass needs L[,FRAC], e.g. hopclass:4,0.6")
    try:
        full = int(parts[0])
        frac = float(parts[1]) if len(parts) > 1 else 0.0
        seed = int(parts[2]) if len(parts) > 2 else 0
        if len(parts) > 3:
            raise ValueError
    except ValueError:
        raise SpecError(
            f"bad policy spec {spec!r}: hopclass needs L[,FRAC[,SEED]]"
        ) from None
    return {"full_hops": full, "extra_fraction": frac, "seed": seed}


# An ExcludingPolicy's base is encoded as {"kind": ..., **args} through
# this same registry, so it dispatches on its exact type like any policy.
def _build_excluding(args: Dict[str, Any]) -> ExcludingPolicy:
    base = dict(args["base"])
    return ExcludingPolicy(
        base=POLICY_REGISTRY.build(base.pop("kind"), base),
        excluded_channels=frozenset(
            Channel(src, dst, slot)
            for src, dst, slot in args["excluded_channels"]
        ),
        excluded_descriptors=frozenset(
            (src, dst, VlbDescriptor(*desc))
            for src, dst, desc in args["excluded_descriptors"]
        ),
    )


def _excluding_to_dict(policy: ExcludingPolicy) -> Dict[str, Any]:
    base_kind, base_args = POLICY_REGISTRY.spec_of(policy.base)
    return {
        "base": {"kind": base_kind, **base_args},
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


def _build_explicit(args: Dict[str, Any]) -> ExplicitPathSet:
    return ExplicitPathSet(
        paths={
            (src, dst): [VlbDescriptor(*d) for d in descs]
            for src, dst, descs in args["paths"]
        },
        label=args.get("label", "explicit"),
    )


def _explicit_to_dict(policy: ExplicitPathSet) -> Dict[str, Any]:
    return {
        "label": policy.label,
        "paths": [
            [int(src), int(dst), [[int(x) for x in d] for d in descs]]
            for (src, dst), descs in sorted(policy.paths.items())
        ],
    }


POLICY_REGISTRY.register(RegistryEntry(
    kind="all",
    build=lambda args: AllVlbPolicy(),
    to_dict=lambda p: {},
    parse=_no_args("policy 'all'"),
    cls=AllVlbPolicy,
    help="all",
    example="all",
))
POLICY_REGISTRY.register(RegistryEntry(
    kind="hopclass",
    build=lambda args: HopClassPolicy(
        args["full_hops"],
        args.get("extra_fraction", 0.0),
        seed=args.get("seed", 0),
    ),
    to_dict=lambda p: {
        "full_hops": p.full_hops,
        "extra_fraction": float(p.extra_fraction),
        "seed": p.seed,
    },
    parse=_parse_hopclass,
    cls=HopClassPolicy,
    help="hopclass:L[,FRAC]",
    example="hopclass:4,0.6",
))
POLICY_REGISTRY.register(RegistryEntry(
    kind="strategic",
    build=lambda args: StrategicFiveHopPolicy(args.get("order", "2+3")),
    to_dict=lambda p: {"order": p.order},
    parse=lambda args, spec: {"order": args or "2+3"},
    cls=StrategicFiveHopPolicy,
    help="strategic:2+3|3+2",
    example="strategic:2+3",
))
def _parse_ordered(args: str, spec: str) -> Dict[str, Any]:
    parts = args.split(",") if args else []
    try:
        frac = float(parts[0]) if parts else 1.0
        seed = int(parts[1]) if len(parts) > 1 else 0
        if len(parts) > 2:
            raise ValueError
    except ValueError:
        raise SpecError(
            f"bad policy spec {spec!r}: ordered needs [FRAC[,SEED]]"
        ) from None
    return {"fraction": frac, "seed": seed}


POLICY_REGISTRY.register(RegistryEntry(
    kind="ordered",
    build=lambda args: OrderedVlbPolicy(
        fraction=args.get("fraction", 1.0), seed=args.get("seed", 0)
    ),
    to_dict=lambda p: {"fraction": float(p.fraction), "seed": p.seed},
    parse=_parse_ordered,
    cls=OrderedVlbPolicy,
    help="ordered[:FRAC]",
    example="ordered:0.5",
))
POLICY_REGISTRY.register(RegistryEntry(
    kind="excluding",
    build=_build_excluding,
    to_dict=_excluding_to_dict,
    cls=ExcludingPolicy,
))
POLICY_REGISTRY.register(RegistryEntry(
    kind="explicit",
    build=_build_explicit,
    to_dict=_explicit_to_dict,
    cls=ExplicitPathSet,
))


# ---------------------------------------------------------------------------
# Topologies
# ---------------------------------------------------------------------------
def _parse_dfly(args: str, spec: str) -> Dict[str, Any]:
    try:
        p, a, h, g = (int(x) for x in args.split(","))
    except ValueError:
        raise SpecError(
            f"bad topology spec {spec!r}: dfly needs P,A,H,G"
        ) from None
    return {"p": p, "a": a, "h": h, "g": g, "arrangement": "absolute"}


def _parse_cascade(args: str, spec: str) -> Dict[str, Any]:
    try:
        p, a, h, g, rows, cols = (int(x) for x in args.split(","))
    except ValueError:
        raise SpecError(
            f"bad topology spec {spec!r}: cascade needs P,A,H,G,ROWS,COLS"
        ) from None
    return {
        "p": p, "a": a, "h": h, "g": g,
        "arrangement": "absolute", "rows": rows, "cols": cols,
    }


def _parse_fullmesh(args: str, spec: str) -> Dict[str, Any]:
    try:
        parts = [int(x) for x in args.split(",")] if args else []
        if not 1 <= len(parts) <= 2:
            raise ValueError
    except ValueError:
        raise SpecError(
            f"bad topology spec {spec!r}: full-mesh needs N[,P]"
        ) from None
    return {"n": parts[0], "p": parts[1] if len(parts) > 1 else 1}


TOPOLOGY_REGISTRY.register(RegistryEntry(
    kind="dfly",
    build=lambda args: Dragonfly(
        args["p"], args["a"], args["h"], args["g"],
        arrangement=args.get("arrangement", "absolute"),
    ),
    to_dict=lambda t: {
        "p": t.p, "a": t.a, "h": t.h, "g": t.g,
        "arrangement": t.arrangement,
    },
    parse=_parse_dfly,
    cls=Dragonfly,
    help="dfly:P,A,H,G (or bare P,A,H,G)",
    example="dfly:4,8,4,9",
))
TOPOLOGY_REGISTRY.register(RegistryEntry(
    kind="cascade",
    build=lambda args: CascadeDragonfly(
        args["p"], args["a"], args["h"], args["g"],
        arrangement=args.get("arrangement", "absolute"),
        rows=args["rows"], cols=args["cols"],
    ),
    to_dict=lambda t: {
        "p": t.p, "a": t.a, "h": t.h, "g": t.g,
        "arrangement": t.arrangement, "rows": t.rows, "cols": t.cols,
    },
    parse=_parse_cascade,
    cls=CascadeDragonfly,
    help="cascade:P,A,H,G,ROWS,COLS",
    example="cascade:2,4,2,5,2,2",
))
TOPOLOGY_REGISTRY.register(RegistryEntry(
    kind="full-mesh",
    build=lambda args: FullMesh(args["n"], p=args.get("p", 1)),
    to_dict=lambda t: {"n": t.n, "p": t.p},
    parse=_parse_fullmesh,
    cls=FullMesh,
    help="full-mesh:N[,P]",
    example="full-mesh:16,4",
))


# ---------------------------------------------------------------------------
# Routing variants
# ---------------------------------------------------------------------------
def _routing_entry(
    kind: str, strategy_cls: type, accepts_policy: bool
) -> RegistryEntry:
    return RegistryEntry(
        kind=kind,
        build=lambda args: strategy_cls(),
        to_dict=lambda s: {},
        parse=_no_args(f"routing variant {kind!r}"),
        cls=strategy_cls,
        help=kind,
        example=kind,
        accepts_policy=accepts_policy,
    )


ROUTING_REGISTRY.register(_routing_entry("min", MinimalStrategy, False))
ROUTING_REGISTRY.register(_routing_entry("vlb", ValiantStrategy, False))
ROUTING_REGISTRY.register(_routing_entry("ugal-l", UgalLocalStrategy, True))
ROUTING_REGISTRY.register(_routing_entry("ugal-g", UgalGlobalStrategy, True))
ROUTING_REGISTRY.register(_routing_entry("par", ParStrategy, True))


def resolve_routing(
    variant: str, *, has_policy: Optional[bool] = None
) -> Tuple[str, bool]:
    """Validate a routing-variant name; return ``(base, is_t_variant)``.

    The one shared gate for ``t-`` prefixes: only variants registered with
    ``accepts_policy`` have a T- form (``t-min``/``t-vlb`` are rejected,
    they have no custom-policy semantics), and a T- variant given
    ``has_policy=False`` is an error.  Pass ``has_policy=None`` to skip
    the policy-presence check.
    """
    name = variant.lower()
    custom = name.startswith("t-")
    base = name[2:] if custom else name
    if base not in ROUTING_REGISTRY:
        plain = list(ROUTING_REGISTRY.kinds())
        t_forms = [
            f"t-{e.kind}" for e in ROUTING_REGISTRY if e.accepts_policy
        ]
        raise SpecError(
            f"unknown routing variant {variant!r}: choose from "
            f"{', '.join(plain + t_forms)}"
        )
    if custom and not ROUTING_REGISTRY.get(base).accepts_policy:
        t_forms = [
            f"t-{e.kind}" for e in ROUTING_REGISTRY if e.accepts_policy
        ]
        raise SpecError(
            f"unknown routing variant {variant!r}: only variants with "
            f"custom-policy support have a T- form "
            f"({', '.join(t_forms)})"
        )
    if custom and has_policy is False:
        raise SpecError(
            f"{variant} is a T-UGAL variant and needs a custom policy"
        )
    return base, custom


def strategy_for(variant: str) -> RoutingStrategy:
    """The registered strategy object for a *plain* variant name."""
    entry = ROUTING_REGISTRY.get(variant)
    strategy = entry.build({})
    if not isinstance(strategy, RoutingStrategy):
        raise SpecError(
            f"routing variant {variant!r} built a "
            f"{type(strategy).__name__}, not a RoutingStrategy"
        )
    return strategy
