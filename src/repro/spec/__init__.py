"""Declarative run specifications and the pattern/policy/routing registries.

The layer sits *above* the simulator: ``repro.sim`` never imports it at
module scope (the spec layer imports sim modules, so the reverse edge
must stay lazy).  Importing this package registers every built-in kind.

Typical use::

    from repro.spec import RunSpec, PatternSpec, TopologySpec

    spec = RunSpec(
        topology=TopologySpec.parse("4,8,4,9"),
        pattern=PatternSpec.parse("shift:2,0"),
        load=0.1,
        routing="ugal-l",
    )
    result = spec.run()                 # == simulate(spec)
    key = spec.fingerprint()            # SimCache content address
    again = RunSpec.from_dict(spec.to_dict())   # round-trips exactly
"""

from repro.spec.registry import (
    POLICY_REGISTRY,
    ROUTING_REGISTRY,
    Registry,
    RegistryEntry,
    SpecError,
    TOPOLOGY_REGISTRY,
    TRAFFIC_REGISTRY,
)
from repro.spec.builtins import resolve_routing, strategy_for
from repro.spec.specs import (
    ModelSpec,
    PatternSpec,
    PolicySpec,
    RunSpec,
    SPEC_VERSION,
    SuiteSpec,
    SweepSpec,
    TopologySpec,
    canonical_json,
    save_policy,
)

__all__ = [
    "ModelSpec",
    "PatternSpec",
    "PolicySpec",
    "POLICY_REGISTRY",
    "Registry",
    "RegistryEntry",
    "ROUTING_REGISTRY",
    "RunSpec",
    "SPEC_VERSION",
    "SpecError",
    "SuiteSpec",
    "SweepSpec",
    "TOPOLOGY_REGISTRY",
    "TopologySpec",
    "TRAFFIC_REGISTRY",
    "canonical_json",
    "resolve_routing",
    "save_policy",
    "strategy_for",
]
