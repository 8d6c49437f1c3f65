"""Golden fingerprints: the cache-identity surface, pinned by value.

These digests are the actual content addresses of on-disk cached
results.  If one of these assertions fails, a field changed identity --
it was added to, removed from, or renamed in a spec's ``to_dict()`` /
``SimParams.identity_dict()`` -- and every previously cached result
would be silently mis-keyed.  That can be intentional; when it is:

1. bump ``CACHE_VERSION`` in ``repro/perf/cache.py`` (and
   ``SPEC_VERSION`` in ``repro/spec/specs.py`` if spec semantics
   changed),
2. refresh the static snapshot:
   ``python -m repro analyze --update-snapshot``,
3. re-pin the digests below to the new values.

Never "fix" this test by only updating the digest: without the version
bump, old cache entries keyed by the previous layout stay reachable.
"""

import hashlib
import json

from repro.sim.params import SimParams
from repro.spec import (
    ModelSpec,
    PatternSpec,
    PolicySpec,
    RunSpec,
    TopologySpec,
)

BUMP_MSG = (
    "field changed identity -- bump CACHE_VERSION (see this test's "
    "docstring) before re-pinning the digest"
)

GOLDEN_RUN = (
    "c3abccbad40143983fbb11e2731a568d9906784dad2ed582e751ed33bdfeb734"
)
GOLDEN_MODEL = (
    "bf364af96b964fed16222d2260ee4220ecc01c9f19f44e370efa910aacd0d373"
)
GOLDEN_PARAMS = (
    "ab1821c2d9a9eda5e5a2756e7e168dab74296b15810fe096970ecd029d0478ca"
)
# the balanced T-VLB set the CI saves (Algorithm 1 Step 2 over
# HopClassPolicy(5, 0.5) on dfly(4,8,4,9)) and an explicit set that lists
# one path twice: the two dict-only policy kinds, nested base included
GOLDEN_BALANCED_G9 = (
    "575fb995074f4e6a0c708c0e074e61c95c3f64955f9339906be8f7a38fedcb74"
)
GOLDEN_EXPLICIT = (
    "9bf135ab565128a3fc084bfa82e024a6cd2c3fa9540565ad91083fd250373844"
)
GOLDEN_PARAMS_KEYS = [
    "buffer_size", "global_latency", "injection_latency",
    "local_latency", "measure_windows", "min_candidates", "num_vcs",
    "output_queue_size", "packet_size", "router_latency",
    "sat_accept_factor", "sat_latency", "speedup", "ugal_threshold",
    "vc_scheme", "verify", "vlb_candidates", "warmup_windows",
    "window_cycles",
]


def _run_spec() -> RunSpec:
    return RunSpec(
        topology=TopologySpec.parse("2,4,2,3"),
        pattern=PatternSpec.make("ur"),
        load=0.5,
        routing="ugal-l",
        seed=7,
    )


def test_runspec_fingerprint_pinned():
    assert _run_spec().fingerprint() == GOLDEN_RUN, BUMP_MSG


def test_modelspec_fingerprint_pinned():
    spec = ModelSpec(
        topology=TopologySpec.parse("2,4,2,3"),
        pattern=PatternSpec.make("ur"),
        policy=PolicySpec.make("all"),
    )
    assert spec.fingerprint() == GOLDEN_MODEL, BUMP_MSG


def test_balanced_policy_fingerprint_pinned():
    import numpy as np

    from repro.core.balance import balance_adjust
    from repro.routing.pathset import HopClassPolicy
    from repro.topology import Dragonfly
    from repro.traffic import Shift

    topo = Dragonfly(4, 8, 4, 9)
    pairs = list(zip(*np.nonzero(Shift(topo, 1, 0).demand_matrix())))[:4]
    policy, report = balance_adjust(topo, HopClassPolicy(5, 0.5), pairs)
    assert report.adjusted
    assert PolicySpec.of(policy).fingerprint() == GOLDEN_BALANCED_G9, (
        BUMP_MSG
    )


def test_explicit_policy_fingerprint_pinned():
    from repro.routing.pathset import ExplicitPathSet
    from repro.routing.vlb import VlbDescriptor as D

    policy = ExplicitPathSet(
        paths={
            (0, 8): [D(4, 0, 0), D(4, 0, 1), D(4, 0, 0)],
            (3, 10): [D(4, 0, 0), D(4, 0, 1)],
        },
        label="dup",
    )
    assert PolicySpec.of(policy).fingerprint() == GOLDEN_EXPLICIT, BUMP_MSG


def test_simparams_identity_pinned():
    identity = SimParams().identity_dict()
    assert sorted(identity) == GOLDEN_PARAMS_KEYS, BUMP_MSG
    blob = json.dumps(
        identity, sort_keys=True, separators=(",", ":"), default=str
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_PARAMS, (
        BUMP_MSG
    )


def test_obs_stays_identity_neutral():
    """Observability config must never reach cache identity."""
    from repro.obs import ObsConfig

    plain = _run_spec()
    instrumented = RunSpec(
        topology=plain.topology,
        pattern=plain.pattern,
        load=plain.load,
        routing=plain.routing,
        params=SimParams(obs=ObsConfig(metrics=True, sample_every=50)),
        seed=plain.seed,
    )
    assert "obs" not in instrumented.params.identity_dict()
    assert instrumented.fingerprint() == plain.fingerprint()


def test_fingerprint_insensitive_to_dict_order():
    """Canonical JSON sorts keys: construction order is irrelevant."""
    a = PatternSpec.make("mixed", ur="ur", adv="shift:1", frac=0.5)
    b = PatternSpec.make("mixed", frac=0.5, adv="shift:1", ur="ur")
    assert a.fingerprint() == b.fingerprint()
