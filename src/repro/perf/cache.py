"""Content-addressed on-disk cache of :class:`SimResult` records.

Every paper figure re-runs dozens of ``simulate()`` points, and many of
them -- the same (topology, pattern, routing, policy, params, seed, load)
tuple -- recur across figures, Algorithm 1 invocations, and replication
sweeps.  This module gives each such point a stable content hash and
stores its result as one small JSON file, so a repeated point costs a
file read instead of a cycle-accurate simulation.

Key design points:

* **Content addressing.**  The key is ``RunSpec.fingerprint()`` -- a
  SHA-256 over the canonical JSON form of the declarative run spec
  (``repro.spec``), covering the topology, pattern (kind + args, seeds
  included), routing variant, policy, every ``SimParams`` field, the
  seed, and the offered load.  Any run whose components are exactly
  registered types -- including ``perm``, ``mixed``/``tmixed``, and
  ``@file.json`` policies -- is cacheable.
* **Not describable means uncacheable.**  A run the spec registries
  cannot describe (an ad-hoc pattern or policy subclass, a composition
  with an unregistered part) has no trustworthy identity: its key is
  ``None`` and it is simulated every time -- never a false hit.  It
  still runs; the executor ships its live objects.
* **Versioned invalidation.**  ``CACHE_VERSION`` is part of both the hash
  input and the on-disk directory layout (``<root>/v<N>/``); bump it
  whenever the simulator's observable behaviour changes and every stale
  entry is orphaned at once.

Layout: ``<root>/v<N>/<hash[:2]>/<hash>.json`` -- two-level sharding keeps
directories small.  Writes are atomic (temp file + ``os.replace``), so a
cache shared by concurrent sweeps never exposes torn entries.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.lp_model import ModelResult
    from repro.routing.pathset import PathPolicy
    from repro.spec.specs import ModelSpec
    from repro.topology.dragonfly import Dragonfly
    from repro.traffic.patterns import TrafficPattern

from repro.obs.log import get_logger
from repro.obs.manifest import RunManifest
from repro.sim.params import SimParams
from repro.sim.stats import SimResult

__all__ = [
    "CACHE_VERSION",
    "SimCache",
    "default_cache_dir",
    "fingerprint",
    "model_fingerprint",
    "model_result_from_dict",
    "model_result_to_dict",
    "result_from_dict",
    "result_to_dict",
    "spec_key",
]

# Bump when simulate()'s observable behaviour changes (engine semantics,
# SimResult fields, default parameter meanings) or when the key scheme
# changes: old entries are then ignored wholesale because they live under
# a different v<N>/ directory.  v2: keys are RunSpec fingerprints.
# v3: records carry a "kind" discriminator (sim | model) and the cache
# also stores LP ModelResults keyed by ModelSpec fingerprints.  v4:
# every VLB pick is a fresh sample (the per-pair candidate cache is
# gone), which changes the results of longer runs.
CACHE_VERSION = 4

# Records may also carry a sibling "manifest" key (repro.obs provenance)
# next to "result".  It is additive -- pre-manifest v3 entries still load
# -- so it does not bump CACHE_VERSION.
_log = get_logger("perf.cache")


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or the platform user-cache fallback."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-sim")


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------
def fingerprint(
    topo: "Dragonfly",
    pattern: "TrafficPattern",
    load: float,
    *,
    routing: str,
    policy: Optional["PathPolicy"],
    params: Optional[SimParams],
    seed: int,
) -> Optional[str]:
    """SHA-256 key of one ``simulate()`` point, or ``None`` (uncacheable).

    The key is ``RunSpec.fingerprint()`` under ``CACHE_VERSION``; a point
    with a component the spec registries do not cover has none.
    """
    from repro.spec import RunSpec, SpecError

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
        return None
    return spec_key(spec.fingerprint())


def _key(record: Dict) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def spec_key(spec_fingerprint: str) -> str:
    """:func:`fingerprint` of a point whose ``RunSpec.fingerprint()`` is
    already in hand (no second derivation of the spec)."""
    return _key({"version": CACHE_VERSION, "spec": spec_fingerprint})


def model_fingerprint(spec: "ModelSpec") -> str:
    """SHA-256 key of one LP-model solve, from its declarative spec.

    Model keys are versioned like sim keys but carry the ``model`` kind
    in the hash input, so a model key can never collide with a sim key
    even for pathologically similar specs.
    """
    return _key(
        {"version": CACHE_VERSION, "kind": "model", "spec": spec.fingerprint()}
    )


# ---------------------------------------------------------------------------
# SimResult / ModelResult (de)serialization
# ---------------------------------------------------------------------------
def result_to_dict(result: SimResult) -> Dict:
    """JSON form of a result, *without* its manifest.

    The manifest is provenance, not measurement: it is persisted as a
    sibling ``"manifest"`` key of the cache record (see
    :meth:`SimCache.put`) so the result payload stays exactly what the
    engine measured -- traced and untraced runs store identical payloads.
    """
    data = dataclasses.asdict(result)
    data.pop("manifest", None)
    return data


def result_from_dict(data: Dict) -> SimResult:
    return SimResult(**data)


def model_result_to_dict(result: "ModelResult") -> Dict:
    data = dataclasses.asdict(result)
    data.pop("manifest", None)
    return data


def model_result_from_dict(data: Dict) -> "ModelResult":
    from repro.model.lp_model import ModelResult

    return ModelResult(**data)


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------
class SimCache:
    """On-disk result store addressed by :func:`fingerprint` keys.

    Stores two record kinds under one versioned root: simulation results
    (:meth:`get`/:meth:`put`) and LP-model results
    (:meth:`get_model`/:meth:`put_model`, keyed by
    :func:`model_fingerprint`).  A record's ``kind`` field is checked on
    read, so a key collision across kinds -- already excluded by the
    hash inputs -- could never deserialize the wrong type.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else default_cache_dir()
        self.dir = os.path.join(self.root, f"v{CACHE_VERSION}")
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.dir, key[:2], f"{key}.json")

    def _load(self, key: str, kind: str) -> Optional[Dict]:
        path = self.path_for(key)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError:
            return None  # plain miss: no entry on disk
        except ValueError:
            data = None
        if not isinstance(data, dict):
            # torn/corrupt entry (or valid JSON that is no record): fall
            # back to recomputation, but say so (repro.obs.log; silent by
            # default, visible with -v)
            _log.warning("discarding corrupt cache entry %s", path)
            return None
        if data.get("version") != CACHE_VERSION:
            return None
        if data.get("kind", "sim") != kind:
            _log.warning(
                "cache entry %s has kind %r, expected %r; ignoring",
                path,
                data.get("kind", "sim"),
                kind,
            )
            return None
        return data

    def _store(
        self,
        key: str,
        kind: str,
        result_data: Dict,
        manifest: Optional["RunManifest"] = None,
    ) -> None:
        """Write one entry through a temp file and ``os.replace``.  An
        ``OSError`` (a full or read-only disk) costs the entry, not the
        caller's batch: it is logged, the temp file removed and
        ``manifest`` marked ``computed``, since nothing was stored."""
        path = self.path_for(key)
        payload = {"version": CACHE_VERSION, "kind": kind, "result": result_data}
        if manifest is not None:
            payload["manifest"] = manifest.to_dict()
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except OSError as exc:
            _log.warning("could not write cache entry %s (%s)", path, exc)
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            if manifest is not None:
                manifest.cache = "computed"

    def get(self, key: str) -> Optional[SimResult]:
        """The cached sim result for ``key``, or ``None`` on a miss.

        A hit reattaches the persisted :class:`RunManifest` (if the
        record carries one) with ``cache="hit"``, so provenance survives
        the round trip and records how the result was obtained *now*.
        """
        data = self._load(key, "sim")
        if data is None:
            self.misses += 1
            return None
        try:
            result = result_from_dict(data["result"])
        except (KeyError, TypeError):
            _log.warning(
                "cache entry %s does not deserialize as a SimResult; "
                "recomputing",
                self.path_for(key),
            )
            self.misses += 1
            return None
        result.manifest = self._manifest_of(data)
        self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> None:
        """Atomically store a sim result (concurrent writers are safe);
        a write that fails is logged and skipped, see :meth:`_store`."""
        self._store(
            key, "sim", result_to_dict(result), manifest=result.manifest
        )

    def get_model(self, key: str) -> Optional["ModelResult"]:
        """The cached model result for ``key``, or ``None`` on a miss."""
        data = self._load(key, "model")
        if data is None:
            self.misses += 1
            return None
        try:
            result = model_result_from_dict(data["result"])
        except (KeyError, TypeError):
            _log.warning(
                "cache entry %s does not deserialize as a ModelResult; "
                "recomputing",
                self.path_for(key),
            )
            self.misses += 1
            return None
        result.manifest = self._manifest_of(data)
        self.hits += 1
        return result

    def put_model(self, key: str, result: "ModelResult") -> None:
        """Atomically store an LP model result (as :meth:`put`)."""
        self._store(
            key,
            "model",
            model_result_to_dict(result),
            manifest=result.manifest,
        )

    @staticmethod
    def _manifest_of(data: Dict) -> Optional["RunManifest"]:
        """The record's persisted manifest, marked as a cache hit."""
        raw = data.get("manifest")
        if not isinstance(raw, dict):
            return None  # pre-manifest v3 entry: still a valid result
        manifest = RunManifest.from_dict(raw)
        manifest.cache = "hit"
        return manifest

    def __len__(self) -> int:
        count = 0
        if not os.path.isdir(self.dir):
            return 0
        for _root, _dirs, files in os.walk(self.dir):
            count += sum(1 for f in files if f.endswith(".json"))
        return count

    def clear(self) -> None:
        """Remove every entry of the *current* cache version."""
        shutil.rmtree(self.dir, ignore_errors=True)

    def describe(self) -> str:
        return (
            f"SimCache({self.dir}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
