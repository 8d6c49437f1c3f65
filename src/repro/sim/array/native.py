"""Build & load the native cycle kernel (``kernel.c``) on demand.

The kernel is compiled once per source revision with the system C
compiler into a content-addressed shared object under a user cache
directory, then loaded via ctypes.  No third-party build machinery is
involved: ``cc -O3 -shared -fPIC`` is the whole toolchain, and the
sandbox/CI images both ship a C compiler.

Environment gate ``REPRO_ARRAYNET_NATIVE``:

* unset (default) -- try to build/load; on any failure log one warning
  and report the kernel as unavailable (every run then steps the
  bit-identical wheel ``Network``, see ``repro.sim.engine.Run``);
* ``0`` / ``off`` / ``no`` / ``false`` -- never attempt the native path;
* ``require`` -- raise :class:`NativeKernelUnavailable` instead of
  falling back (CI perf gates use this to fail loudly).

The :class:`CState` and :class:`CRouteCtx` ctypes structures mirror
``State`` and ``RouteCtx`` in ``kernel.c`` field for field;
``repro_abi()`` folds the version and both sizes into one number that is
checked before the first call, so a layout drift between the two files
-- or a cached ``.so`` built from other sources -- is refused instead of
corrupting memory.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import List, Optional, Tuple

from repro.obs.log import get_logger

__all__ = [
    "CRouteCtx",
    "CState",
    "NativeKernelUnavailable",
    "load_kernel",
    "native_available",
    "COUNTERS_LEN",
    "CNT_ACT",
    "CNT_PD",
    "CNT_PC",
    "CNT_PT",
    "CNT_EJ",
    "CNT_FREE",
    "PK_HOP",
    "PK_PATH",
    "PK_CVC",
    "PK_DST",
    "PK_REV",
    "PK_ARR",
    "PK_ROUTE",
    "PK_STRIDE",
    "PM_STRIDE",
    "SE_STRIDE",
]

_log = get_logger("sim.array.native")

_ABI_VERSION = 15  # keep in sync with REPRO_ARRAYNET_ABI_VERSION in kernel.c
_KERNEL_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel.c")
_COMPILERS = ("cc", "gcc", "clang")

# counters[] indices, shared with kernel.c
CNT_ACT = 0
CNT_PD = 1
CNT_PC = 2
CNT_PT = 3
CNT_EJ = 4
CNT_FREE = 5
COUNTERS_LEN = 8

_I32P = ctypes.POINTER(ctypes.c_int32)
_I64P = ctypes.POINTER(ctypes.c_int64)
_U64P = ctypes.POINTER(ctypes.c_uint64)

# packed per-packet record columns (pkt stride, shared with kernel.c)
PK_HOP = 0
PK_PATH = 1
PK_CVC = 2
PK_DST = 3
PK_REV = 4
PK_ARR = 5
PK_ROUTE = 6  # the route's four RT_* words
PK_STRIDE = 16
# per-packet meta width (kernel.c PM_*: inject cycle, used_vlb)
PM_STRIDE = 2
# queued-packet entry width (kernel.c SE_*: src_buf rows, RouteCtx.records)
SE_STRIDE = 10

# field order MUST match struct State in kernel.c exactly; repro_abi()
# only guards the total sizes, the parity test suite guards the semantics
_POINTER_FIELDS: List[Tuple[str, object]] = [
    ("ch_latency", _I32P),
    ("ch_delay", _I32P),
    ("ch_dst_router", _I32P),
    ("ch_gslot", _I32P),
    ("ch_kind", _I32P),
    ("outrow", _I32P),
    ("out_buf", _I32P),
    ("src_buf", _I32P),
    ("src_meta", _I32P),
    ("in_buf", _I32P),
    ("in_meta", _I32P),
    ("act_slots", _U64P),
    ("act_len", _I32P),
    ("act_list", _I32P),
    ("rr", _I32P),
    ("in_bud", _I64P),
    ("osnap", _I32P),
    ("rf_q", _I32P),
    ("rf_pos", _I32P),
    ("rf_off", _I32P),
    ("dw_chan", _I32P),
    ("dw_pid", _I32P),
    ("dw_meta", _I32P),
    ("dw_n", _I32P),
    ("rev_n", _I32P),
    ("cw_chan", _I32P),
    ("cw_vc", _I32P),
    ("cw_n", _I32P),
    ("tw_chan", _I32P),
    ("tw_n", _I32P),
    ("ej_cycle", _I32P),
    ("ej_lat", _I32P),
    ("ej_hops", _I32P),
    ("ej_vlb", _I32P),
    ("pkt", _I32P),
    ("pmeta", _I32P),
    ("free_stack", _I32P),
    ("route_chan", _I32P),
    ("route_vc", _I32P),
    ("counters", _I64P),
]

SCALAR_FIELDS: Tuple[str, ...] = (
    "nR",
    "radix",
    "nV",
    "nSr",
    "nC",
    "inj_base",
    "ej_base",
    "nNodes",
    "ws",
    "dw_cap",
    "cw_cap",
    "tw_cap",
    "out_cap",
    "in_cap",
    "src_cap",
    "speedup",
    "psize",
    "cred_stride",
    "ej_cap",
    "outrow_stride",
)

POINTER_FIELD_NAMES: Tuple[str, ...] = tuple(n for n, _ in _POINTER_FIELDS)


class CState(ctypes.Structure):
    """ctypes mirror of ``struct State`` in kernel.c."""

    _fields_ = _POINTER_FIELDS + [  # type: ignore[assignment]
        (name, ctypes.c_int64) for name in SCALAR_FIELDS
    ]


# --- routing decisions and the cycle loop (RouteCtx in kernel.c) ---
# statuses: what an incomplete call needs before re-entry
RS_OK = 0
RS_POOL = 2
RS_ENUM = 4
RS_LADDER = 5
RS_REPLAY = 6
RS_DRAIN = 7
RS_PACKETS = 8
RS_SOURCE = 9
RS_DESTS = 10

RK_PAR = 4  # RouteCtx.kind of ParStrategy (kernel.c RK_*)

# per-pair store row columns / flags
PS_FLAGS = 0
PS_EOFF = 3
PS_ELEN = 4
PS_STRIDE = 5
PF_RESERVOIR = 2
PF_ENUM = 4

# decision counters (RouteCtx.cnt)
RC_VLB = 0
RC_ATTEMPTS = 1
RC_ACCEPTS = 2
RC_FALLBACK = 3
RC_CONSIDERED = 4
RC_REVISED = 5
RC_MIN = 6
RC_WORDS = 7
RC_INJECTED = 8
RC_STALLED = 9
RC_LEN = 16

ROUTE_POINTER_FIELDS: Tuple[str, ...] = (
    "sw_of",
    "grp_of",
    "mi_k",
    "mi_first",
    "mi_hops",
    "mi_rel",
    "mi_chan",
    "mi_shape",
    "shape_local",
    "min_off",
    "combo_off",
    "vr_first",
    "vr_n",
    "vr_group",
    "vr_in",
    "vr_out",
    "grp_sw",
    "ops",
    "keys",
    "mask",
    "ex_first",
    "ex_desc",
    "pair",
    "pool",
    "gen",
    "replay",
    "dest_map",
    "ur_mask",
    "srcs",
    "dsts",
    "records",
)

ROUTE_SCALAR_FIELDS: Tuple[str, ...] = (
    "nsw",
    "ngroups",
    "a",
    "nshapes",
    "nops",
    "by_index",
    "key_bound",
    "kind",
    "threshold",
    "extra_min",
    "extra_vlb",
    "credit_cap",
    "pool_len",
    "pool_cap",
    "nres",
    "replay_cap",
    "rlen",
    "rpos",
    "has_program",
    "max_queue",
    "cycle",
    "phase",
    "pos",
    "nsrc",
    "status",
    "fail_a",
    "fail_b",
)

ROUTE_DOUBLE_FIELDS: Tuple[str, ...] = ("load", "ur_prob")


class CRouteCtx(ctypes.Structure):
    """ctypes mirror of ``RouteCtx`` in kernel.c (pointers are set from
    ``ndarray.ctypes.data``; their element types live in the C file)."""

    _fields_ = (
        [(name, ctypes.c_void_p) for name in ROUTE_POINTER_FIELDS]
        + [(name, ctypes.c_int64) for name in ROUTE_SCALAR_FIELDS]
        + [(name, ctypes.c_double) for name in ROUTE_DOUBLE_FIELDS]
        + [("cnt", ctypes.c_int64 * RC_LEN)]
    )


class NativeKernelUnavailable(RuntimeError):
    """The native kernel was required but could not be built/loaded."""


def _cache_dir() -> str:
    base = os.environ.get("REPRO_ARRAYNET_CACHE")
    if not base:
        xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        base = os.path.join(xdg, "repro-arraynet")
    return base


def _find_compiler() -> Optional[str]:
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


_CFLAGS = ("-O3", "-shared", "-fPIC", "-std=c99")


def _build(compiler: str, source: str, digest: str) -> str:
    """Compile kernel.c into the content-addressed cache, atomically."""
    cache = _cache_dir()
    os.makedirs(cache, exist_ok=True)
    so_path = os.path.join(cache, f"kernel-{digest}.so")
    if os.path.exists(so_path):
        return so_path
    fd, tmp = tempfile.mkstemp(
        prefix=f"kernel-{digest}-", suffix=".so.tmp", dir=cache
    )
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, source],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp, so_path)  # atomic: concurrent builders converge
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


def _source_digest() -> str:
    """Cache identity of the kernel: its source and the build flags
    (changing the flags must miss the cache, not silently reuse an
    object built under the old ones)."""
    with open(_KERNEL_SRC, "rb") as fh:
        source_bytes = fh.read()
    return hashlib.sha256(
        source_bytes + "\0".join(_CFLAGS).encode()
    ).hexdigest()[:16]


def _load() -> ctypes.CDLL:
    if not os.path.exists(_KERNEL_SRC):
        raise NativeKernelUnavailable(f"kernel source missing: {_KERNEL_SRC}")
    compiler = _find_compiler()
    if compiler is None:
        raise NativeKernelUnavailable(
            "no C compiler found (tried %s)" % ", ".join(_COMPILERS)
        )
    try:
        so_path = _build(compiler, _KERNEL_SRC, _source_digest())
        lib = ctypes.CDLL(so_path)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = ""
        if isinstance(exc, subprocess.CalledProcessError):
            detail = f": {exc.stderr}"
        raise NativeKernelUnavailable(
            f"failed to build/load native kernel with {compiler}{detail}"
        ) from exc
    lib.repro_abi.restype = ctypes.c_int64
    lib.repro_abi.argtypes = []
    expected = (
        _ABI_VERSION * 10000 + ctypes.sizeof(CRouteCtx)
    ) * 10000 + ctypes.sizeof(CState)
    got = int(lib.repro_abi())
    if got != expected:
        raise NativeKernelUnavailable(
            f"native kernel ABI mismatch: kernel reports {got}, "
            f"ctypes mirror expects {expected} -- clear the cache at "
            f"{_cache_dir()} or rebuild"
        )
    # the cycle loop: everything else it needs is in the two structs
    lib.repro_run.restype = ctypes.c_int64
    lib.repro_run.argtypes = [
        ctypes.POINTER(CState),
        ctypes.POINTER(CRouteCtx),
        ctypes.c_int64,  # until
    ]
    # probes of the routing context: array arguments are raw addresses
    lib.repro_contains_batch.restype = None
    lib.repro_contains_batch.argtypes = [
        ctypes.POINTER(CRouteCtx),
        ctypes.c_int64,
        ctypes.c_void_p,  # int32 [n][5]: src, dst, mid, slot1, slot2
        ctypes.c_void_p,  # uint8 [n] out
    ]
    lib.repro_destinations.restype = None
    lib.repro_destinations.argtypes = [
        ctypes.POINTER(CRouteCtx),
        ctypes.c_int64,  # nodes of the topology
    ]
    lib.repro_draw_batch.restype = ctypes.c_int64
    lib.repro_draw_batch.argtypes = [
        ctypes.POINTER(CRouteCtx),
        ctypes.c_void_p,  # int64 bounds
        ctypes.c_int64,
        ctypes.c_void_p,  # int64 values out
        ctypes.c_int64,  # undo
    ]
    return lib


# memo: None = not tried yet, False = tried and failed, CDLL = loaded
_KERNEL: object = None


def load_kernel() -> Optional[ctypes.CDLL]:
    """The loaded kernel, or None when unavailable (per the env gate)."""
    global _KERNEL
    gate = os.environ.get("REPRO_ARRAYNET_NATIVE", "").strip().lower()
    if gate in ("0", "off", "no", "false"):
        return None
    if _KERNEL is not None:
        if _KERNEL is False:
            if gate == "require":
                raise NativeKernelUnavailable(
                    "REPRO_ARRAYNET_NATIVE=require but the native kernel "
                    "failed to build/load earlier in this process"
                )
            return None
        return _KERNEL  # type: ignore[return-value]
    try:
        _KERNEL = _load()
    except NativeKernelUnavailable as exc:
        _KERNEL = False
        if gate == "require":
            raise
        _log.warning(
            "native array kernel unavailable (%s); every run steps the "
            "wheel Network (bit-identical, slower)",
            exc,
        )
        return None
    return _KERNEL  # type: ignore[return-value]


def native_available() -> bool:
    """True when the native kernel can be (or has been) loaded."""
    try:
        return load_kernel() is not None
    except NativeKernelUnavailable:
        return False
