"""Build & load the native cycle kernel (``kernel.c``) on demand.

The kernel is compiled once per source revision with the system C
compiler into a content-addressed shared object under a user cache
directory, then loaded via ctypes.  No third-party build machinery is
involved: ``cc -O3 -shared -fPIC`` is the whole toolchain, and the
sandbox/CI images both ship a C compiler.

Environment gate ``REPRO_ARRAYNET_NATIVE``:

* unset (default) -- try to build/load; on any failure log one warning
  and report the kernel as unavailable (ArrayNetwork then falls back to
  the bit-identical scalar wheel path, see ``repro.sim.array.network``);
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
    "PK_VC0",
    "PK_DST",
    "PK_REV",
    "PK_ARR",
    "PK_ROFF",
    "PK_STRIDE",
]

_log = get_logger("sim.array.native")

_ABI_VERSION = 13  # keep in sync with REPRO_ARRAYNET_ABI_VERSION in kernel.c
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

# packed per-packet record columns (pkt stride, shared with kernel.c)
PK_HOP = 0
PK_PATH = 1
PK_CVC = 2
PK_VC0 = 3
PK_DST = 4
PK_REV = 5
PK_ARR = 6
PK_ROFF = 7
PK_STRIDE = 8

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
    ("act_slots", _I32P),
    ("act_len", _I32P),
    ("act_list", _I32P),
    ("act_pos", _I32P),
    ("rr", _I32P),
    ("in_bud", _I64P),
    ("rsnap", _I32P),
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
    ("ej_who", _I32P),
    ("pkt", _I32P),
    ("pmeta", _I32P),
    ("free_stack", _I32P),
    ("arena_chan", _I32P),
    ("arena_vc", _I32P),
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


# ej_who columns (kernel.c EW_*)
EW_SPID = 0
EW_SRC = 1
EW_DST = 2
EW_CVC = 3
EW_STRIDE = 4

# --- routing decisions and the cycle loop (RouteCtx in kernel.c) ---
# statuses: what an incomplete call needs before re-entry
RS_OK = 0
RS_POOL = 2
RS_ARENA = 3
RS_ENUM = 4
RS_LADDER = 5
RS_REPLAY = 6
RS_DRAIN = 7
RS_PACKETS = 8
RS_SOURCE = 9
RS_DESTS = 10

RK_PAR = 4  # RouteCtx.kind of ParStrategy (kernel.c RK_*)

# per-pair store row columns / flags
PS_EOFF = 6
PS_ELEN = 7
PS_FLAGS = 3
PS_STRIDE = 8
PF_RESERVOIR = 2
PF_ENUM = 4

# decision counters (RouteCtx.cnt)
RC_VLB = 0
RC_ATTEMPTS = 1
RC_ACCEPTS = 2
RC_REUSES = 3
RC_FALLBACK = 4
RC_CONSIDERED = 5
RC_REVISED = 6
RC_MIN = 7
RC_WORDS = 8
RC_INJECTED = 9
RC_STALLED = 10
RC_LEN = 16

ROUTE_POINTER_FIELDS: Tuple[str, ...] = (
    "sw_of",
    "grp_of",
    "mi_k",
    "mi_first",
    "mi_hops",
    "mi_vcs0",
    "mi_rel",
    "mi_chan",
    "mi_shape",
    "shape_local",
    "combo_off",
    "combo_vc",
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
    "rv_head",
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
    "cache_cap",
    "credit_cap",
    "image_base",
    "pool_len",
    "pool_cap",
    "nres",
    "arena_len",
    "arena_cap",
    "rv_mask",
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
    lib.repro_step_cycle.restype = ctypes.c_int64
    lib.repro_step_cycle.argtypes = [
        ctypes.POINTER(CState),
        ctypes.c_int64,
        ctypes.c_int64,
    ]
    # the cycle loop: everything else it needs is in the two structs
    lib.repro_run.restype = ctypes.c_int64
    lib.repro_run.argtypes = [
        ctypes.POINTER(CState),
        ctypes.POINTER(CRouteCtx),
        ctypes.c_int64,  # until
    ]
    lib.repro_enqueue.restype = ctypes.c_int64
    lib.repro_enqueue.argtypes = [
        ctypes.POINTER(CState),
        ctypes.c_int64,  # start
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # int64 nodes
        ctypes.c_void_p,  # int32 SE_* records
        ctypes.c_int64,  # cycle
    ]
    # routing decisions: array arguments are raw addresses
    lib.repro_route_batch.restype = ctypes.c_int64
    lib.repro_route_batch.argtypes = [
        ctypes.POINTER(CState),
        ctypes.POINTER(CRouteCtx),
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # int64 source nodes
        ctypes.c_void_p,  # int64 destination nodes
        ctypes.c_int64,  # cycle
        ctypes.c_void_p,  # int32 SE_* records out
    ]
    lib.repro_revise_batch.restype = ctypes.c_int64
    lib.repro_revise_batch.argtypes = [
        ctypes.POINTER(CState),
        ctypes.POINTER(CRouteCtx),
        ctypes.c_int64,  # delivery bucket
    ]
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
            "native array kernel unavailable (%s); ArrayNetwork falls "
            "back to the scalar wheel path (bit-identical, slower)",
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
