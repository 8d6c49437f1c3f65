"""The simulation engine: struct-of-arrays state, native cycle kernel.

See :mod:`repro.sim.array.network` for the engine, its reference path
and the parity contract between the two, and
:mod:`repro.sim.array.native` for the on-demand native kernel build.
"""

from repro.sim.array.native import (
    NativeKernelUnavailable,
    load_kernel,
    native_available,
)
from repro.sim.array.network import ArrayChannel, ArrayNetwork

__all__ = [
    "ArrayChannel",
    "ArrayNetwork",
    "NativeKernelUnavailable",
    "load_kernel",
    "native_available",
]
