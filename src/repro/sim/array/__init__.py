"""The array lane's engine: struct-of-arrays state, native cycle kernel.

See :mod:`repro.sim.array.network` for the network the kernel steps and
the parity contract with the wheel ``Network``,
:mod:`repro.sim.array.lane` for the kernel's cycle loop and
:mod:`repro.sim.array.native` for the on-demand native kernel build.
"""

from repro.sim.array.native import (
    NativeKernelUnavailable,
    load_kernel,
    native_available,
)
from repro.sim.array.network import ArrayNetwork

__all__ = [
    "ArrayNetwork",
    "NativeKernelUnavailable",
    "load_kernel",
    "native_available",
]
