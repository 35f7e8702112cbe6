"""Virtual staining of microscopy images with global pixel transformer layers.

Callers import the submodules (``from vstain import network``). Importing
the package, or ``vstain.cli``, loads no numpy: the CLI sets the BLAS
thread count in the environment before numpy and its BLAS are first loaded.

Importing the package fixes glibc's mmap and trim thresholds and caps
its arenas at one (see :func:`_fix_malloc_thresholds`);
:func:`_release_free_heap` hands the heap's free pages back to the system;
:func:`_flush_to_zero` runs float work with subnormals flushed in hardware,
and :func:`_set_flush_to_zero` sets that mode for the rest of a thread's life.
"""

import ctypes
import os
from contextlib import contextmanager

__version__ = "0.1.0"

# Blocks below this size come from glibc's heap, larger ones from their
# own mapping: glibc's own upper bound for the threshold on 64-bit.
MMAP_THRESHOLD = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8   # mallopt, <malloc.h>


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at MMAP_THRESHOLD, and the trim threshold
    at twice that, where glibc's dynamic rule ends after large frees; and
    let every thread allocate from the one main arena.

    By the dynamic rule, each free of a mapped block larger than the
    threshold raises it, so whether a multi-MB array lands on the heap
    or in its own mapping depends on everything allocated before it: a
    training run's peak memory moved by 6 MB with the length of its work
    path. An arena per thread keeps the blocks that thread freed for
    itself alone: with predict's windows on the pool, an arena per
    worker held its peak memory about 70 MB higher. Other C libraries
    keep their defaults.
    """
    libc = _glibc()
    if libc is not None:
        libc.mallopt(_M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)
        libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        libc.mallopt(_M_ARENA_MAX, 1)


def _release_free_heap() -> None:
    """Give the free pages inside glibc's heap back to the system
    (``malloc_trim(0)``); other C libraries are left alone.

    Blocks under MMAP_THRESHOLD are freed into the heap, and glibc only
    returns free memory at the heap's top, above the trim threshold.
    predict_image calls this before it returns: the freed blocks of its
    window forwards stayed resident beside the output, 19-25 MB of
    predict-paper's peak.
    """
    libc = _glibc()
    if libc is not None:
        libc.malloc_trim(0)


# x86-64 MXCSR flush-to-zero (0x8000) and denormals-are-zero (0x0040) bits
_FTZ_DAZ = 0x8000 | 0x0040
# glibc's x86-64 fenv_t (bits/fenv.h): 32 bytes, __mxcsr the last 4
_FenvT = ctypes.c_uint32 * 8
_MXCSR = 7


def _set_flush_to_zero(on: bool) -> None:
    """Turn the calling thread's FTZ and DAZ modes on (or off) for good;
    a no-op where :func:`_flush_to_zero` does nothing."""
    if _libm is None:
        return
    env = _FenvT()
    _libm.fegetenv(env)
    env[_MXCSR] = env[_MXCSR] | _FTZ_DAZ if on else env[_MXCSR] & ~_FTZ_DAZ
    _libm.fesetenv(env)


@contextmanager
def _flush_to_zero(on: bool = True):
    """Run the body with the calling thread's FTZ and DAZ modes on (or,
    with on=False, off), and restore the thread's floating-point
    environment on exit, also after an exception.

    With both on, SSE and AVX arithmetic reads subnormal operands as
    zero and writes zero (of the result's sign) for results below the
    dtype's smallest normal number, so no float32 or float64 value
    computed inside is subnormal. Each subnormal costs x86 a microcode
    assist of about 100x, and the unscaled attention scores and 256-way
    class softmaxes make many. On other machines and C libraries the
    context does nothing.
    """
    if _libm is None:
        yield
        return
    saved = _FenvT()
    _libm.fegetenv(saved)
    _set_flush_to_zero(on)
    try:
        yield
    finally:
        _libm.fesetenv(saved)


def _flushing_to_zero() -> bool:
    """Whether the calling thread runs with FTZ and DAZ on; False where
    :func:`_flush_to_zero` does nothing."""
    if _libm is None:
        return False
    env = _FenvT()
    _libm.fegetenv(env)
    return env[_MXCSR] & _FTZ_DAZ == _FTZ_DAZ


def _glibc():
    """The running C library when it is glibc, else None."""
    try:
        name = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return None
    return ctypes.CDLL(None) if name.startswith("glibc") else None


def _x86_64_libm():
    """glibc's libm on x86-64, whose fenv_t layout :func:`_flush_to_zero`
    knows; else None."""
    machine = os.uname().machine if hasattr(os, "uname") else ""
    if machine != "x86_64" or _glibc() is None:
        return None
    try:
        return ctypes.CDLL("libm.so.6")
    except OSError:
        return None


_fix_malloc_thresholds()
_libm = _x86_64_libm()
