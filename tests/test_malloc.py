"""The glibc allocator settings that importing vstain fixes."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vstain


def glibc_with_mallinfo2() -> bool:
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
    except (AttributeError, ValueError, OSError):
        return False
    return hasattr(ctypes.CDLL(None), "mallinfo2")


# Prints the bytes of mapped blocks that one 24 MiB numpy array adds,
# after importing vstain when argv[1] is "1".
MAPPED_CHILD = r"""
import ctypes, sys

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks "
                "keepcost".split()]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2
import numpy as np
if sys.argv[1] == "1":
    import vstain
before = libc.mallinfo2().hblkhd
a = np.ones(24 << 18, dtype=np.float32)
print(libc.mallinfo2().hblkhd - before)
"""


@pytest.mark.skipif(not glibc_with_mallinfo2(), reason="needs glibc with mallinfo2")
def test_import_keeps_blocks_under_the_fixed_threshold_on_the_heap():
    # glibc's default first threshold is 128 KiB, so without the import a
    # fresh process maps a 24 MiB array on its own
    assert vstain.MMAP_THRESHOLD > 24 << 20
    src = str(Path(vstain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    mapped = {}
    for imported in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", MAPPED_CHILD, imported], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-4000:]
        mapped[imported] = int(proc.stdout)
    assert mapped["0"] >= 24 << 20
    assert mapped["1"] == 0


# Prints the number of glibc arenas after a second thread has allocated,
# importing vstain first when argv[1] is "1".
ARENAS_CHILD = r"""
import ctypes, os, sys, tempfile, threading
import numpy as np
if sys.argv[1] == "1":
    import vstain
held = []
thread = threading.Thread(target=lambda: held.append(np.ones(1 << 16)))
thread.start()
thread.join()
libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
libc.fclose.argtypes = [ctypes.c_void_p]
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "malloc_info.xml")
    f = libc.fopen(path.encode(), b"w")
    libc.malloc_info(0, f)
    libc.fclose(f)
    print(open(path).read().count("<heap nr="))
"""


@pytest.mark.skipif(not glibc_with_mallinfo2(), reason="needs glibc with mallinfo2")
def test_import_keeps_every_thread_on_the_main_arena():
    # glibc gives a second thread an arena of its own, which keeps the
    # blocks that thread freed for it alone
    src = str(Path(vstain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    arenas = {}
    for imported in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", ARENAS_CHILD, imported], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-4000:]
        arenas[imported] = int(proc.stdout)
    assert arenas["0"] >= 2
    assert arenas["1"] == 1
