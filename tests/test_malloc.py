"""The glibc allocator settings that importing vstain fixes, and the
release of the heap's free pages after each predicted image."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vstain
from vstain import inference
from vstain import network as nw


def glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def glibc_with_mallinfo2() -> bool:
    return glibc() and hasattr(ctypes.CDLL(None), "mallinfo2")


def child_env() -> dict:
    """The environment of a child process that imports this vstain."""
    src = str(Path(vstain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
    env = child_env()
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
    env = child_env()
    arenas = {}
    for imported in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", ARENAS_CHILD, imported], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-4000:]
        arenas[imported] = int(proc.stdout)
    assert arenas["0"] >= 2
    assert arenas["1"] == 1


# Prints VmRSS in bytes with 24 MiB of heap blocks held, after they are
# freed, and after vstain releases the heap's free pages.
RELEASE_CHILD = r"""
import ctypes
import numpy as np
import vstain

def rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmRSS:"))

blocks = [np.ones(1 << 17) for _ in range(24)]  # 1 MiB each, under the mmap threshold
malloc = ctypes.CDLL(None).malloc
malloc.restype = ctypes.c_void_p
live = malloc(64)  # above the blocks: they free into a hole, not the heap's top
held = rss()
del blocks
freed = rss()
vstain._release_free_heap()
print(held, freed, rss())
"""


@pytest.mark.skipif(not glibc(), reason="needs glibc")
def test_release_returns_freed_heap_blocks_to_the_system():
    proc = subprocess.run([sys.executable, "-c", RELEASE_CHILD], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    held, freed, released = map(int, proc.stdout.split())
    assert held - freed < 4 << 20  # freed blocks stay resident
    assert freed - released >= 16e6


@pytest.mark.parametrize("libc", ["musl 1.2.4", None, ValueError],
                         ids=["other", "none", "unsupported"])
def test_release_is_a_no_op_on_other_c_libraries(monkeypatch, libc):
    def confstr(name):
        if libc is ValueError:
            raise ValueError("unrecognized configuration name")
        return libc

    def cdll(*args, **kwargs):
        pytest.fail("loaded the C library")

    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    vstain._release_free_heap()


@pytest.mark.parametrize("step, overlap", [(32, False), (16, True)],
                         ids=["no-overlap", "overlap"])
def test_predict_image_releases_the_heap_once(monkeypatch, step, overlap):
    cfg = nw.NetworkConfig(patch_size=32, task_count=2, growth_rate=2, stem_channels=4,
                           encoder_depths=(1,), encoder_channels=(4,), bottom_depth=1,
                           bottom_channels=6, decoder_depths=(1,), decoder_channels=(4,))
    net = nw.build(cfg, np.random.default_rng(0))
    image = np.random.default_rng(1).integers(0, 256, (32, 64)).astype(np.uint8)
    assert (inference.coverage_map(32, 64, 32, step).max() > 1) == overlap
    calls = []
    monkeypatch.setattr(inference, "_release_free_heap", lambda: calls.append(step))
    inference.predict_image(net, image, step=step)
    assert calls == [step]
