"""Line census: the lines of src/vstain that no Tier-1 test runs.

Run from the root of a vstain checkout (pytest does not collect this file):

    python tests/line_census.py            # the whole Tier-1 suite
    python tests/line_census.py tests/test_cli.py -k synth

Arguments are passed on to pytest. The suite runs in a child process
with a `sitecustomize.py` put first on PYTHONPATH (in place of any
other such module), so it and every Python process it starts trace
themselves from startup: `sys.settrace` and `threading.settrace` record
the lines each frame under src/vstain runs, and each process writes
its lines to a shared directory when it exits. A process that ends by
`os._exit` or a signal it does not handle writes nothing. Then every
line of src/vstain that compiles to code, never ran and is not in
ALLOWED is printed, file by file, with its source. The exit code is
pytest's when that is not 0, else 1 when any line was printed. Only the
standard library is used; a traced run of the whole suite takes about
twice as long as an untraced one, so a test with a time limit may fail
under it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vstain"

# Lines that may never run, keyed by (file, function, stripped source);
# "<module>" is a module's top level. Each value says why no test runs it.
ALLOWED = {
    ("__init__.py", "_set_flush_to_zero", "return"):
        "no x86-64 glibc libm: a platform fallback",
    ("__init__.py", "_x86_64_libm", "except OSError:"):
        "libm.so.6 cannot be loaded on x86-64 glibc: a platform fallback",
    ("__init__.py", "_x86_64_libm", "return None"):
        "libm.so.6 cannot be loaded on x86-64 glibc: a platform fallback",
    ("autograd.py", "<module>", "else os.cpu_count() or 1)"):
        "no os.sched_getaffinity: a platform fallback",
    ("autograd.py", "_forget_executor",
     "pool.executor = None  # a forked child has none of the pool's threads"):
        "runs only in a forked child, which ends by os._exit and writes no lines",
    ("cli.py", "<module>", "sys.exit(main())"):
        "runs only as `python -m vstain.cli`; `python -m vstain` enters by __main__.py",
    ("data_io.py", "load_pgm", 'raise DataError(f"{path}: truncated payload at byte {pos}")'):
        "the file shrinks between its size and its read: a race no test can time",
    ("gptt.py", "read_gptt",
     'raise DataError(f"{source}: truncated payload at byte {header_end}")'):
        "the file shrinks between its size and its read: a race no test can time",
    ("kernels.py", "col_softmax",
     'raise ShapeError(f"col_softmax: expected a matrix, got rank {m.ndim}")'):
        "only benchmarks/tracer.py and the tests call col_softmax, never below rank 2",
}

SITECUSTOMIZE = '''
import atexit, json, os, sys, threading, uuid

_root = os.environ["VSTAIN_CENSUS_PACKAGE"] + os.sep
_out = os.environ["VSTAIN_CENSUS_OUT"]
_ours, _hits = {}, {}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = os.path.realpath(name).startswith(_root)
        if ours:
            _hits.setdefault(name, set())
    if not ours:
        return None
    _hits[name].add(frame.f_lineno)
    return _local


def _dump():
    sys.settrace(None)
    lines = {os.path.realpath(n): sorted(s) for n, s in _hits.items() if s}
    with open(os.path.join(_out, f"{os.getpid()}-{uuid.uuid4().hex}.json"), "w") as f:
        json.dump(lines, f)


atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''


def code_lines(path: Path) -> dict[int, str]:
    """The function (its qualified name) of each line number that holds
    at least one instruction of the module."""
    lines, todo = {}, [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update((line, code.co_qualname) for _, _, line in code.co_lines()
                     if line)  # line 0 is no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="line-census-") as tmp:
        site_dir, out_dir = Path(tmp, "site"), Path(tmp, "hits")
        site_dir.mkdir()
        out_dir.mkdir()
        (site_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = dict(os.environ, VSTAIN_CENSUS_PACKAGE=str(PACKAGE),
                   VSTAIN_CENSUS_OUT=str(out_dir))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(site_dir), str(ROOT / "src"), env.get("PYTHONPATH")]))
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors", *argv],
                              cwd=ROOT, env=env).returncode
        ran: dict[str, set[int]] = {}
        dumps = sorted(out_dir.iterdir())
        for dump in dumps:
            for name, lines in json.loads(dump.read_text()).items():
                ran.setdefault(name, set()).update(lines)

    print(f"\nline census: {len(dumps)} traced processes")
    total = allowed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        functions = code_lines(path)
        source = path.read_text().splitlines()
        ran_here = ran.get(str(path.resolve()), set())
        missed = [line for line in sorted(functions) if line not in ran_here]
        unlisted = [line for line in missed if (path.name, functions[line],
                                                source[line - 1].strip()) not in ALLOWED]
        allowed += len(missed) - len(unlisted)
        if not unlisted:
            continue
        total += len(unlisted)
        print(f"{path.relative_to(ROOT)}: {len(unlisted)} lines never ran")
        for line in unlisted:
            print(f"  {line:5d}  {functions[line]}: {source[line - 1].strip()}")
    print(f"{total} lines never ran, besides {allowed} allowed ones")
    return code or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
