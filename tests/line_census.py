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
line of src/vstain that compiles to code and never ran is printed, file
by file, with its source. The exit code is pytest's. Only the standard
library is used; a traced run of the whole suite takes about twice as
long as an untraced one, so a test with a time limit may fail under it.
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


def code_lines(path: Path) -> set[int]:
    """Line numbers that hold at least one instruction of the module."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
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
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        missed = sorted(code_lines(path) - ran.get(str(path.resolve()), set()))
        if not missed:
            continue
        total += len(missed)
        source = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines never ran")
        for line in missed:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"{total} lines never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
