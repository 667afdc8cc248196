"""Apply each known mutant of `mutants.py` to a copy of the tree and report
whether its tests kill it.

    python tests/run_mutants.py

For each mutant, in the order listed, the runner copies `src`, `tests` and
`perfbench` (without caches) into a new temporary directory, replaces the
mutant's old text by its new text there, and runs the mutant's tests in
that directory with `python -m pytest -p no:cacheprovider`. The copy has
no `.hypothesis` directory, so no example stored by an earlier run decides
the result. A mutant is killed when its tests fail, and survives when they
pass. An equivalent mutant (an empty test tuple) runs its neighbours'
tests instead, the killing tests of every other mutant of its file, and
must survive them.

It prints one line per mutant and the total time, and exits 0 when every
mutant has its expected outcome, 1 otherwise. The suite does not collect
this file (its name does not match `test_*.py`): one run takes minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                 ".pytest_cache", "out")


def neighbour_tests(file):
    """The killing tests of every non-equivalent mutant of `file`."""
    return tuple(dict.fromkeys(t for f, _, _, tests in MUTANTS if f == file
                               for t in tests))


def run_mutant(file, old, new, tests):
    """The outcome: "killed" when the tests fail on the mutated copy,
    "survived" when they pass, and "error" when the old text does not occur
    once or pytest ends otherwise (such as a test id that names no test)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, tmp / name, ignore=IGNORED)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = tmp / "src" / "roomflow" / file
        text = target.read_text()
        if text.count(old) != 1:
            return "error"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-x", *tests], cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main():
    start, faults = time.perf_counter(), 0
    for i, (file, old, new, tests) in enumerate(MUTANTS):
        expected = "killed" if tests else "survived"
        t0, ran = time.perf_counter(), tests or neighbour_tests(file)
        outcome = run_mutant(file, old, new, ran)
        faults += outcome != expected
        print(f"{i:2d} {file:15s} {outcome:8s} (expected {expected}) "
              f"{time.perf_counter() - t0:6.1f} s  "
              f"{' '.join(t.split('::', 1)[-1] for t in ran)}", flush=True)
    print(f"total {time.perf_counter() - start:.1f} s, "
          f"{faults} mutant(s) with an unexpected outcome")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
