"""Standing mutant suite for the solver's soundness arguments.

Each row of ``MUTANTS`` plants one fault by plain text replacement: an
exact source fragment of a file under ``src/`` and its replacement, with
the id of the test that must kill it. For each row the runner copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
applies the row there and runs the named test with ``-x``. A row fails
when its fragment does not occur exactly once (the code moved, so the row
must follow it), when the test passes, when it fails on an error other
than an assertion, or when it does not fail within ``--timeout`` seconds:
a mutant must be killed by a check that names the broken invariant, not
by a crash or a time limit. Before the rows, the named tests must pass on the unmutated
copy, so that no kill comes from a test that fails anyway.

    python tests/mutants.py                # every row
    python tests/mutants.py gap-never-doubles qhead-not-rewound
    python tests/mutants.py --matrix tests/test_solver.py   # kill matrix

``--matrix`` runs every test of the given files on each mutant, one
process per test, and prints each test that fails with the error that
failed it, or that times out: it shows how many detectors each fault
has. The file is not named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SOLVER = "src/ancestral/solver.py"


class Mutant(NamedTuple):
    name: str
    file: str
    fragment: str
    replacement: str
    test: str


MUTANTS = (
    # objective propagation: a token is hardened one unit of cost early
    Mutant(
        "harden-at-slack-minus-one",
        SOLVER,
        "if cost_of[tok] < best - self.cost:",
        "if cost_of[tok] < best - self.cost - 1:",
        "tests/test_solver.py::test_hardening_keeps_its_pointer_and_reasons",
    ),
    # a hardened token's lazy reason covers tokens assigned after it
    Mutant(
        "lazy-reason-from-whole-trail",
        SOLVER,
        "reason = self._cover(*reason)",
        "reason = self._cover(reason[0], len(self.trail))",
        "tests/test_solver.py::test_hardening_keeps_its_pointer_and_reasons",
    ),
    Mutant(
        "cover-ignores-end",
        SOLVER,
        "costs = (t for t in self.trail[:end] if cost_of[t])",
        "costs = (t for t in self.trail if cost_of[t])",
        "tests/test_solver.py::test_hardening_keeps_its_pointer_and_reasons",
    ),
    # the trail queue: unpropagated tokens never decremented a counter
    Mutant(
        "counters-restored-past-qhead",
        SOLVER,
        "for tok in trail[tlen : self.qhead]:",
        "for tok in trail[tlen:]:",
        "tests/test_solver.py::test_trail_queue_keeps_its_head_and_counters",
    ),
    Mutant(
        "qhead-not-rewound",
        SOLVER,
        "        self.qhead = min(self.qhead, tlen)\n",
        "",
        "tests/test_solver.py::test_trail_queue_keeps_its_head_and_counters",
    ),
    # progression rounds: an exhausted threshold is not a proven bound
    Mutant(
        "lo-above-exhausted-threshold",
        SOLVER,
        "lo, gap = threshold, 2 * gap",
        "lo, gap = threshold + 1, 2 * gap",
        "tests/test_solver.py::test_progression_rounds_keep_their_invariants",
    ),
    Mutant(
        "gap-never-doubles",
        SOLVER,
        "lo, gap = threshold, 2 * gap",
        "lo, gap = threshold, gap",
        "tests/test_solver.py::test_progression_rounds_keep_their_invariants",
    ),
    Mutant(
        "loop-ends-above-ten-ceilings",
        SOLVER,
        "or threshold > self.ceiling",
        "or threshold > 10 * self.ceiling",
        "tests/test_solver.py::test_progression_ends_on_infeasible_and_all_hard_instances",
    ),
    # with gap 0 (no cost-bearing token) a round would prune every completion
    Mutant(
        "round-threshold-without-plus-one",
        SOLVER,
        "threshold = base + 2 * gap + 1",
        "threshold = base + 2 * gap",
        "tests/test_solver.py::test_progression_ends_on_infeasible_and_all_hard_instances",
    ),
)


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(copy: Path, args: list[str], timeout: float):
    """Run pytest on ``copy`` with its ``src`` first on the path. Returns
    the exit code, None on a timeout, and the output."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    try:
        done = subprocess.run(
            cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout + done.stderr


def _raised(out: str) -> list[str]:
    """The exception of each failure in pytest's output, read off the
    ``path:line: ExceptionType`` line that ends its traceback."""
    return re.findall(r"^\S+:\d+: (\w+)$", out, re.MULTILINE)


def _apply(copy: Path, mutant: Mutant) -> str:
    """Plant the mutant in ``copy``; an error message when its fragment
    does not occur exactly once, else the empty string."""
    path = copy / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.fragment)
    if count != 1:
        return f"fragment occurs {count} times in {mutant.file}"
    path.write_text(text.replace(mutant.fragment, mutant.replacement), encoding="utf-8")
    return ""


def run_rows(mutants, timeout: float) -> bool:
    """Every row's mutant must be killed by its test. True when all are."""
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        tests = sorted({m.test for m in mutants})
        code, out = _pytest(clean, tests, timeout * len(tests))
        if code != 0:
            print(out[-3000:])
            print(f"the named tests do not pass on the unmutated copy (exit {code})")
            return False
    ok = True
    for mutant in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "copy"
            _copy(copy)
            error = _apply(copy, mutant)
            start = time.monotonic()
            if not error:
                code, out = _pytest(copy, ["-x", mutant.test], timeout)
                if code is None:
                    error = f"not killed within {timeout:g} s"
                elif code == 0:
                    error = "survived"
                elif _raised(out) != ["AssertionError"]:
                    error = f"not killed by an assertion (exit {code})\n{out[-2000:]}"
            seconds = time.monotonic() - start
            verdict = f"FAILED  {error}" if error else "killed"
            print(f"{mutant.name:34} {seconds:6.1f} s  {verdict}", flush=True)
            ok = ok and not error
    return ok


def kill_matrix(mutants, files: list[str], timeout: float) -> None:
    """Print, per mutant, every test of ``files`` that fails on it, each
    run in its own process under ``timeout``, and those that time out."""
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        code, out = _pytest(clean, ["--collect-only", *files], timeout)
        tests = [line for line in out.splitlines() if "::" in line]
    for mutant in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "copy"
            _copy(copy)
            error = _apply(copy, mutant)
            if error:
                print(f"{mutant.name}: {error}", flush=True)
                continue
            print(f"{mutant.name}:", flush=True)
            for test in tests:
                code, out = _pytest(copy, ["-x", test], timeout)
                if code != 0:
                    raised = _raised(out)
                    kind = "timed out" if code is None else raised[0] if raised else f"exit {code}"
                    print(f"    {test}  {kind}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="rows to run (default: every row)")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per pytest run")
    parser.add_argument("--matrix", nargs="+", metavar="TESTS", help="print the kill matrix")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown rows: {', '.join(unknown)}")
    mutants = [known[name] for name in args.names] or list(MUTANTS)
    if args.matrix:
        kill_matrix(mutants, args.matrix, args.timeout)
        return 0
    return 0 if run_rows(mutants, args.timeout) else 1


if __name__ == "__main__":
    sys.exit(main())
