#!/usr/bin/env python3
"""Replay the committed mutants of the interval kernel, the decisions and
the CLI's decision table against the tests.

    python3 tools/mutants.py

Run from anywhere; the checkout is the parent of this file's folder and
is never written.  Each mutant in MUTANTS names a file under src/, an
exact old text that occurs in it once, the new text that replaces it,
the test files that must kill it, and the change whose checks it comes
from.  For each mutant, `src/`, `tests/` and COPIED_FILES are copied
into a temporary directory, the mutant is applied there, and
`python -m pytest -x -q` runs on its test files with that copy's `src/`
first on the path.  Pytest's exit 1 (a test failed) kills the mutant and
exit 0 lets it survive; any other exit (a collection or usage error, no
tests collected) is an error of the gate, never a kill.

An old text that does not occur exactly once is stale: the tool stops
before running anything and names the mutant.  Re-anchor it to today's
code, or retire it with the change that removed its target; never drop
it silently.  Every committed mutant must be killed: a change that adds
a mutant which survives adds the test that kills it too.  An equivalent
mutant, which no test can kill, is not committed.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when
one is stale or pytest ends in error on one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# beside src/ and tests/: pytest's settings, and the README whose CLI
# examples tests/test_cli.py reads when it is collected
COPIED_FILES = ("pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]
    origin: str  # the change whose mutation checks named it


MUTANTS = (
    Mutant(
        "combine-unclamped-lo1",
        "src/scrollcalc/extensions.py",
        "lo1 = (lo1 if lo1 > 0 else 0) + (lo1b if lo1b > 0 else 0)",
        "lo1 = lo1 + (lo1b if lo1b > 0 else 0)",
        ("tests/test_extensions.py",),
        "74d7ff9 Check each interval-kernel value once, where its Sum is summed",
    ),
    Mutant(
        "reader-without-negative-check",
        "src/scrollcalc/cohomology.py",
        "            if (h0 | h1 | h2) < 0:\n                _check_interval(h0, h0, h1, h1, h2, h2, h0 - h1 + h2)\n",
        "",
        ("tests/test_cohomology.py",),
        "d93c7ca Read leaf cohomology through one batched reader in cohomology",
    ),
    Mutant(
        "reader-ignores-counts",
        "src/scrollcalc/cohomology.py",
        "                h0 += n * l0\n                h1 += n * l1\n                h2 += n * l2\n",
        "                h0 += l0\n                h1 += l1\n                h2 += l2\n",
        ("tests/test_cohomology.py",),
        "d93c7ca Read leaf cohomology through one batched reader in cohomology",
    ),
    Mutant(
        # a parameter default is bound when the module is imported, so a
        # function put in `_line_cohomology`'s place is never called
        "reader-binds-line-at-import",
        "src/scrollcalc/cohomology.py",
        "    a0: int, a1: int, sums: Sequence[tuple], twists: Iterable[tuple[int, int]]\n) -> list[_Value]:",
        "    a0: int, a1: int, sums: Sequence[tuple], twists: Iterable[tuple[int, int]],"
        " _line_cohomology=_line_cohomology\n) -> list[_Value]:",
        ("tests/test_cohomology.py",),
        "d93c7ca Read leaf cohomology through one batched reader in cohomology",
    ),
    Mutant(
        "forced-value-h0-h2-swapped",
        "src/scrollcalc/cohomology.py",
        "out.append((h0, h0, 0, 0, h2, h2, h0 + h2))",
        "out.append((h2, h2, 0, 0, h0, h0, h0 + h2))",
        ("tests/test_extensions.py",),
        "bb3cc18 Answer forced twists of Ext trees from Riemann-Roch over h-groups, read no leaf there",
    ),
    Mutant(
        "forced-test-duality-threshold",
        "src/scrollcalc/cohomology.py",
        "elif h <= -2 and h * a0 + fmax + tf >= e:",
        "elif h <= -1 and h * a0 + fmax + tf >= e:",
        ("tests/test_extensions.py",),
        "bb3cc18 Answer forced twists of Ext trees from Riemann-Roch over h-groups, read no leaf there",
    ),
    Mutant(
        "forced-values-at-the-end",
        "src/scrollcalc/extensions.py",
        "    return [v or next(fill) for v in out]",
        "    return [v for v in out if v] + list(fill)",
        ("tests/test_extensions.py",),
        "734ff8f Answer forced twists of an Ext walk from the direct sum",
    ),
    Mutant(
        "reg-certificate-reads-degree-0",
        "src/scrollcalc/regularity.py",
        "if any(v[2 * degree] for v,",
        "if any(v[0] for v,",
        ("tests/test_regularity.py",),
        "d93c7ca Read leaf cohomology through one batched reader in cohomology",
    ),
    Mutant(
        "sum-cohomology-reads-the-first-three-places",
        "src/scrollcalc/cohomology.py",
        "(twist,))[0][:5:2])",
        "(twist,))[0][:3])",
        ("tests/test_cohomology.py",),
        "d93c7ca Read leaf cohomology through one batched reader in cohomology",
    ),
    Mutant(
        "read-ignores-the-memo",
        "src/scrollcalc/extensions.py",
        "new = tuple(dict.fromkeys(filterfalse(values.__contains__, map(_TWIST, plan))))",
        "new = tuple(dict.fromkeys(map(_TWIST, plan)))",
        ("tests/test_extensions.py",),
        "8cb7cf1 Read every decision's probes through one evaluator primitive",
    ),
    Mutant(
        "read-takes-hi-as-lo",
        "src/scrollcalc/extensions.py",
        "(name, tw, v[2 * degree], v[2 * degree + 1])",
        "(name, tw, v[2 * degree + 1], v[2 * degree + 1])",
        ("tests/test_extensions.py",),
        "8cb7cf1 Read every decision's probes through one evaluator primitive",
    ),
    Mutant(
        "ulrich-false-carries-only-unresolved",
        "src/scrollcalc/splitting.py",
        "carried = unresolved if verdict is Verdict.INDETERMINATE else probes",
        "carried = probes if verdict is Verdict.TRUE else unresolved",
        ("tests/test_splitting.py",),
        "8cb7cf1 Read every decision's probes through one evaluator primitive",
    ),
    Mutant(
        "summand-cause-among-auxiliaries",
        "src/scrollcalc/splitting.py",
        "(Verdict.TRUE, cause, aux_probes, summand, \"\")",
        "(Verdict.TRUE, cause, (cause, *aux_probes), summand, \"\")",
        ("tests/test_extensions.py",),
        "8cb7cf1 Read every decision's probes through one evaluator primitive",
    ),
    Mutant(
        "ulrich-row-prints-decided-probes",
        "src/scrollcalc/cli.py",
        "undecided_probes_only=True)",
        "undecided_probes_only=False)",
        ("tests/test_cli.py",),
        "One decision record, and the CLI's decision subcommands as rows of one table",
    ),
    Mutant(
        "regularity-row-prints-a-witness-line",
        "src/scrollcalc/cli.py",
        'label="probe", options=("p", "pp")',
        'witness="probe", label="probe", options=("p", "pp")',
        ("tests/test_cli.py",),
        "One decision record, and the CLI's decision subcommands as rows of one table",
    ),
)


def stale(mutant: Mutant) -> str | None:
    """Why the mutant cannot be applied to the checkout, or None."""
    try:
        with open(os.path.join(ROOT, mutant.file), encoding="utf-8") as fh:
            count = fh.read().count(mutant.old)
    except FileNotFoundError:
        return f"{mutant.file} does not exist"
    if count != 1:
        return f"its old text occurs {count} times in {mutant.file}, not once"
    return None


def copy_checkout(tmp: str) -> None:
    """Copy `src/`, `tests/` and COPIED_FILES of the checkout into tmp."""
    for folder in ("src", "tests"):
        shutil.copytree(
            os.path.join(ROOT, folder),
            os.path.join(tmp, folder),
            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache"),
        )
    for name in COPIED_FILES:
        shutil.copy(os.path.join(ROOT, name), tmp)


def run(mutant: Mutant) -> tuple[int, str, float]:
    """(pytest's exit status, its output, seconds) on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy_checkout(tmp)
        path = os.path.join(tmp, mutant.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        start = time.perf_counter()
        done = subprocess.run(
            argv, cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        return done.returncode, done.stdout, time.perf_counter() - start


def main() -> int:
    problems = [(m, why) for m in MUTANTS if (why := stale(m))]
    for m, why in problems:
        print(f"stale mutant {m.name} ({m.origin}): {why}", file=sys.stderr)
    if problems:
        return 2
    survived = 0
    for m in MUTANTS:
        status, output, seconds = run(m)
        if status not in (0, 1):
            tail = "\n".join(output.splitlines()[-20:])
            print(f"error: pytest exited {status} on mutant {m.name}, not 0 or 1:\n{tail}", file=sys.stderr)
            return 2
        survived += status == 0
        verdict = "SURVIVED" if status == 0 else "killed"
        print(f"{verdict:8}  {m.name}  ({seconds:.1f} s, {', '.join(m.tests)})", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
