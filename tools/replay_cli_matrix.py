#!/usr/bin/env python3
"""Replay every case of tests/golden/cli_matrix.json through a command.

    python3 tools/replay_cli_matrix.py scrollcalc
    PYTHONPATH=src python3.10 tools/replay_cli_matrix.py python3.10 -m scrollcalc.cli

The arguments are the command that stands for `scrollcalc`: the
installed entry point, or an interpreter running the CLI module, so any
interpreter can be checked, with or without pytest.  Each case's argv is
appended to it and run once; its exit code, stdout and stderr must match
the recorded ones byte for byte.  Usage errors record only the exit
code, because argparse's wording varies by Python version.  Prints one
line per mismatch and a count, and exits 1 if any case differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

MATRIX = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "golden", "cli_matrix.json")


def main(command: list[str]) -> int:
    with open(MATRIX, encoding="utf-8") as fh:
        cases = json.load(fh)
    failed = 0
    for case in cases:
        proc = subprocess.run([*command, *case["argv"]], capture_output=True)
        got = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        want = {"exit": case["exit"]}
        if "stdout" in case:
            want.update(stdout=case["stdout"].encode(), stderr=case["stderr"].encode())
        if {k: got[k] for k in want} != want:
            failed += 1
            print(f"FAIL {' '.join(command)} {case['argv']}: want {want}, got {got}")
    print(f"{len(cases) - failed} of {len(cases)} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} COMMAND [ARG...]")
    sys.exit(main(sys.argv[1:]))
