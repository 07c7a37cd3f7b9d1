import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scrollcalc import DivisorClass, Scroll, extension_cohomology, parse_bundle_spec
from scrollcalc.cli import EXIT_BROKEN_PIPE, TABLE_CHUNK, main

GOLDEN = Path(__file__).parent / "golden"
MATRIX = json.loads((GOLDEN / "cli_matrix.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_cohomology_json(capsys):
    code, out, _ = run(capsys, "cohomology", "--scroll", "1,2", "--divisor", "1,0", "--json")
    assert code == 0
    assert out == (GOLDEN / "cohomology_s12_h.json").read_text()


def test_golden_ulrich_plain(capsys):
    code, out, _ = run(capsys, "ulrich", "--scroll", "1,2", "--bundle", "ext(O(1,-1); O(0,2))")
    assert code == 0
    assert out == (GOLDEN / "ulrich_ext_s12.txt").read_text()


def test_golden_invalid_scroll(capsys):
    code, out, err = run(capsys, "cohomology", "--scroll", "0,1", "--divisor", "0,0")
    assert code == 3
    assert out == ""
    assert err == (GOLDEN / "invalid_scroll.txt").read_text()


@pytest.mark.parametrize("case", MATRIX, ids=[" ".join(c["argv"]) or "(no arguments)" for c in MATRIX])
def test_cli_matrix(capsys, case):
    """Every subcommand, plain and --json, byte for byte.  Usage errors
    record only the exit code: argparse's wording varies by Python version."""
    code, out, err = run(capsys, *case["argv"])
    assert code == case["exit"]
    if "stdout" in case:
        assert out == case["stdout"]
        assert err == case["stderr"]


def test_usage_error_exits_2(capsys):
    code, _, _ = run(capsys, "cohomology", "--scroll", "1,2")
    assert code == 2
    code, _, _ = run(capsys, "cohomology", "--scroll", "1,2", "--divisor", "x,y")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_bundle_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "split-h", "--scroll", "1,2", "--bundle", "O(1;2)")
    assert code == 2
    assert "offset 3" in err


def test_domain_errors_exit_3(capsys):
    code, _, err = run(capsys, "log", "--scroll", "1,2", "--lines", "2", "--curves", "2")
    assert code == 3 and "cannot contain" in err
    code, _, err = run(capsys, "log", "--scroll", "1,2", "--lines", "1", "--curves", "0")
    assert code == 3
    code, _, err = run(capsys, "summand", "--scroll", "1,2", "--bundle", "O(0,-1)")
    assert code == 3
    code, _, err = run(capsys, "classify-log", "--scroll", "1,3", "--max-lines", "8", "--max-curves", "4")
    assert code == 3


def test_classify_log_small_bounds_exit_3(capsys):
    code, out, err = run(capsys, "classify-log", "--scroll", "2,2", "--max-lines", "1", "--max-curves", "4")
    assert (code, out) == (3, "")
    assert err == "error: bounds too small to be conclusive: need max_lines >= 6 and max_curves >= 3\n"


@pytest.mark.parametrize("depth,code", [(200, 0), (201, 2), (1200, 2)])
def test_ext_nesting_bound(capsys, depth, code):
    spec = "ext(" * depth + "O(0,0)" + "; O(0,0))" * depth
    got, out, err = run(capsys, "table", "--scroll=1,2", f"--bundle={spec}", "--twists=0:0,0:0")
    assert got == code
    if code == 0:
        assert out.splitlines()[1] == f"0,0,{depth + 1},0,0,{depth + 1}"
    else:
        # the 201st "ext(" starts at offset 4 * 200
        assert (out, err) == ("", "error: ext(...) nested deeper than 200 levels (at offset 800)\n")


DEEP_FOLDS = {
    "multiplicity": "1200*ext(O(0,0); O(0,0))",
    "plus": " + ".join(["ext(O(0,0); O(0,0))"] * 1200),
}
FOLD_COMMANDS = {"table": ("--twists=0:0,0:0",), "regularity": (), "split-h": (), "acm": ()}


@pytest.mark.parametrize("how", sorted(DEEP_FOLDS))
@pytest.mark.parametrize("command", sorted(FOLD_COMMANDS))
def test_deep_folded_specs_exit_2(capsys, command, how):
    code, out, err = run(capsys, command, "--scroll=1,2", f"--bundle={DEEP_FOLDS[how]}", *FOLD_COMMANDS[command])
    offset = 0 if how == "multiplicity" else 22 * 200
    assert (code, out) == (2, "")
    assert err == f"error: ext(...) terms fold deeper than 200 levels (at offset {offset})\n"


@pytest.mark.parametrize("command", sorted(FOLD_COMMANDS))
def test_folded_spec_at_bound_exits_0(capsys, command):
    code, out, _ = run(capsys, command, "--scroll=1,2", "--bundle=200*ext(O(0,0); O(0,0))", *FOLD_COMMANDS[command])
    assert code == 0 and out


def test_negative_verdicts_exit_0(capsys):
    code, out, _ = run(capsys, "split-h", "--scroll", "1,2", "--bundle", "O(0,1)")
    assert code == 0
    assert "verdict: fails" in out
    assert "t = -2" in out


@pytest.mark.parametrize(
    "argv,key",
    [
        (("split-h", "--scroll", "1,2", "--bundle", "O(0,0) + O(3,0)"), "verdict"),
        (("split-acm", "--scroll", "2,3", "--bundle", "O(0,1) + O(1,-1)"), "verdict"),
        (("acm", "--scroll", "2,2", "--bundle", "O(0,4)"), "verdict"),
        (("ulrich", "--scroll", "1,2", "--bundle", "O(1,-1)"), "verdict"),
        (("regularity", "--scroll", "1,2", "--bundle", "O(0,-1)"), "verdict"),
        (("summand", "--scroll", "1,2", "--bundle", "O(0,1)"), "verdict"),
    ],
)
def test_plain_and_json_verdicts_agree(capsys, argv, key):
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    obj = json.loads(out)
    assert f"verdict: {obj[key]}" in plain


def test_table_csv_shape(capsys):
    code, out, _ = run(
        capsys, "table", "--scroll", "1,2", "--bundle", "O(0,0)", "--twists=-1:1,-1:1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tH,tf,h0,h1,h2,chi"
    assert len(lines) == 1 + 9
    # row-major order and chi = h0 - h1 + h2 on every exact row
    assert lines[1].startswith("-1,-1,")
    assert lines[2].startswith("-1,0,")
    for row in lines[1:]:
        th, tf, h0, h1, h2, chi = row.split(",")
        assert int(h0) - int(h1) + int(h2) == int(chi)


def test_table_interval_cells(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--scroll",
        "1,2",
        "--bundle",
        "ext(O(-2,3); O(0,0))",
        "--twists",
        "0:0,0:0",
    )
    assert code == 0
    assert out.splitlines()[1] == "0,0,0..1,0..1,0,0"


def test_regularity_reports_reg(capsys):
    code, out, _ = run(capsys, "regularity", "--scroll", "2,2", "--bundle", "O(-3,0)", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "false"
    assert obj["reg"] == 3


def test_ext1_output(capsys):
    code, out, _ = run(capsys, "ext1", "--scroll", "1,2", "--from", "0,2", "--to", "1,-1")
    assert code == 0
    assert out.strip() == "ext1 = 1"


def test_ulrich_make_output(capsys):
    code, out, _ = run(capsys, "ulrich-make", "--scroll", "2,2", "--a", "1", "--b", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["bundle"] == "ext(O(1,-1); 2*O(0,3))"
    assert obj["verdict"] == "true"


def test_log_and_check(capsys):
    code, out, _ = run(capsys, "log", "--scroll", "2,2", "--lines", "3", "--curves", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["splitting"] == "O(0,0) + O(0,1)"
    assert obj["flags"] == {"supported": True, "formula_only": False}

    code, out, _ = run(
        capsys, "log-check", "--scroll", "2,2", "--lines", "3", "--curves", "2", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "true" and obj["c1_ok"] is True and obj["chi_failed"] == 0

    code, out, _ = run(
        capsys,
        "log-check",
        "--scroll",
        "2,2",
        "--lines",
        "3",
        "--curves",
        "2",
        "--claimed",
        "O(0,2) + O(0,0)",
    )
    assert code == 0
    assert "verdict: false" in out


def test_log_check_rejects_non_sum_claims(capsys):
    code, _, err = run(
        capsys,
        "log-check",
        "--scroll",
        "2,2",
        "--lines",
        "3",
        "--curves",
        "2",
        "--claimed",
        "ext(O(0,0); O(0,1))",
    )
    assert code == 3
    assert "direct sum" in err


def test_classify_log_output(capsys):
    code, out, _ = run(
        capsys, "classify-log", "--scroll", "2,2", "--max-lines", "7", "--max-curves", "4", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert [(r["lines"], r["curves"]) for r in obj["classification"]] == [
        (2, 2),
        (3, 2),
        (4, 2),
        (5, 2),
    ]


def test_indeterminate_is_a_result(capsys):
    code, out, _ = run(
        capsys, "split-acm", "--scroll", "1,1", "--bundle", "ext(O(-1,1); O(1,-1))"
    )
    assert code == 0
    assert "verdict: indeterminate" in out


@pytest.mark.parametrize(
    "argv,out",
    [
        # on S(1,2), c = 3: O(H-f) twisted by -H and -2H is O(0,-1) and
        # O(-1,-1), O(2f) is O(-1,2) and O(-2,2), and all four have no
        # cohomology, so the six Ulrich probes are 0 for any counts
        (
            ["ulrich-make", "--scroll", "1,2", "--a", "1000000000", "--b", "1000000000"],
            "bundle: ext(1000000000*O(1,-1); 1000000000*O(0,2))\nverdict: true\n",
        ),
        # h^0(O) = 1 per copy, no higher cohomology
        (
            ["table", "--scroll=1,2", "--bundle=O(0,0)^1000000000", "--twists=0:0,0:0"],
            "tH,tf,h0,h1,h2,chi\n0,0,1000000000,0,0,1000000000\n",
        ),
    ],
    ids=["ulrich-make", "table"],
)
def test_billion_copies_through_the_cli(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


TABLE_SPEC = "ext(O(-2,3) + O(0,1); ext(O(1,-1); O(0,2)))"


def table_row(s, b, th, tf):
    """One CSV row from a one-twist evaluation."""
    iv = extension_cohomology(s, b, DivisorClass(th, tf))
    cells = [str(iv.lo(i)) if iv.forced_at(i) else f"{iv.lo(i)}..{iv.hi(i)}" for i in range(3)]
    return f"{th},{tf},{','.join(cells)},{iv.chi}"


@pytest.mark.parametrize("cells", [TABLE_CHUNK - 1, TABLE_CHUNK, TABLE_CHUNK + 1])
def test_table_walks_once_per_chunk(capsys, walks, cells):
    # 255 and 257 cells as one row, 256 as two rows of 128; the rows
    # match one-twist evaluations in order, and each chunk of the
    # row-major stream costs one walk
    rows, width = (2, cells // 2) if cells % 2 == 0 else (1, cells)
    code, out, err = run(capsys, "table", "--scroll=1,2", f"--bundle={TABLE_SPEC}", f"--twists=-1:{rows - 2},-3:{width - 4}")
    assert (code, err) == (0, "")
    assert len(walks) == math.ceil(cells / TABLE_CHUNK)
    assert sum(walks) == cells and max(walks) <= TABLE_CHUNK
    s, b = Scroll(1, 2), parse_bundle_spec(TABLE_SPEC)
    want = [table_row(s, b, th, tf) for th in range(-1, rows - 1) for tf in range(-3, width - 3)]
    assert out.splitlines() == ["tH,tf,h0,h1,h2,chi"] + want


class ClosedAfter(io.TextIOBase):
    """A stdout whose reader goes away after `n` writes."""

    def __init__(self, n):
        self.left = n

    def write(self, text):
        if self.left == 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.left -= 1
        return len(text)


@pytest.mark.parametrize("writes", [0, 6])
def test_broken_pipe_exits_quietly(capsys, monkeypatch, writes):
    monkeypatch.setattr(sys, "stdout", ClosedAfter(writes))
    code = main(["table", "--scroll=1,2", "--bundle=ext(O(0,0); O(1,1))", "--twists=0:0,-1000000:1000000"])
    assert code == EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


def test_broken_pipe_through_a_real_pipe():
    # the reader closes its end after three lines; the writer exits with
    # the documented code and writes nothing to stderr, not even at the
    # interpreter's final flush
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = ["table", "--scroll=1,2", "--bundle=ext(O(0,0); O(1,1))", "--twists=0:0,-1000000:1000000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "scrollcalc.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_BROKEN_PIPE
    s, b = Scroll(1, 2), parse_bundle_spec("ext(O(0,0); O(1,1))")
    assert head == [f"{line}\n" for line in ("tH,tf,h0,h1,h2,chi", table_row(s, b, 0, -10**6), table_row(s, b, 0, 1 - 10**6))]
    assert err == ""
