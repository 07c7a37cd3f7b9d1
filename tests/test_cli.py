import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from scrollcalc import DivisorClass, Scroll, cohomology, extension_cohomology, extensions, parse_bundle_spec, twist_rectangle
from scrollcalc.cli import EXIT_BROKEN_PIPE, main
from scrollcalc.extensions import BATCH_BOUND, extension_cohomology_stream

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
MATRIX = json.loads((GOLDEN / "cli_matrix.json").read_text())
# a 40-node chain on S(1,2) and a balanced 31-node tree on S(2,3), each
# over a 16 x 16 twist rectangle where forced and unforced twists mix
TABLES = json.loads((GOLDEN / "table_ext_16x16.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_cli_examples():
    """(argv, shown lines, whether rows were cut at "...") of each
    `$ scrollcalc ...` example in the sh block of README's CLI section."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        assert command.startswith("$ scrollcalc ")
        cut = "..." in shown
        examples.append((shlex.split(command)[2:], shown[: shown.index("...")] if cut else shown, cut))
    return examples


README_EXAMPLES = readme_cli_examples()


@pytest.mark.parametrize("argv, shown, cut", README_EXAMPLES, ids=[argv[0] for argv, _, _ in README_EXAMPLES])
def test_readme_cli_examples(capsys, argv, shown, cut):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert (lines[: len(shown)] if cut else lines) == shown


@pytest.mark.parametrize("case", TABLES, ids=["chain", "balanced"])
def test_golden_ext_tables(capsys, case):
    assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


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
        (("split-h", "--scroll", "1,2", "--bundle", "O(0,1)"), "verdict"),
        (("split-h", "--scroll", "2,2", "--bundle", "ext(O(0,0); O(2,3))"), "verdict"),
        # every member splits, with no summand multiset: a note
        (("split-acm", "--scroll", "1,2", "--bundle", "ext(O(-3,-1); O(-3,1))"), "verdict"),
        (("ulrich", "--scroll", "1,1", "--bundle", "ext(O(-1,1); O(0,3))"), "verdict"),
        (("ulrich-make", "--scroll", "1,2", "--a", "2", "--b", "1"), "bundle"),
        (("log", "--scroll", "2,2", "--lines", "0", "--curves", "1"), "splitting"),
    ],
)
def test_plain_and_json_verdicts_agree(capsys, argv, key):
    # the rendering rule: one `key: value` line per JSON result field in
    # order, the first being `key`, then one line per JSON witness, then
    # one `key: value` line per flag
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    obj = json.loads(out)
    fields = [(k, v) for k, v in obj.items() if k not in ("scroll", "input", "witnesses", "flags")]
    witnesses, flags = obj["witnesses"], list(obj["flags"].items())

    def lines(items):
        return [f"{k}: {v if isinstance(v, str) else json.dumps(v)}" for k, v in items]

    assert fields[0][0] == key
    got = plain.splitlines()
    assert len(got) == len(fields) + len(witnesses) + len(flags)
    assert got[: len(fields)] == lines(fields)
    assert got[len(got) - len(flags) :] == lines(flags)
    for line, w in zip(got[len(fields) :], witnesses):
        label, text = line.split(": ", 1)
        assert label in ("witness", "probe", "unresolved")
        if "name" in w:  # a probe
            value = w["lo"] if w["lo"] == w["hi"] else f"[{w['lo']},{w['hi']}]"
            assert text == f"{w['name']} at twist O({w['twist'][0]},{w['twist'][1]}) = {value}"
        else:  # a failing condition at t
            assert f"t = {w['t']}," in text and text.endswith(str(w["value"]))


def test_summand_of_the_zero_bundle_exits_3(capsys):
    code, out, err = run(capsys, "summand", "--scroll", "1,2", "--bundle", "0*O(0,0)")
    assert (code, out, err) == (3, "", "error: summand detection needs a bundle of positive rank\n")


def _out_of_memory(*args):
    raise MemoryError


@pytest.mark.parametrize(
    "argv, out",
    [
        (("cohomology", "--scroll", "1,2", "--divisor", "1000000,0"), ""),
        # the header is printed before the first batch raises, and stays
        (("table", "--scroll", "1,2", "--bundle", "O(1000000,0)", "--twists=0:1,0:1"), "tH,tf,h0,h1,h2,chi\n"),
    ],
    ids=["cohomology", "table"],
)
def test_out_of_memory_exits_3(capsys, monkeypatch, argv, out):
    monkeypatch.setattr(cohomology, "_line_cohomology", _out_of_memory)
    assert run(capsys, *argv) == (3, out, "error: the computation ran out of memory\n")


def _overflow(*args):
    raise OverflowError("Python int too large to convert to C ssize_t")


OVERFLOW = (3, "", "error: a coefficient is too large for the computation\n")


def test_overflow_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cohomology, "_line_cohomology", _overflow)
    assert run(capsys, "cohomology", "--scroll", "1,2", "--divisor", "1000000,0") == OVERFLOW


@pytest.mark.parametrize(
    "argv",
    [
        ("cohomology", "--scroll", "1,2", "--divisor", f"{10**24},0"),
        ("cohomology", "--scroll", "1,1", "--divisor", f"{10**24},0"),
        ("cohomology", "--scroll", "1,2", f"--divisor={-10**24},0"),
        ("ext1", "--scroll", "1,2", "--from", "0,0", "--to", f"{10**21},0"),
        ("regularity", "--scroll", "1,2", "--bundle", "O(0,0)", "--p", f"{10**30}"),
    ],
    ids=["cohomology", "cohomology-e0", "cohomology-dual", "ext1", "regularity"],
)
def test_coefficient_past_ssize_t_exits_3_at_once(capsys, argv):
    # a Sym power of 2^63 or more degrees cannot have a length, so the
    # P^1 route raises OverflowError before it allocates: the whole call
    # peaks far below the size of a single degree list
    tracemalloc.start()
    try:
        got = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == OVERFLOW
    assert peak < 10**6


def test_huge_coefficient_in_an_ext_at_a_forced_twist(capsys, monkeypatch):
    # no leaf of the tree has h^1 at twist 0, so the value is the direct
    # sum's, from Riemann-Roch: chi(O(10^8 H)) = (10^8 + 1) + 3 * 10^8 *
    # (10^8 + 1) / 2 on S(1,2), plus 1 for O(0,0).  No leaf is looked up,
    # so nothing of the Sym power's size is built
    monkeypatch.setattr(cohomology, "_line_cohomology", _out_of_memory)
    argv = ("table", "--scroll=1,2", "--bundle=ext(O(100000000,0); O(0,0))", "--twists=0:0,0:0")
    assert run(capsys, *argv) == (0, "tH,tf,h0,h1,h2,chi\n0,0,15000000250000002,0,0,15000000250000002\n", "")


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


@pytest.mark.parametrize("cells", [BATCH_BOUND - 1, BATCH_BOUND, BATCH_BOUND + 1])
def test_table_walks_once_per_chunk(capsys, walks, cells):
    # 255 and 257 cells as one row, 256 as two rows of 128; the rows
    # match one-twist evaluations in order, and each chunk of the
    # row-major stream costs one walk
    rows, width = (2, cells // 2) if cells % 2 == 0 else (1, cells)
    code, out, err = run(capsys, "table", "--scroll=1,2", f"--bundle={TABLE_SPEC}", f"--twists=-1:{rows - 2},-3:{width - 4}")
    assert (code, err) == (0, "")
    assert len(walks) == math.ceil(cells / BATCH_BOUND)
    assert sum(walks) == cells and max(walks) <= BATCH_BOUND
    s, b = Scroll(1, 2), parse_bundle_spec(TABLE_SPEC)
    want = [table_row(s, b, th, tf) for th in range(-1, rows - 1) for tf in range(-3, width - 3)]
    assert out.splitlines() == ["tH,tf,h0,h1,h2,chi"] + want


def reference_table(s, b, twists):
    """The table's text rendered cell by cell: one IntervalCohom and one
    line per twist of `extension_cohomology_stream`."""
    lines = ["tH,tf,h0,h1,h2,chi"]
    for t, iv in extension_cohomology_stream(s, b, twists):
        bounds = ((iv.lo0, iv.hi0), (iv.lo1, iv.hi1), (iv.lo2, iv.hi2))
        cells = ",".join(str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in bounds)
        lines.append(f"{t.h},{t.f},{cells},{iv.chi}")
    return "".join(f"{line}\n" for line in lines)


def test_regularity_compiles_once(capsys, walks, monkeypatch):
    # is_pp_regular at (p, p') and reg share the expression's evaluator:
    # one compile, and reg walks only the three twists of r - 1
    compiled = []
    real = extensions._compile

    def counting(b):
        compiled.append(b)
        return real(b)

    monkeypatch.setattr(extensions, "_compile", counting)
    code, out, err = run(capsys, "regularity", "--scroll", "1,2", "--bundle", "ext(O(0,0); O(1,-3))")
    assert (code, err) == (0, "")
    assert len(compiled) == 1 and walks == [3, 3]


class ClosedAfter(io.TextIOBase):
    """A stdout that keeps its writes, and whose reader goes away after
    `n` of them."""

    def __init__(self, n):
        self.left = n
        self.writes = []

    def write(self, text):
        if self.left == 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.left -= 1
        self.writes.append(text)
        return len(text)


def test_table_prints_one_chunk_per_batch(monkeypatch, walks):
    # 17 x 16 = 272 cells span two batches, of 256 and 16 twists: the
    # header and each batch's rows are one print each, a text and its
    # newline, and the bytes are those of the cell-by-cell renderer
    stdout = ClosedAfter(math.inf)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["table", "--scroll=1,2", f"--bundle={TABLE_SPEC}", "--twists=-8:8,-8:7"]) == 0
    assert walks == [BATCH_BOUND, 16] and len(stdout.writes) == 6
    s, b = Scroll(1, 2), parse_bundle_spec(TABLE_SPEC)
    assert "".join(stdout.writes) == reference_table(s, b, twist_rectangle((-8, 8), (-8, 7)))


@pytest.mark.parametrize("writes", [0, 1, 2, 6])
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
