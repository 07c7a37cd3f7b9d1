"""The committed mutation gate, tools/mutants.py, without running its
mutants: that takes a minute, and CI runs it as its own step."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_each_mutant_applies_to_this_tree(mutant):
    assert mutants.stale(mutant) is None
    assert mutant.old != mutant.new and mutant.file.startswith("src/")
    assert mutant.tests and all((ROOT / t).is_file() for t in mutant.tests)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_a_stale_mutant_stops_the_gate_before_any_run(monkeypatch, capsys):
    gone = mutants.Mutant("gone", "src/scrollcalc/extensions.py", "no such text", "", ("tests/test_scroll.py",), "-")
    monkeypatch.setattr(mutants, "MUTANTS", mutants.MUTANTS + (gone,))
    monkeypatch.setattr(mutants, "run", lambda m: pytest.fail(f"{m.name} was run"))
    assert mutants.main() == 2
    assert capsys.readouterr().err == (
        "stale mutant gone (-): its old text occurs 0 times in src/scrollcalc/extensions.py, not once\n"
    )


def test_a_survivor_fails_the_gate(monkeypatch, capsys):
    monkeypatch.setattr(mutants, "run", lambda m: (int(m.name != "forced-values-at-the-end"), "", 0.0))
    assert mutants.main() == 1
    out = capsys.readouterr().out
    assert "SURVIVED  forced-values-at-the-end" in out
    assert f"{len(mutants.MUTANTS) - 1} of {len(mutants.MUTANTS)} mutants killed" in out


def test_a_pytest_error_is_not_a_kill(monkeypatch, capsys):
    # exit 5: pytest collected no tests, so nothing has failed
    def no_tests(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 5, stdout="collected 0 items\nno tests ran in 0.01s\n")

    monkeypatch.setattr(mutants.subprocess, "run", no_tests)
    assert mutants.main() == 2
    captured = capsys.readouterr()
    assert "killed" not in captured.out
    first = mutants.MUTANTS[0].name
    assert captured.err == (
        f"error: pytest exited 5 on mutant {first}, not 0 or 1:\ncollected 0 items\nno tests ran in 0.01s\n"
    )


def test_the_gates_copy_collects_every_named_test_file(tmp_path):
    # test_cli.py reads README.md when it is collected, so a copy without
    # it would stop the gate with pytest's exit 2 on every mutant naming it
    mutants.copy_checkout(str(tmp_path))
    named = sorted({t for m in mutants.MUTANTS for t in m.tests} | {"tests/test_cli.py"})
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *named],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "src"), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
