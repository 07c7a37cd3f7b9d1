"""The package's exported names."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import scrollcalc
from scrollcalc import cohomology, extensions, logbundles, regularity, scroll

# names deleted because another name already does their job
DELETED = (
    (regularity, "RegularityReport"),
    (extensions, "extension_cohomology_batch"),
    (cohomology, "sum_cohomology_batch"),
    (scroll, "restriction_degree"),
    (logbundles, "FORMULA_ONLY_FLAG"),
    (regularity, "regular_region"),
    (regularity, "_leaves_regular"),
    # the P^1 route's internals stay in scrollcalc.p1 and
    # scrollcalc.errors, unexported
    (scrollcalc, "P1Sum"),
    (scrollcalc, "sym_decompose"),
    (scrollcalc, "p1_cohomology"),
    (scrollcalc, "NegativeSymPower"),
)


def test_all_lists_each_public_name_once():
    public = {
        name
        for name, value in vars(scrollcalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(scrollcalc.__all__) == len(set(scrollcalc.__all__))
    assert set(scrollcalc.__all__) == public


@pytest.mark.parametrize("module, name", DELETED, ids=[name for _, name in DELETED])
def test_deleted_names_are_gone(module, name):
    with pytest.raises(ImportError):
        exec(f"from scrollcalc import {name}", {})
    assert not hasattr(module, name)


def test_import_loads_no_heavy_modules():
    # every CLI call pays for the import: in a fresh interpreter, what
    # `import scrollcalc, scrollcalc.cli` loads beyond argparse and json
    code = (
        "import sys, argparse, json; before = set(sys.modules); import scrollcalc, scrollcalc.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(scrollcalc.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "scrollcalc.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast"}


def test_deleted_methods_are_gone():
    assert not hasattr(cohomology.CohomRecord, "__getitem__")
    assert not hasattr(extensions.IntervalCohom, "exact")
    assert not hasattr(extensions.IntervalCohom, "as_record_tuple")
    assert not hasattr(logbundles.Arrangement, "flags")


def test_leaf_closed_forms_live_in_cohomology():
    assert scrollcalc.line_bundle_reg is cohomology.line_bundle_reg
    assert scrollcalc.gg_region is cohomology.gg_region
