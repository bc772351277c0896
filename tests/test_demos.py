"""Demos 01 and 02 print only integers, tuples, booleans and text, so their
stdout is the same on every numpy release; it is pinned byte for byte in
tests/demo_<name>.golden.txt."""

import contextlib
import io
import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_groups_and_orbits",
                                  "02_variables_and_induced_symmetry"])
def test_demo_prints_pinned_output(name):
    # run in process, with every warning an error, as the CI demo step
    # runs the demos under -W error
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    golden = Path(__file__).with_name(f"demo_{name}.golden.txt")
    assert out.getvalue() == golden.read_text(encoding="utf-8")
