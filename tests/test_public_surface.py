"""Every public function reaches a report, or is named here with a reason.

run_all() and the CLI's largest spin and phase reports run under
sys.setprofile, which records the code of every Python function called.
Each public module-level function of symquant must be among them or in
NOT_REACHED, and every name in NOT_REACHED must really be missed: a
function that no report calls and no listed reason keeps is dead surface,
and a stale entry hides one that has become reachable.
"""

import importlib
import inspect
import pkgutil
import sys

import symquant
from symquant.cli import main
from symquant.scenarios import run_all

NOT_REACHED = {
    # serialization: written and read back by users, not by reports
    "coherent.rep_to_json": "serialization of a representation",
    "coherent.rep_from_json": "serialization of a representation",
    "variables.variable_to_json": "serialization of a variable",
    "variables.variable_from_json": "serialization of a variable",
    # named-group grammar: make_named_group builds these on request
    "groups.symmetric_group": "the symmetric:n group of the name grammar",
    "groups.direct_product": "the AxB product of the name grammar",
    "groups.natural_permutation_action": "symmetric:n on its points, for the oracles",
    # report normalization, for tests, CI and the benchmark
    "reporting.strip_timing": "removes volatile fields before comparing reports",
    # benchmark-only: the group ladder's large monomial rep
    "coherent.left_regular_rep": "the group ladder's representation",
    # oracle route: a second way to the value maps the checks compute
    "variables.element_value_map": "one element's value map, the oracles' route",
}


def _public_functions():
    for info in pkgutil.iter_modules(symquant.__path__):
        module = importlib.import_module(f"symquant.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                yield f"{info.name}.{name}", obj.__code__


def test_every_public_function_reaches_a_report_or_is_listed(tmp_path):
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        run_all()
        assert main(["spin", "--j", "50", "--reduce",
                     "--out", str(tmp_path / "spin.json")]) == 0
        assert main(["phase", "--n", "64", "--out", str(tmp_path / "phase.json")]) == 0
    finally:
        sys.setprofile(None)
    missed = {name for name, code in _public_functions() if code not in called}
    assert missed == set(NOT_REACHED)


DELETED = ("InvariantMeasure", "haar_measure", "invariant_measure",
           "counting_measure", "MassCountMismatchError", "StatisticalModel",
           "Povm", "build_povm", "DensityOp", "build_density",
           "RowMismatchError", "NegativeWeightError", "function_operator",
           "commutator_norm", "CoarseGraining")


def test_removed_names_are_not_exported():
    # none of the measure, POVM, density, wrapper or coarse-graining record
    # names is reachable from the package or from any of its modules
    modules = [symquant] + [importlib.import_module(f"symquant.{info.name}")
                            for info in pkgutil.iter_modules(symquant.__path__)]
    for module in modules:
        assert not [n for n in DELETED if hasattr(module, n)], module.__name__
