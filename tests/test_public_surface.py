"""Every public function, method and property reaches a report, and every
option is used by one, or is named here with a reason.

run_all() and the CLI's largest spin and phase reports run under
sys.setprofile, which records the code of every Python function called
and the arguments it was called with, property getters included. Each
public module-level function of symquant, and each public method and
property of a public class, must be among them or in NOT_REACHED, and
each parameter with a default must receive another value in one of those
calls or be in DEFAULT_ONLY. Every listed name must really be missed: a
function that no report calls, or an option that every call leaves at its
default, is dead surface (an option with one value in use is a constant),
and a stale entry hides one that has become used.
"""

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import sys

import pytest

import symquant
from symquant import groups
from symquant.cli import main
from symquant.scenarios import run_all

NOT_REACHED = {
    # named-group grammar: make_named_group builds these on request
    "groups.symmetric_group": "the symmetric:n group of the name grammar",
    "groups.direct_product": "the AxB product of the name grammar",
    # report normalization, for tests, CI and the benchmark
    "reporting.strip_timing": "removes volatile fields before comparing reports",
    # one interface serves both representation forms; the reports use each
    # member on one form only
    "coherent.UnitaryRep.conjugated": "one interface serves both forms",
    "coherent.UnitaryRep.matrix": "one interface serves both forms",
    "coherent.MonomialRep.characters": "one interface serves both forms",
    "coherent.MonomialRep.matrix": "one interface serves both forms",
    "coherent.MonomialRep.orbit": "one interface serves both forms",
}


DEFAULT_ONLY = {
    # the benchmark passes these; only a change to the benchmark may drop them
    "coherent.is_irreducible.tol": "the benchmark's blanket tolerance",
    "quantize.build_operator.source_variable": "the benchmark's dihedral rung",
    # the CLI's blanket override, symquant verify --tolerance
    "scenarios.run_all.tolerances": "verify --tolerance",
}


def _member_function(obj):
    """The function behind a method, property or cached property, or None."""
    if isinstance(obj, property):
        return obj.fget
    if isinstance(obj, functools.cached_property):
        return obj.func
    return obj if inspect.isfunction(obj) else None


def _public_functions():
    """(name, function) for every public module-level function of symquant
    and every public method and property of its public classes."""
    for info in pkgutil.iter_modules(symquant.__path__):
        module = importlib.import_module(f"symquant.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = _member_function(member)
                    if fn is not None and not attr.startswith("_"):
                        yield f"{info.name}.{name}.{attr}", fn


def _defaults(fn) -> dict:
    return {p.name: p.default for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty}


def _is_default(value, default) -> bool:
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except (TypeError, ValueError):
        return False


@pytest.fixture(scope="module")
def report_calls(tmp_path_factory):
    """The code of every function called by the three reports, and the
    options, "module.function.parameter", passed a value other than their
    default."""
    defaults = {fn.__code__: (name, _defaults(fn))
                for name, fn in _public_functions()}
    called, set_options = set(), set()

    def record(frame, event, arg):
        if event != "call":
            return
        called.add(frame.f_code)
        name, options = defaults.get(frame.f_code, (None, {}))
        for option, default in options.items():
            if not _is_default(frame.f_locals[option], default):
                set_options.add(f"{name}.{option}")

    out = tmp_path_factory.mktemp("reports")
    sys.setprofile(record)
    try:
        run_all()
        assert main(["spin", "--j", "50", "--reduce",
                     "--out", str(out / "spin.json")]) == 0
        assert main(["phase", "--n", "64", "--out", str(out / "phase.json")]) == 0
    finally:
        sys.setprofile(None)
    return called, set_options


def test_every_public_function_reaches_a_report_or_is_listed(report_calls):
    called, _ = report_calls
    missed = {name for name, fn in _public_functions() if fn.__code__ not in called}
    assert missed == set(NOT_REACHED)


def test_every_option_is_set_by_a_report_or_is_listed(report_calls):
    _, set_options = report_calls
    options = {f"{name}.{option}" for name, fn in _public_functions()
               if name not in NOT_REACHED for option in _defaults(fn)}
    assert options - set_options == set(DEFAULT_ONLY)


DELETED = ("InvariantMeasure", "haar_measure", "invariant_measure",
           "counting_measure", "MassCountMismatchError", "StatisticalModel",
           "Povm", "build_povm", "DensityOp", "build_density",
           "RowMismatchError", "NegativeWeightError", "function_operator",
           "commutator_norm", "CoarseGraining", "EigenOrbitPartition",
           "cyclic_shift_action", "rep_to_json", "rep_from_json",
           "variable_to_json", "variable_from_json", "commutant_dimension",
           "element_value_map", "natural_permutation_action")

# stored copies and derived values: read them off the one field that holds
# them (value_action.perm, 1 / lam, linalg.DEGENERACY_TOL,
# config_echo["scenario"]) or derive them from it (a system's states and
# commutant dimension, an induced action's numbering, image and kernel, a
# frame's lam = tr T / d), or, for a covariance tolerance, state it in the
# check that reads the distance; a rep's law error is a verdict, not a
# value to quote
DELETED_FIELDS = {
    "variables.InducedAction": ("induced_perm", "kernel", "k_to_image", "image_group"),
    "coherent.FrameOperator": ("normalized_weights", "lam"),
    "linalg.SpectralData": ("degeneracy_tol",),
    "quantize.CovarianceReport": ("tolerance",),
    "groups.FiniteGroup": ("element_names",),
    "coherent.UnitaryRep": ("law_error",),
    "coherent.CoherentSystem": ("states", "commutant_dim"),
    "reporting.VerificationReport": ("scenario",),
}


def test_removed_fields_are_gone():
    for path, names in DELETED_FIELDS.items():
        module, cls = path.split(".")
        fields = {f.name for f in dataclasses.fields(
            getattr(importlib.import_module(f"symquant.{module}"), cls))}
        assert not fields.intersection(names), path


def test_finite_group_has_no_is_abelian():
    # only tests and demo 01 read it; they compare the Cayley table with its
    # transpose
    assert not hasattr(groups.FiniteGroup, "is_abelian")


def test_removed_names_are_not_exported():
    # none of the measure, POVM, density, wrapper or coarse-graining record
    # names is reachable from the package or from any of its modules
    modules = [symquant] + [importlib.import_module(f"symquant.{info.name}")
                            for info in pkgutil.iter_modules(symquant.__path__)]
    for module in modules:
        assert not [n for n in DELETED if hasattr(module, n)], module.__name__
