"""Span tracing of symquant's layers from outside the package.

While a ``Tracer`` is installed, every public function defined in a
symquant module, and the validating constructors of ``FiniteGroup``,
``GroupAction`` and ``UnitaryRep``, is replaced by a wrapper that records
one span per call: name, layer, start, end and the index of the enclosing
span. Modules import each other by name (``from .coherent import
frame_operator``), so the wrapper is bound into every symquant namespace
that holds the original, and the originals are put back on uninstall.

Spans stay in memory until the run ends; ``layer_metrics`` turns the spans
of one pass into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from dataclasses import dataclass

LAYERS = ("groups", "variables", "coherent", "quantize", "linalg", "spin",
          "phasespace", "scenarios", "reporting", "cli")
CONSTRUCTORS = (("groups", "FiniteGroup"), ("groups", "GroupAction"),
                ("coherent", "UnitaryRep"))

MIB = float(1 << 20)

# Categories of calls whose inclusive time a metric reports. A span counts
# once, at the outermost call of its category, so that nested calls (a
# named group built through generate_group and validated by FiniteGroup)
# are not counted twice. Categories may overlap each other: induce_group
# calls is_permissible, which counts in both.
CATEGORIES = {
    "coherent.rep_validate": {"coherent.UnitaryRep"},
    "coherent.irreducible": {"coherent.is_irreducible", "coherent.commutant_dimension"},
    "coherent.frame": {"coherent.frame_operator"},
    "groups.build": {"groups.FiniteGroup", "groups.generate_group",
                     "groups.make_named_group", "groups.cyclic_group",
                     "groups.dihedral_group", "groups.symmetric_group",
                     "groups.binary_tetrahedral_group", "groups.direct_product"},
    "groups.action": {"groups.GroupAction", "groups.left_translation_action",
                      "groups.cyclic_shift_action", "groups.dihedral_vertex_action",
                      "groups.natural_permutation_action"},
    "groups.orbit": {"groups.orbits", "groups.is_transitive",
                     "groups.subgroup_generated"},
    "variables.permissible": {"variables.is_permissible",
                              "variables.is_permissible_under",
                              "variables.element_value_map",
                              "variables.maximal_permissible_subgroup"},
    "variables.induce": {"variables.induce_group"},
    "linalg.eig": {"linalg.eig_hermitian"},
    "linalg.expm": {"linalg.expm_antihermitian"},
    "quantize.build": {"quantize.build_operator", "quantize.operator_from_matrix",
                       "quantize.function_operator", "quantize.build_povm",
                       "quantize.build_density"},
    "quantize.orbit": {"quantize.eigen_orbit_partition", "quantize.model_reduce",
                       "quantize.spectrum_permutations"},
    "quantize.covariance": {"quantize.conjugation_covariance",
                            "quantize.covariance_check"},
}

# (metric, unit, kind, argument): kind "time" is a category's inclusive
# seconds, "calls" counts spans by name, "peak" is the largest tracemalloc
# peak of one call of a category, "self" is a layer's self time. Every
# layer reports its self time; the self times of one pass add up to the
# traced time spent inside symquant.
METRICS = (
    ("coherent.rep_validate_s", "s", "time", "coherent.rep_validate"),
    ("coherent.rep_validations", "count", "calls", "coherent.UnitaryRep"),
    ("coherent.rep_validate_peak_mib", "MiB", "peak", "coherent.rep_validate"),
    ("coherent.irreducible_s", "s", "time", "coherent.irreducible"),
    ("coherent.irreducible_calls", "count", "calls", "coherent.is_irreducible"),
    ("coherent.irreducible_peak_mib", "MiB", "peak", "coherent.irreducible"),
    ("coherent.frame_s", "s", "time", "coherent.frame"),
    ("groups.build_s", "s", "time", "groups.build"),
    ("groups.builds", "count", "calls", "groups.FiniteGroup"),
    ("groups.action_s", "s", "time", "groups.action"),
    ("groups.orbit_s", "s", "time", "groups.orbit"),
    ("variables.permissible_s", "s", "time", "variables.permissible"),
    ("variables.induce_s", "s", "time", "variables.induce"),
    ("linalg.eig_s", "s", "time", "linalg.eig"),
    ("linalg.eig_calls", "count", "calls", "linalg.eig_hermitian"),
    ("linalg.eig_peak_mib", "MiB", "peak", "linalg.eig"),
    ("linalg.expm_s", "s", "time", "linalg.expm"),
    ("linalg.expm_calls", "count", "calls", "linalg.expm_antihermitian"),
    ("spin.generators_calls", "count", "calls", "spin.spin_generators"),
    ("quantize.build_s", "s", "time", "quantize.build"),
    ("quantize.orbit_s", "s", "time", "quantize.orbit"),
    ("quantize.covariance_s", "s", "time", "quantize.covariance"),
) + tuple((f"{layer}.self_s", "s", "self", layer) for layer in LAYERS)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    peak: int = 0


class Tracer:
    """Records spans of the symquant calls made while it is installed.

    With ``memory=True`` each span also records the tracemalloc peak
    reached during the call, above the traced memory at its start; the
    caller starts tracemalloc.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span | None] = []
        self.report_bytes = 0
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _call(self, fn, name, layer, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem_stack:
                outer = self._mem_stack[-1]
                outer[1] = max(outer[1], peak)
            tracemalloc.reset_peak()
            self._mem_stack.append([current, current])
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span_peak = 0
            if self.memory:
                base, seen = self._mem_stack.pop()
                reached = max(seen, tracemalloc.get_traced_memory()[1])
                if self._mem_stack:
                    outer = self._mem_stack[-1]
                    outer[1] = max(outer[1], reached)
                span_peak = reached - base
            self.spans[idx] = Span(name, layer, start, end, parent, span_peak)
        if name == "reporting.dumps":
            self.report_bytes += len(result)
        return result

    def _wrap(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(fn, name, layer, args, kwargs)

        return traced

    def install(self) -> None:
        """Rebind every public symquant function and the validating
        constructors to span-recording wrappers."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module("symquant")]
        modules += [importlib.import_module(f"symquant.{m}") for m in LAYERS]
        wrapped = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[fn] = self._wrap(fn, f"{layer}.{attr}", layer)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(importlib.import_module(f"symquant.{layer}"), cls_name)
            original = cls.__dict__["__post_init__"]
            self._restore.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(original, f"{layer}.{cls_name}", layer)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def _outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans named in ``names`` with no ancestor named in ``names``."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Each layer's span time minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = {layer: 0.0 for layer in LAYERS}
    for s, c in zip(spans, child):
        out[s.layer] += (s.end - s.start) - c
    return out


def layer_metrics(spans: list[Span], report_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass as {name: (value, unit)}."""
    selfs = self_times(spans)
    out = {}
    for metric, unit, kind, arg in METRICS:
        if kind == "self":
            value = selfs[arg]
        elif kind == "calls":
            value = sum(1 for s in spans if s.name == arg)
        else:
            top = _outermost(spans, CATEGORIES[arg])
            if kind == "time":
                value = sum(s.end - s.start for s in top)
            else:
                value = max((s.peak for s in top), default=0) / MIB
        out[metric] = (value, unit)
    out["reporting.bytes"] = (report_bytes, "B")
    out["trace.spans"] = (len(spans), "count")
    return out
