"""The benchmark's three size ladders and the checks on their results.

A workload is a ladder of rungs; one pass runs every rung once, smallest
first. Inputs come from the workload seed alone and are chosen so that
every expected verdict has a closed form:

* ``phase-ladder``: the ``phase`` scenario at n = 4..64 through
  ``symquant verify --config ... --out ...``; the seed picks each rung's
  shift pair (c, d). Large d = |G| representation validation.
* ``spin-ladder``: the ``spin`` scenario with ``reduce`` at j = 0.5..50
  through the same command; the seed picks the scenario seed and the
  direction. Eigendecomposition-bound; never touches groups or UnitaryRep.
* ``group-ladder``: library calls on dihedral groups of order 8..400 and
  on the binary tetrahedral group; the seed picks the fiducials, the
  parity label values and the half-block offset. Small d, large |G|.

Each rung returns its checks as (name, passed) pairs; the harness counts
them. Library calls go through module attributes (``sq.groups.orbits``),
never through names bound at import, so that tracing sees them.
"""

from __future__ import annotations

import json
import os

import numpy as np

import symquant as sq
import symquant.cli

PHASE_N = (4, 8, 16, 32, 64)
SPIN_J = (0.5, 5.0, 20.0, 50.0)
DIHEDRAL_N = (4, 24, 100, 200)
WORKLOAD_NAMES = ("phase-ladder", "spin-ladder", "group-ladder")

# default tolerances of the group-ladder's numeric checks, scaled by the
# size of the quantity compared
FRAME_TOL = 1e-9
IRREDUCIBLE_TOL = 1e-8
COVARIANCE_TOL = 1e-9


def _unit_vector(rng, dim, complex_=False):
    v = rng.normal(size=dim)
    if complex_:
        v = v + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class CliRung:
    """One ``symquant verify --config C --out R`` call on a generated config.

    The first report read back is the reference: later passes must give the
    same verdict list and the same ``strip_timing`` bytes.
    """

    def __init__(self, label, config, workdir, tolerance):
        self.label = label
        self.config_path = os.path.join(workdir, f"{label}.json")
        self.out_path = os.path.join(workdir, f"{label}.report.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.argv = ["verify", "--config", self.config_path, "--out", self.out_path]
        if tolerance is not None:
            self.argv += ["--tolerance", repr(float(tolerance))]
        self.code = None
        self.ref_verdicts = None
        self.ref_bytes = None

    def run(self):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        self.code = sq.cli.main(self.argv)

    def checks(self):
        with open(self.out_path, encoding="utf-8") as fh:
            text = fh.read()
        report = json.loads(text)
        verdicts = [(report["scenario"], c["name"], c["passed"])
                    for c in report["checks"]]
        stripped = sq.reporting.strip_timing(text)
        if self.ref_verdicts is None:
            self.ref_verdicts, self.ref_bytes = verdicts, stripped
        out = [(f"{self.label}:{name}", passed) for _, name, passed in verdicts]
        out.append((f"{self.label}:exit_code", self.code == (0 if all(
            p for _, _, p in verdicts) else 1)))
        out.append((f"{self.label}:verdicts_stable", verdicts == self.ref_verdicts))
        out.append((f"{self.label}:bytes_stable", stripped == self.ref_bytes))
        return out


class LibraryRung:
    """A group-ladder rung: library calls whose checks are made in the rung."""

    def __init__(self, label, fn, *args):
        self.label = label
        self._fn, self._args = fn, args
        self._checks = []

    def run(self):
        self._checks = self._fn(*self._args)

    def checks(self):
        return [(f"{self.label}:{name}", ok) for name, ok in self._checks]


def _witness_valid(var, act, witness):
    k, p1, p2 = witness
    moved = var.values[act.perm[k]]
    return var.values[p1] == var.values[p2] and moved[p1] != moved[p2]


def dihedral_rung(n, fiducial, labels, offset, tol):
    """Group, actions, orbits, rotation representation, frame, variables
    and covariance for the dihedral group of order 2n (n even)."""
    frame_tol = FRAME_TOL if tol is None else tol
    irr_tol = IRREDUCIBLE_TOL if tol is None else tol
    cov_tol = COVARIANCE_TOL if tol is None else tol
    g = sq.groups.make_named_group(f"dihedral:{n}")
    vertex = sq.groups.dihedral_vertex_action(g)
    left = sq.groups.left_translation_action(g)
    blocks = sq.groups.orbits(left)
    rep = sq.coherent.dihedral_rotation_rep(g)
    irr, cdim = sq.coherent.is_irreducible(rep, irr_tol)
    cs = sq.coherent.make_coherent(rep, vertex, 0, fiducial)
    frame = sq.coherent.frame_operator(cs)

    parity = sq.variables.variable_from_point_labels(
        [labels[x % 2] for x in range(n)])
    parity_ok, _ = sq.variables.is_permissible(parity, vertex)
    induced = sq.variables.induce_group(parity, vertex)
    half = sq.variables.variable_from_point_labels(
        [1.0 if (x - offset) % n < n // 2 else 0.0 for x in range(n)])
    half_ok, witness = sq.variables.is_permissible(half, vertex)
    half_max = sq.variables.maximal_permissible_subgroup(half, vertex)

    bundle = sq.quantize.build_operator(
        np.eye(2, dtype=np.complex128), 1.0, list(parity.value_labels),
        source_variable=parity)
    value_rep = sq.coherent.permutation_rep(induced.value_action)
    elements = sq.variables.maximal_permissible_subgroup(parity, vertex)
    worst = max(
        sq.quantize.covariance_check(bundle, value_rep, h, parity, vertex).distance
        for h in elements
    )
    return [
        ("group_order", g.order == 2 * n),
        ("left_translation_single_orbit", len(blocks) == 1 and len(blocks[0]) == 2 * n),
        ("rotation_rep_irreducible", bool(irr) and cdim == 1),
        ("frame_scalar_n", abs(frame.lam - n) <= frame_tol * n),
        ("parity_permissible", bool(parity_ok)),
        ("parity_image_order_2", induced.image_group.order == 2),
        ("parity_kernel_order_n", len(induced.kernel) == n),
        ("half_block_not_permissible",
         (not half_ok) and witness is not None and bool(_witness_valid(half, vertex, witness))),
        ("half_block_maximal_subgroup_order_4", len(half_max) == 4),
        ("parity_permissible_elements_all", len(elements) == 2 * n),
        ("covariance_all_permissible_elements", worst <= cov_tol),
    ]


def binary_tetrahedral_rung(fiducial, tol):
    """Spin-1/2 coherent frame of the binary tetrahedral group, then its
    (reducible) left-regular representation."""
    frame_tol = FRAME_TOL if tol is None else tol
    irr_tol = IRREDUCIBLE_TOL if tol is None else tol
    g = sq.groups.make_named_group("binary_tetrahedral")
    rep = sq.coherent.binary_tetrahedral_spin_rep(g)
    act = sq.groups.left_translation_action(g)
    cs = sq.coherent.make_coherent(rep, act, g.identity, fiducial)
    frame = sq.coherent.frame_operator(cs)
    regular = sq.coherent.left_regular_rep(g)
    irr, cdim = sq.coherent.is_irreducible(regular, irr_tol)
    return [
        ("group_order_24", g.order == 24),
        ("frame_scalar_12", abs(frame.lam - 12.0) <= frame_tol * 12.0),
        ("left_regular_reducible", not irr),
        ("left_regular_commutant_24", cdim == 24),
    ]


def build_workload(name, seed, workdir, tolerance=None, bottom_only=False):
    """The rungs of one workload, smallest first, from the seed alone.

    ``bottom_only`` keeps the smallest rung of each kind. ``tolerance``
    replaces every check tolerance (the CLI's blanket ``--tolerance``).
    """
    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(name)])
    rungs = []
    if name == "phase-ladder":
        for n in PHASE_N[:1] if bottom_only else PHASE_N:
            c, d = (int(x) for x in rng.integers(1, n, size=2))
            config = {"scenario": "phase", "params": {"n": n, "c": c, "d": d},
                      "seed": int(rng.integers(2**31))}
            rungs.append(CliRung(f"phase-n{n}", config, workdir, tolerance))
    elif name == "spin-ladder":
        for j in SPIN_J[:1] if bottom_only else SPIN_J:
            direction = [float(x) for x in _unit_vector(rng, 3)]
            config = {"scenario": "spin",
                      "params": {"j": j, "direction": direction, "reduce": True},
                      "seed": int(rng.integers(2**31))}
            rungs.append(CliRung(f"spin-j{j:g}", config, workdir, tolerance))
    elif name == "group-ladder":
        for n in DIHEDRAL_N[:1] if bottom_only else DIHEDRAL_N:
            fiducial = _unit_vector(rng, 2, complex_=True)
            labels = tuple(float(x) for x in rng.choice(100, size=2, replace=False))
            offset = int(rng.integers(n))
            rungs.append(LibraryRung(f"dihedral-{n}", dihedral_rung,
                                     n, fiducial, labels, offset, tolerance))
        rungs.append(LibraryRung("binary-tetrahedral", binary_tetrahedral_rung,
                                 _unit_vector(rng, 2, complex_=True), tolerance))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return rungs
