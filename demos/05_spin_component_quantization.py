#!/usr/bin/env python3
"""Walkthrough: spin components, rotations, and reduction to an orbit.

The component of a spin along any unit direction has the ladder spectrum
-j, ..., j. A half turn about a perpendicular axis negates the component and
therefore permutes its eigenvalues; the eigenvalue set splits into orbits of
that permutation, and reducing the value set to one orbit is exactly the
quantized model.
"""

import numpy as np

from symquant import (
    conjugation_covariance,
    eigen_orbit_partition,
    maximality_check,
    model_reduce,
    spectrum_permutations,
    spin_component_operator,
    spin_generators,
    spin_rotation,
)
from symquant.quantize import NotAnOrbitError
from symquant.spin import perpendicular_unit

for j in (0.5, 1.0, 1.5):
    a = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    bundle = spin_component_operator(j, a)
    print(f"== spin {j}, direction {np.round(a, 3)} ==")
    print("eigenvalues:", np.round(bundle.eigenvalues, 9),
          " maximal:", maximality_check(bundle))

    flips = spectrum_permutations(bundle.eigenvalues, [lambda u: u, lambda u: -u])
    blocks = eigen_orbit_partition(bundle, flips)
    orbits = [bundle.eigenvalues[list(b)].tolist() for b in blocks]
    print("orbits under the sign flip:",
          [tuple(round(u, 9) for u in o) for o in orbits],
          " single orbit:", len(blocks) == 1)

    U = spin_rotation(j, perpendicular_unit(a), np.pi)
    d = bundle.matrix.shape[0]
    cov = conjugation_covariance(bundle, U, np.arange(d - 1, -1, -1))
    # the tolerance the spin report states: 1e-9 relative to the component
    tol = 1e-9 * max(1.0, float(np.linalg.norm(bundle.matrix)))
    print("half-turn conjugation matches label reversal:", cov.distance <= tol,
          f"(distance {cov.distance:.2e}, tolerance {tol:.1e})")

    target = orbits[0]
    reduced = model_reduce(bundle.eigenvalues, flips, target)
    print("reduced variable labels:",
          tuple(round(u, 9) for u in reduced.value_labels))
    try:
        model_reduce(bundle.eigenvalues, flips, [float(bundle.eigenvalues[0])])
    except NotAnOrbitError as err:
        print("reducing to a non-orbit is rejected:", err)
    print()

print("== rotations form a (projective) one-parameter family ==")
_, _, Jz = spin_generators(0.5)
print("spin 1/2, full turn:  exp(-i 2pi Jz) =\n",
      np.round(spin_rotation(0.5, [0, 0, 1], 2 * np.pi).real, 12))
print("spin 1/2, double turn = identity:",
      bool(np.allclose(spin_rotation(0.5, [0, 0, 1], 4 * np.pi), np.eye(2))))
