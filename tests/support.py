"""Reference constructions shared by the tests."""

import numpy as np

from amwave.fields import SolutionFamily, random_family


def numeric_lift(v, dim: int) -> np.ndarray:
    """Components, shape (..., 3, d, d), of the operator vector v (x) identity
    for each real 3-vector in v (shape (..., 3)): the dense operands that
    ``algebra.real_cross`` and ``algebra.real_dot`` stand for."""
    return np.einsum("...i,ab->...iab", np.asarray(v, dtype=complex), np.eye(dim))


def diagonal_family(gens, rng, **kw) -> SolutionFamily:
    """A random family whose only generator term is along the third
    generator, which is diagonal in every built-in set (S_z, lambda_3).
    Its tau components are then diagonal matrices, whose products commute
    bit for bit, so tau x tau, and with it the second harmonic of B, is an
    exact zero."""
    fam = random_family(gens, rng, **kw)
    R = [fam.R[0]] + [np.zeros(3)] * (gens.n_coeffs - 1)
    R[3] = fam.R[3]
    return SolutionFamily(ctx=fam.ctx, R=tuple(R))
