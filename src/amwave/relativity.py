"""Field-strength tensors, axis boosts, boosted-frame residuals, and
constant-gauge conjugation.

Index bookkeeping follows the numeric convention that contravariant
four-vectors and both tensor slots transform with the boost matrix C,
while the covariant transformation uses its explicit inverse (C itself is
symmetric for an axis boost, so no transposes hide anywhere).  A plane
wave stays a plane wave under a boost: the per-harmonic tensor amplitudes
transform with C on both indices and the wave four-vector with C once,
which makes the boosted-frame equation check exact termwise algebra
rather than a grid computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import frobenius_norms, readonly
from .fields import HarmonicField, SolutionFamily, build_fields
from .residuals import ResidualItem, ResidualReport

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

BOOST_AXES = {"x": 0, "y": 1, "z": 2}


class SuperluminalBoost(ValueError):
    """|v| >= c requested."""


class NonUnitary(ValueError):
    """Gauge conjugation with a matrix that is not unitary."""


@dataclass(frozen=True, eq=False)
class BoostMatrix:
    """Lorentz boost along one coordinate axis with its explicit inverse."""

    velocity: float
    c: float
    axis: int
    matrix: np.ndarray
    inverse: np.ndarray


def boost_matrix(velocity: float, c: float = 1.0, axis: int | str = 2) -> BoostMatrix:
    """Boost with speed ``velocity`` along a coordinate axis.

    The canonical matrix is written for the z axis; other axes are obtained
    by permuting the spatial coordinates.  ``axis`` is 'x', 'y', 'z' or an
    int 0, 1, 2; a bool or a float is no axis.
    """
    if isinstance(axis, str):
        axis = BOOST_AXES.get(axis, axis)
    if (isinstance(axis, bool) or not isinstance(axis, (int, np.integer))
            or axis not in (0, 1, 2)):
        raise ValueError(f"axis must be 0, 1, 2 (or 'x', 'y', 'z'), got {axis!r}")
    beta = velocity / c
    if not abs(beta) < 1.0:
        raise SuperluminalBoost(f"|v| = {abs(velocity)} >= c = {c}")
    gamma = 1.0 / np.sqrt(1.0 - beta * beta)

    def axis_boost(b):
        m = np.eye(4)
        m[0, 0] = m[3, 3] = gamma
        m[0, 3] = m[3, 0] = -gamma * b
        return m

    perm = np.eye(4)
    if axis != 2:
        # swap the boosted spatial coordinate with z
        i, j = 1 + axis, 3
        perm[[i, j]] = perm[[j, i]]
    mat = perm @ axis_boost(beta) @ perm.T
    inv = perm @ axis_boost(-beta) @ perm.T
    return BoostMatrix(velocity=velocity, c=c, axis=axis, matrix=mat, inverse=inv)


def assemble_tensor(b: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The contravariant field-strength tensor, a read-only (4, 4, d, d)
    array, from magnetic and electric amplitude components, each of shape
    (3, d, d).

    Layout: F^{i0} = E_i and (F^{32}, F^{13}, F^{21}) = B.
    """
    if b.shape != e.shape:
        raise ValueError("field amplitudes must share dimension")
    f = np.zeros((4, 4) + b.shape[1:], dtype=complex)
    ex, ey, ez = e
    bx, by, bz = b
    f[1, 0], f[2, 0], f[3, 0] = ex, ey, ez
    f[0, 1], f[0, 2], f[0, 3] = -ex, -ey, -ez
    f[3, 2], f[1, 3], f[2, 1] = bx, by, bz
    f[2, 3], f[3, 1], f[1, 2] = -bx, -by, -bz
    return readonly(f)


def boost_tensor(f: np.ndarray, boost: BoostMatrix) -> np.ndarray:
    """F'^{mu nu} = C_mu_alpha C_nu_beta F^{alpha beta}, read-only (4, 4, d, d)."""
    c = boost.matrix
    return readonly(np.einsum("ma,nb,abij->mnij", c, c, f))


def boost_wavevector(kmu: np.ndarray, boost: BoostMatrix) -> np.ndarray:
    """Apply the boost to a contravariant four-vector (omega/c, k)."""
    return boost.matrix @ np.asarray(kmu, dtype=float)


def null_defect(kmu: np.ndarray, c: float = 1.0) -> float:
    """|omega^2 - c^2 |k|^2| / omega^2 for a wave four-vector."""
    kmu = np.asarray(kmu, dtype=float)
    w2 = (c * kmu[0]) ** 2
    return abs(w2 - c * c * float(kmu[1:] @ kmu[1:])) / w2


def harmonic_tensors(fam: SolutionFamily) -> list[tuple[int, np.ndarray]]:
    """Per-harmonic field-strength amplitudes of a solution family, as
    (order, (4, 4, d, d) tensor) pairs."""
    b, e = build_fields(fam)
    return [(m, assemble_tensor(b.raw_amplitude(m), e.raw_amplitude(m)))
            for m in sorted(set(b.orders) | set(e.orders))]


def tensor_equation_defects(tensors, kmu: np.ndarray) -> tuple[float, float]:
    """Sup norms of the first-form equations on per-harmonic amplitudes.

    For a harmonic of order m the derivative acts as i*m*u with
    u = (-omega/c, k), so both the divergence equation and the cyclic
    (Bianchi-type) sum become finite contractions.  The cyclic sum is taken
    on F_mu_nu = g F^{..} g with the diagonal metric.
    """
    u = np.asarray(kmu, dtype=float) * np.array([-1.0, 1.0, 1.0, 1.0])
    g = np.diag(METRIC)
    div_defect = 0.0
    bianchi_defect = 0.0
    for m, f in tensors:
        dive = 1j * m * np.einsum("m,mnab->nab", u, f)
        div_defect = max(div_defect, float(frobenius_norms(dive).max()))
        low = np.einsum("m,n,mnab->mnab", g, g, f)
        cyc = abs(m) * (np.einsum("m,ngab->mngab", u, low)
                        + np.einsum("n,gmab->mngab", u, low)
                        + np.einsum("g,mnab->mngab", u, low))
        bianchi_defect = max(bianchi_defect, float(frobenius_norms(cyc).max()))
    return div_defect, bianchi_defect


def boosted_residuals(fam: SolutionFamily, velocity: float,
                      axis: int | str = 2, tol: float = 1e-10) -> ResidualReport:
    """Check the zero-coupling tensor equations in a boosted frame.

    Transforms every per-harmonic tensor amplitude and the wave four-vector,
    then re-evaluates the divergence and cyclic equations with the boosted
    phase derivative.  Raises SuperluminalBoost for |v| >= c.
    """
    ctx = fam.ctx
    boost = boost_matrix(velocity, c=ctx.c, axis=axis)
    kmu = np.concatenate([[ctx.omega / ctx.c], ctx.k])
    kmu_prime = boost_wavevector(kmu, boost)
    tensors = harmonic_tensors(fam)
    boosted = [(m, boost_tensor(f, boost)) for m, f in tensors]
    # no harmonics when R = 0
    top = max((float(frobenius_norms(f).max()) for _, f in boosted), default=0.0)
    scale = max(1.0, top * float(np.abs(kmu_prime).max()))
    div_defect, bianchi_defect = tensor_equation_defects(boosted, kmu_prime)
    items = (
        ResidualItem("tensor_divergence", div_defect / scale, tol),
        ResidualItem("bianchi_cycle", bianchi_defect / scale, tol),
        ResidualItem("null_wavevector", null_defect(kmu_prime, ctx.c), 1e-12),
        ResidualItem("tensor_antisymmetry",
                     max((float(frobenius_norms(f + f.swapaxes(0, 1)).max())
                          for _, f in boosted), default=0.0) / scale, 1e-12),
    )
    return ResidualReport(f"boost v={velocity}", items)


# --- constant gauge conjugation ---------------------------------------------------

def _check_unitary(um: np.ndarray, ud: np.ndarray):
    """Raises NonUnitary unless every matrix of um (one, or a stack) times
    its adjoint ud is the identity to 1e-12."""
    defect = frobenius_norms(um @ ud - np.eye(um.shape[-1]))
    if not np.all(defect <= 1e-12):
        raise NonUnitary(f"conjugation matrix is not unitary "
                         f"(defect {float(np.max(defect)):.2e})")


def gauge_conjugate(obj, u: np.ndarray):
    """Conjugate every operator amplitude by a constant unitary, X -> U X U+.

    ``obj`` is a harmonic field or a raw (..., d, d) array, such as one
    operator, the (3, d, d) components of an operator vector or a
    (4, 4, d, d) field-strength tensor.  For a harmonic field on a batch of
    waves, u may also be a (T, d, d) stack, one unitary per trial.
    Frobenius norms are unitarily invariant, so residual norms computed
    before and after conjugation agree.
    """
    ud = u.conj().swapaxes(-1, -2)
    _check_unitary(u, ud)
    if isinstance(obj, HarmonicField):
        amps = (np.einsum("...ab,h...ibc,...cd->h...iad", u, obj.amps, ud) if obj.is_vector
                else u @ obj.amps @ ud)
        return obj.with_amps(amps)
    return u @ obj @ ud


def unitary_exponential(hermitian: np.ndarray, angle: float = 1.0) -> np.ndarray:
    """exp(i * angle * H) for a Hermitian (d, d) array, or for a (T, d, d)
    stack of them the stack of their exponentials, via spectral
    decomposition."""
    h = hermitian
    hd = h.conj().swapaxes(-1, -2)
    if np.any(frobenius_norms(h - hd) > 1e-12 * np.maximum(1.0, frobenius_norms(h))):
        raise ValueError("generator of a unitary must be Hermitian")
    w, v = np.linalg.eigh(h)
    diag = np.zeros(v.shape, dtype=complex)
    idx = np.arange(h.shape[-1])
    diag[..., idx, idx] = np.exp(1j * angle * w)
    return v @ diag @ v.conj().swapaxes(-1, -2)
