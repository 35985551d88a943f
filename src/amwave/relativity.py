"""Field-strength tensors, axis boosts, boosted-frame residuals, and
constant-gauge conjugation.

A boost is its (4, 4) matrix C, a plain read-only array from
``boost_matrix``.  Index bookkeeping follows the numeric convention that
contravariant four-vectors and both tensor slots transform with C (C
is symmetric for an axis boost, so no transposes hide anywhere); indices
are lowered with the diagonal metric.  A plane wave stays a plane wave
under a boost: the per-harmonic tensor amplitudes transform with C on
both indices and the wave four-vector with C once, which makes the
boosted-frame equation check exact termwise algebra rather than a grid
computation.
"""

from __future__ import annotations

import numpy as np

from .algebra import diag, frobenius_norms, readonly, square, sup_norms
from .fields import HarmonicField, SolutionFamily, WaveContext, build_fields

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

BOOST_AXES = {"x": 0, "y": 1, "z": 2}


class SuperluminalBoost(ValueError):
    """|v| >= c requested."""


class NonUnitary(ValueError):
    """Gauge conjugation with a matrix that is not unitary."""


def boost_axis(axis: int | str) -> int:
    """The coordinate axis 0, 1 or 2 named by ``axis``: 'x', 'y', 'z' or
    an int 0, 1, 2; a bool or a float is no axis."""
    if isinstance(axis, str):
        axis = BOOST_AXES.get(axis, axis)
    if (isinstance(axis, bool) or not isinstance(axis, (int, np.integer))
            or axis not in (0, 1, 2)):
        raise ValueError(f"axis must be 0, 1, 2 (or 'x', 'y', 'z'), got {axis!r}")
    return int(axis)


def boost_matrix(velocity: float, c: float = 1.0, axis: int | str = 2) -> np.ndarray:
    """The (4, 4) matrix C of the boost with speed ``velocity`` along a
    coordinate axis (``boost_axis``), read-only: gamma at (0, 0) and
    (i, i) and -gamma beta at (0, i) and (i, 0), for i = 1 + axis."""
    i = 1 + boost_axis(axis)
    beta = velocity / c
    if not abs(beta) < 1.0:
        raise SuperluminalBoost(f"|v| = {abs(velocity)} >= c = {c}")
    gamma = 1.0 / np.sqrt(1.0 - beta * beta)
    m = np.eye(4)
    m[0, 0] = m[i, i] = gamma
    m[0, i] = m[i, 0] = -gamma * beta
    return readonly(m)


def assemble_tensor(b: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The contravariant field-strength tensor, a read-only (..., 4, 4, d, d)
    array, from magnetic and electric amplitude components, each of shape
    (..., 3, d, d); leading axes (a trial axis) carry through.

    Layout: F^{i0} = E_i and (F^{32}, F^{13}, F^{21}) = B.
    """
    if b.shape != e.shape:
        raise ValueError("field amplitudes must share dimension")
    f = np.zeros(b.shape[:-3] + (4, 4) + b.shape[-2:], dtype=complex)
    ex, ey, ez = np.moveaxis(e, -3, 0)
    bx, by, bz = np.moveaxis(b, -3, 0)
    f[..., 1, 0, :, :], f[..., 2, 0, :, :], f[..., 3, 0, :, :] = ex, ey, ez
    f[..., 0, 1, :, :], f[..., 0, 2, :, :], f[..., 0, 3, :, :] = -ex, -ey, -ez
    f[..., 3, 2, :, :], f[..., 1, 3, :, :], f[..., 2, 1, :, :] = bx, by, bz
    f[..., 2, 3, :, :], f[..., 3, 1, :, :], f[..., 1, 2, :, :] = -bx, -by, -bz
    return readonly(f)


def boost_tensor(f: np.ndarray, boost: np.ndarray) -> np.ndarray:
    """F'^{mu nu} = C_mu_alpha C_nu_beta F^{alpha beta} for the boost
    matrix C, read-only (..., 4, 4, d, d)."""
    return readonly(np.einsum("ma,nb,...abij->...mnij", boost, boost, f))


def boost_wavevector(kmu: np.ndarray, boost: np.ndarray) -> np.ndarray:
    """Apply the boost matrix to a contravariant four-vector (omega/c, k),
    or to each of a (..., 4) stack of them."""
    kmu = np.asarray(kmu, dtype=float)
    return (boost @ kmu[..., None])[..., 0]


def null_defect(kmu: np.ndarray, c: float = 1.0):
    """|omega^2 - c^2 |k|^2| / omega^2 for a wave four-vector, or for each
    of a (..., 4) stack of them."""
    kmu = np.asarray(kmu, dtype=float)
    w2 = square(c * kmu[..., 0])
    k2 = (kmu[..., None, 1:] @ kmu[..., 1:, None])[..., 0, 0]
    return abs(w2 - c * c * k2) / w2


def harmonic_tensors(fam: SolutionFamily) -> list[tuple[int, np.ndarray]]:
    """Per-harmonic field-strength amplitudes of a solution family, as
    (order, (4, 4, d, d) tensor) pairs; on a stacked family each tensor is
    (T, 4, 4, d, d), zero for a trial that holds no amplitude of that
    order."""
    b, e = build_fields(fam)
    return [(m, assemble_tensor(b.amplitude(m), e.amplitude(m)))
            for m in sorted(set(b.orders) | set(e.orders))]


def tensor_equation_defects(tensors, kmu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sup norms of the first-form equations on per-harmonic amplitudes.

    For a harmonic of order m the derivative acts as i*m*u with
    u = (-omega/c, k), so both the divergence equation and the cyclic
    (Bianchi-type) sum become finite contractions.  The cyclic sum is taken
    on F_mu_nu = g F^{..} g with the diagonal metric.  ``kmu`` is (..., 4)
    and each tensor (..., 4, 4, d, d); the defects are one per trial, and
    the cyclic sum is formed one first index at a time, so its temporary
    stays the size of a tensor.
    """
    u = np.asarray(kmu, dtype=float) * np.array([-1.0, 1.0, 1.0, 1.0])
    batch = u.shape[:-1]
    g = np.diag(METRIC)
    div_defect = np.zeros(batch)
    bianchi_defect = np.zeros(batch)
    for m, f in tensors:
        dive = 1j * m * np.einsum("...m,...mnab->...nab", u, f)
        div_defect = np.maximum(div_defect, sup_norms(dive, batch))
        low = np.einsum("m,n,...mnab->...mnab", g, g, f)
        for mu in range(4):
            cyc = abs(m) * (np.einsum("...,...ngab->...ngab", u[..., mu], low)
                            + np.einsum("...n,...gab->...ngab", u, low[..., mu, :, :])
                            + np.einsum("...g,...nab->...ngab", u, low[..., mu, :, :, :]))
            bianchi_defect = np.maximum(bianchi_defect, sup_norms(cyc, batch))
    return div_defect, bianchi_defect


def _boosted_items(ctx: WaveContext, tensors, boost: np.ndarray, tol: float):
    """(item, residual per trial, tolerance) for the tensor equations of the
    per-harmonic tensors and the wave four-vectors of ``ctx``, seen in the
    frame of the boost matrix ``boost``."""
    kmu = np.concatenate([np.expand_dims(ctx.omega / ctx.c, -1), ctx.k], axis=-1)
    kmu_prime = boost_wavevector(kmu, boost)
    batch = kmu_prime.shape[:-1]
    boosted = [(m, boost_tensor(f, boost)) for m, f in tensors]
    top = np.zeros(batch)  # stays 0 with no harmonics, when R = 0
    antisymmetry = np.zeros(batch)
    for _, f in boosted:
        top = np.maximum(top, sup_norms(f, batch))
        antisymmetry = np.maximum(antisymmetry, sup_norms(f + f.swapaxes(-4, -3), batch))
    scale = np.maximum(1.0, top * np.abs(kmu_prime).max(axis=-1))
    div_defect, bianchi_defect = tensor_equation_defects(boosted, kmu_prime)
    return [("tensor_divergence", div_defect / scale, tol),
            ("bianchi_cycle", bianchi_defect / scale, tol),
            ("null_wavevector", null_defect(kmu_prime, ctx.c), 1e-12),
            ("tensor_antisymmetry", antisymmetry / scale, 1e-12)]


def boost_columns(fams: SolutionFamily, speeds, axis: int | str = 2,
                  tol: float = 1e-10) -> list[tuple[str, np.ndarray, float]]:
    """The boosted-frame checks of a family, or of every trial of a stacked
    family, at several boost speeds.

    The fields and per-harmonic tensors are built once and boosted with
    velocity s*c for each speed s (in units of c) in ``speeds``.  Returns
    (name, residual per trial, tolerance) columns named
    ``v=<s:+>c/<item>`` (the shortest repr of s): the divergence and cyclic equations held to
    ``tol``, the null wave four-vector and the tensor antisymmetry to
    1e-12.  Raises SuperluminalBoost for |s| >= 1.
    """
    ctx = fams.ctx
    tensors = harmonic_tensors(fams)
    return [(f"v={s:+}c/{name}", r, item_tol) for s in speeds
            for name, r, item_tol in _boosted_items(
                ctx, tensors, boost_matrix(s * ctx.c, c=ctx.c, axis=axis), tol)]


def boosted_residuals(fam: SolutionFamily, velocity: float,
                      axis: int | str = 2, tol: float = 1e-10):
    """Check the zero-coupling tensor equations in a boosted frame.

    Transforms every per-harmonic tensor amplitude and the wave four-vector,
    then re-evaluates the divergence and cyclic equations with the boosted
    phase derivative: the (name, residual, tolerance) columns of
    ``boost_columns`` for one family at one velocity, unprefixed.  Raises
    SuperluminalBoost for |v| >= c.
    """
    boost = boost_matrix(velocity, c=fam.ctx.c, axis=axis)
    return _boosted_items(fam.ctx, harmonic_tensors(fam), boost, tol)


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
    (4, 4, d, d) field-strength tensor.  For a harmonic field on a stack of
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
    return v @ diag(np.exp(1j * angle * w)) @ v.conj().swapaxes(-1, -2)
