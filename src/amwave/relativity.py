"""Axis boosts, the boosted-frame field equations, and constant-gauge
conjugation.

A boost is its (4, 4) matrix C, a plain read-only array from
``boost_matrix``; contravariant four-vectors transform with C.  A plane
wave stays a plane wave under a boost: each harmonic's closed-form fields
transform by the standard field transformation and the wave four-vector
with C, so the boosted-frame check is the ``maxwell`` row of
``residuals.EQUATIONS`` evaluated on the boosted wave, exact termwise
algebra rather than a grid computation.  The boost and gauge suites'
columns are built here, ``boost_columns`` and ``gauge_columns``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .algebra import InputError, by_matmul, conjugate, diag, frobenius_norms, readonly
from .fields import (
    HarmonicField,
    SolutionFamily,
    WaveContext,
    build_fields,
    build_potentials,
    ncross,
    stack_fields,
)
from .residuals import Terms, equation_columns, perpendicular_part, relative

BOOST_AXES = {"x": 0, "y": 1, "z": 2}


class SuperluminalBoost(InputError):
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
        raise InputError(f"axis must be 0, 1, 2 (or 'x', 'y', 'z'), got {axis!r}")
    return int(axis)


def boost_matrix(velocity, c: float = 1.0, axis: int | str = 2) -> np.ndarray:
    """The (4, 4) matrix C of the boost with speed ``velocity`` along a
    coordinate axis (``boost_axis``), read-only: gamma at (0, 0) and
    (i, i) and -gamma beta at (0, i) and (i, 0), for i = 1 + axis.  An
    array of velocities gives the (..., 4, 4) stack of their matrices."""
    i = 1 + boost_axis(axis)
    beta = np.asarray(velocity, dtype=float) / c
    if not (abs(beta) < 1.0).all():
        raise SuperluminalBoost(f"|v| = {np.max(np.abs(velocity))} >= c = {c}")
    gamma = 1.0 / np.sqrt(1.0 - beta * beta)
    m = np.tile(np.eye(4), beta.shape + (1, 1))
    m[..., 0, 0] = m[..., i, i] = gamma
    m[..., 0, i] = m[..., i, 0] = -gamma * beta
    return readonly(m)


def boost_wavevector(kmu: np.ndarray, boost: np.ndarray) -> np.ndarray:
    """Apply the boost matrix to a contravariant four-vector (omega/c, k),
    or to each of a (..., 4) stack of them."""
    kmu = np.asarray(kmu, dtype=float)
    return (boost @ kmu[..., None])[..., 0]


def boosted_fields(b: HarmonicField, e: HarmonicField, velocity,
                   axis: int | str = 2) -> tuple[HarmonicField, HarmonicField]:
    """The fields b, e of a wave seen from a frame moving with ``velocity``
    along a coordinate axis (``boost_axis``), on the boosted wave; on a
    stack of waves ``velocity`` is one speed, or one per trial.

    Each harmonic transforms by the standard field transformation (Jackson,
    *Classical Electrodynamics*, eq. 11.149), with n the axis and _perp
    the part across it:

        E' = E + (gamma - 1) E_perp + gamma beta n x B,
        B' = B + (gamma - 1) B_perp - gamma beta n x E.

    The results live on the ``WaveContext`` of the boosted wave vector, the
    spatial part of C (|k|, k).  Raises SuperluminalBoost for |v| >= c, and
    NonFiniteValue if the boosted omega = c |k'| overflows.
    """
    ctx, i = b.ctx, boost_axis(axis)
    boost = boost_matrix(velocity, c=ctx.c, axis=i)
    gamma, gamma_beta, n = boost[..., 0, 0], -boost[..., 0, 1 + i], np.eye(3)[i]
    bp = b + (gamma - 1.0) * perpendicular_part(b, n) - gamma_beta * ncross(n, e)
    ep = e + (gamma - 1.0) * perpendicular_part(e, n) + gamma_beta * ncross(n, b)
    kmu = np.concatenate([np.expand_dims(ctx.knorm, -1), ctx.k], axis=-1)
    wave = WaveContext(generators=ctx.generators, k=boost_wavevector(kmu, boost)[..., 1:],
                       c=ctx.c, g=ctx.g)
    return replace(bp, ctx=wave), replace(ep, ctx=wave)


def _frames(fams: SolutionFamily, velocities, axis):
    """The ``maxwell`` columns of a family, or a stack of T, at each of S
    velocities, one list per velocity: its fields, built once and tiled
    over the velocities, are boosted and checked as one stack of S T."""
    ctx, s = fams.ctx, len(velocities)
    wave = WaveContext(generators=ctx.generators, k=np.tile(ctx.k, (s, 1)), c=ctx.c, g=ctx.g)
    b, e = (stack_fields(wave, [f] * s) for f in build_fields(fams))
    cols = equation_columns("maxwell", Terms.of_fields(*boosted_fields(
        b, e, np.repeat(velocities, ctx.k.size // 3), axis)))

    def frame(x, j):  # the values of velocity j's block of the stack
        return np.reshape(x, (s,) + ctx.batch_shape)[j]
    return [[(name, frame(norm, j), frame(scale, j)) for name, norm, scale in cols]
            for j in range(s)]


def boost_columns(fams: SolutionFamily, speeds, axis: int | str = 2):
    """The ``maxwell`` row of a family, or of every trial of a stack, in the
    frame moving with velocity s*c for each speed s (in units of c), all
    as one stack: (name, norm, scale) columns, one value per trial, named
    ``v=<s:+>c/<item>``, with the shortest repr of s.  Raises
    SuperluminalBoost for |s| >= 1."""
    return [(f"v={s:+}c/{name}", *col) for s, cols in zip(
        speeds, _frames(fams, [s * fams.ctx.c for s in speeds], axis)) for name, *col in cols]


def boosted_residuals(fam: SolutionFamily, velocity: float, axis: int | str = 2):
    """``boost_columns`` for one family at one ``velocity``, unprefixed.
    Raises SuperluminalBoost for |v| >= c."""
    return _frames(fam, [velocity], axis)[0]


# --- constant gauge conjugation ---------------------------------------------------

def _check_unitary(um: np.ndarray, ud: np.ndarray):
    """Raises NonUnitary unless every matrix of um (one, or a stack) times
    its adjoint ud is the identity to 1e-12."""
    defect = frobenius_norms(um @ ud - np.eye(um.shape[-1]))
    if not np.all(defect <= 1e-12):
        raise NonUnitary(f"conjugation matrix is not unitary "
                         f"(defect {float(np.max(defect)):.2e})")


def gauge_conjugate(f: HarmonicField, u: np.ndarray) -> HarmonicField:
    """Conjugate every operator amplitude of a harmonic field by a constant
    unitary, X -> U X U+; on a stack of waves, u may also be a (T, d, d)
    stack, one unitary per trial.  Frobenius norms are unitarily invariant,
    so residual norms computed before and after conjugation agree.
    """
    ud = u.conj().swapaxes(-1, -2)
    _check_unitary(u, ud)
    return f.with_amps(conjugate(u, f.amps, f.ctx.batch_shape) if f.is_vector
                       else by_matmul(lambda x: u @ x @ ud, f.ctx.batch_shape, f.amps))


def unitary_exponential(hermitian: np.ndarray) -> np.ndarray:
    """exp(iH) for a Hermitian (d, d) array H, or for a (T, d, d) stack of
    them the stack of their exponentials, via spectral decomposition."""
    h = hermitian
    hd = h.conj().swapaxes(-1, -2)
    if np.any(frobenius_norms(h - hd) > 1e-12 * np.maximum(1.0, frobenius_norms(h))):
        raise ValueError("generator of a unitary must be Hermitian")
    w, v = np.linalg.eigh(h)
    return v @ diag(np.exp(1j * w)) @ v.conj().swapaxes(-1, -2)


def gauge_columns(fams: SolutionFamily, rngs):
    """The gauge suite's columns for a stack of T families: full-equation
    residuals before and after a random constant gauge rotation
    U = exp(iH), H = sum_l c_l G_l with each trial's c_l drawn from its
    generator in ``rngs`` (right after its family), and the wca conditions
    on the rotated wave, all on one ``Terms`` of the T original and the T
    rotated waves."""
    ctx, gens, n = fams.ctx, fams.ctx.generators, len(rngs)
    coeffs = np.array([rng.uniform(-1.0, 1.0, len(gens.generators)) for rng in rngs])
    herm = np.zeros((gens.dim, gens.dim), dtype=complex)
    for c, g in zip(coeffs.T, gens.generators):
        herm = herm + g * c[:, None, None]
    u = unitary_exponential(herm)
    wave = WaveContext(generators=gens, k=np.tile(ctx.k, (2, 1)), c=ctx.c, g=ctx.g)
    both = Terms(*(stack_fields(wave, (f, gauge_conjugate(f, u)))
                   for f in build_potentials(fams)), wave)
    # the drift compares two residuals, so it is absolute
    full = [relative(norm, scale) for _, norm, scale in equation_columns("full", both)]
    drift = np.max([np.abs(r[:n] - r[n:]) for r in full], axis=0)
    # the rotated half's worst wca norm, scaled as the unrotated potentials
    # are: a division by a positive scale keeps the order of what it divides
    wca = equation_columns("wca", both)
    return [("residual_norm_invariance", drift, 1.0),
            ("conjugated_wca", np.max([norm[n:] for _, norm, _ in wca], axis=0), wca[0][2][:n])]
