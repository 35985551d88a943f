"""Time-averaged energy flux of classical and operator-valued plane waves.

The flux is (c/4 pi) <Re E x Re B> averaged over one period.  "Re" of an
operator-valued analytic signal means the Hermitian part, which holds the
operator amplitudes fixed and takes the real part of the scalar phase
factors (the generators themselves are Hermitian, so e.g. the real part
of i*(k x tau) e^{i phi} is -(k x tau) sin(phi)).

For the generator-valued waves the closed form is

    S = (c/8 pi) [ (k x tau).(k x tau) - g^2 (tau x tau).(tau x tau) ] khat,

an operator along the propagation direction; the second block equals the
g^2 hbar^2 (eta.eta) form of the spin-set convention.  The quadrature
oracle integrates the instantaneous flux over one exact period with the
composite trapezoid rule, which is spectrally accurate for the periodic
integrand, and can split the integrand into the squared first-harmonic,
mixed, and squared second-harmonic blocks (the mixed block averages to
zero over a full period).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import OperatorMatrix, OperatorVector3, cross, dot
from .fields import HarmonicField, SolutionFamily, build_fields, field


class NonTransverseAmplitude(ValueError):
    """Classical wave amplitude with a longitudinal component."""


@dataclass(frozen=True, eq=False)
class FluxResult:
    """Flux direction (always khat here) and operator-valued magnitude.

    ``classical_magnitude`` is filled when the magnitude operator is a
    multiple of the identity, as in the g = 0 Abelian reduction.
    """

    direction: np.ndarray
    magnitude_operator: OperatorMatrix
    classical_magnitude: float | None = None

    @property
    def vector(self) -> OperatorVector3:
        return OperatorVector3(np.einsum(
            "i,ab->iab", self.direction, self.magnitude_operator.mat))


def _classical_part(op: OperatorMatrix) -> float | None:
    """Scalar s with op = s * identity, or None if off-identity content remains."""
    d = op.dim
    s = op.trace / d
    rest = OperatorMatrix(op.mat - s * np.eye(d))
    if rest.norm <= 1e-12 * max(1.0, op.norm) and abs(s.imag) <= 1e-12 * max(1.0, abs(s)):
        return float(s.real)
    return None


def em_flux(a01, ctx) -> FluxResult:
    """Flux (c/8 pi) k^2 |A01|^2 khat of a classical transverse plane wave."""
    a01 = np.asarray(a01, dtype=float)
    k, kn = ctx.k, ctx.knorm
    if abs(k @ a01) > 1e-12 * max(1.0, kn * np.linalg.norm(a01)):
        raise NonTransverseAmplitude("amplitude must satisfy k . A01 = 0")
    mag = ctx.c / (8.0 * np.pi) * kn ** 2 * float(a01 @ a01)
    return FluxResult(direction=ctx.khat,
                      magnitude_operator=mag * OperatorMatrix.identity(ctx.dim),
                      classical_magnitude=mag)


def amw_flux(fam: SolutionFamily) -> FluxResult:
    """Closed-form time-averaged flux of a generator-valued wave family."""
    ctx = fam.ctx
    tau = fam.tau
    kxt = cross(ctx.k, tau)
    txt = cross(tau, tau)
    op = (ctx.c / (8.0 * np.pi)) * (dot(kxt, kxt) - (ctx.g ** 2) * dot(txt, txt))
    return FluxResult(direction=ctx.khat, magnitude_operator=op,
                      classical_magnitude=_classical_part(op))


def real_part_at(f: HarmonicField, r, t: float) -> OperatorVector3:
    """Hermitian part of the field value: the physical oscillating wave."""
    return f.eval_at(r, t).hermitian_part()


def _instantaneous_flux(e: HarmonicField, b: HarmonicField,
                        r, t: float, c: float) -> np.ndarray:
    er = real_part_at(e, r, t)
    br = real_part_at(b, r, t)
    return (c / (4.0 * np.pi)) * cross(er, br).comps


def _average_flux(e: HarmonicField, b: HarmonicField, ctx, samples: int, r) -> np.ndarray:
    r = np.zeros(3) if r is None else np.asarray(r, dtype=float)
    ts = np.linspace(0.0, ctx.period, samples + 1)
    vals = np.stack([_instantaneous_flux(e, b, r, t, ctx.c) for t in ts])
    # trapezoid over one exact period: endpoints coincide, so this is the
    # plain mean of the first n points
    return vals[:-1].mean(axis=0)


def flux_quadrature(fam: SolutionFamily, samples: int = 10_000,
                    r=None) -> OperatorVector3:
    """Trapezoid time average of (c/4 pi) Re(E) x Re(B) over one period."""
    b, e = build_fields(fam)
    return OperatorVector3(_average_flux(e, b, fam.ctx, samples, r))


def harmonic_blocks(fam: SolutionFamily):
    """(E, B) of the family restricted to the first and the second harmonic."""
    b, e = build_fields(fam)
    return [tuple(field(fam.ctx, {m: f.raw_amplitude(m)}) for f in (e, b))
            for m in (1, 2)]


def flux_quadrature_blocks(fam: SolutionFamily, samples: int = 10_000,
                           r=None) -> dict[str, OperatorVector3]:
    """Quadrature average split into the three harmonic blocks.

    Keys: 'first' (squared first harmonic), 'mixed' (the order-g cross
    terms, which average to zero), 'second' (squared second harmonic),
    'total' (their sum).
    """
    (e1, b1), (e2, b2) = harmonic_blocks(fam)

    def avg(efld, bfld):
        return _average_flux(efld, bfld, fam.ctx, samples, r)

    first = avg(e1, b1)
    second = avg(e2, b2)
    mixed = avg(e1, b2) + avg(e2, b1)
    return {
        "first": OperatorVector3(first),
        "mixed": OperatorVector3(mixed),
        "second": OperatorVector3(second),
        "total": OperatorVector3(first + mixed + second),
    }
