"""Harmonic operator-valued plane-wave fields and their exact calculus.

A field here is a finite sum of harmonics

    F(r, t) = sum_m  amp_m * exp(i*m*(k.r - omega*t)),

with integer order m and operator-valued amplitude amp_m (a matrix for
scalar fields, a 3-vector of matrices for vector fields).  Because the
exp(i*m*phi) are linearly independent, equality of fields reduces to
per-order equality of amplitudes, and all differential operators act
termwise and exactly:

    curl -> i*m*(k x amp),  div -> i*m*(k.amp),  grad -> i*m*k*amp,
    d/dt -> -i*m*omega*amp.

Products of fields multiply amplitudes in the written order and add the
harmonic orders, which is what turns the nonlinear gauge-field equations
into finite per-order operator identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    GeneratorSet,
    OperatorMatrix,
    OperatorVector3,
    commutator,
    cross,
    dot,
    make_generators,
)

# Amplitudes this much smaller than the largest term are dropped when
# merging, so residual fields with no content normalize to the empty field.
MERGE_DROP = 1e-14


@dataclass(frozen=True, eq=False)
class WaveContext:
    """Wave vector, frequency, coupling and generator set for one wave."""

    generators: GeneratorSet
    k: np.ndarray
    omega: float | None = None
    c: float = 1.0
    g: float = 0.1

    def __post_init__(self):
        k = np.array(self.k, dtype=float)
        if k.shape != (3,):
            raise ValueError("k must be a real 3-vector")
        knorm = float(np.linalg.norm(k))
        if knorm <= 0.0:
            raise ValueError("|k| must be positive")
        if self.c <= 0.0:
            raise ValueError("c must be positive")
        omega = self.c * knorm if self.omega is None else float(self.omega)
        if abs(omega - self.c * knorm) > 1e-12 * omega:
            raise ValueError("dispersion omega = c*|k| violated")
        k.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "omega", omega)

    @property
    def knorm(self) -> float:
        return float(np.linalg.norm(self.k))

    @property
    def khat(self) -> np.ndarray:
        return self.k / self.knorm

    @property
    def dim(self) -> int:
        return self.generators.dim

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega


def _compatible(a: WaveContext, b: WaveContext) -> bool:
    return (a is b) or (
        np.array_equal(a.k, b.k)
        and a.omega == b.omega
        and a.c == b.c
        and a.g == b.g
        and a.dim == b.dim
    )


def _merge(pairs):
    acc: dict[int, object] = {}
    for m, amp in pairs:
        acc[m] = amp if m not in acc else acc[m] + amp
    if not acc:
        return ()
    top = max(amp.norm for amp in acc.values())
    cut = MERGE_DROP * top
    return tuple(sorted((m, amp) for m, amp in acc.items() if amp.norm > cut))


class _HarmonicField:
    """Shared term bookkeeping for scalar and vector harmonic fields."""

    _zero = None  # overridden: callable dim -> zero amplitude

    def __init__(self, ctx: WaveContext, terms):
        self.ctx = ctx
        self.terms = _merge(terms)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.terms)

    def amplitude(self, m: int):
        for order, amp in self.terms:
            if order == m:
                return amp
        return self._zero(self.ctx.dim)

    @property
    def norm(self) -> float:
        """Max over harmonics of the amplitude norm (termwise sup norm)."""
        return max((amp.norm for _, amp in self.terms), default=0.0)

    def _require(self, other):
        if type(other) is not type(self) or not _compatible(self.ctx, other.ctx):
            raise ValueError("fields must share a wave context")

    def __add__(self, other):
        self._require(other)
        return type(self)(self.ctx, self.terms + other.terms)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar: complex):
        return type(self)(self.ctx, tuple((m, amp * scalar) for m, amp in self.terms))

    __rmul__ = __mul__

    def phase(self, r, t: float) -> np.ndarray:
        k, w = self.ctx.k, self.ctx.omega
        return np.array([np.exp(1j * m * (k @ np.asarray(r, float) - w * t))
                         for m, _ in self.terms])


class HarmonicScalarField(_HarmonicField):
    _zero = staticmethod(OperatorMatrix.zero)

    def eval_at(self, r, t: float) -> OperatorMatrix:
        out = np.zeros((self.ctx.dim, self.ctx.dim), dtype=complex)
        for ph, (_, amp) in zip(self.phase(r, t), self.terms):
            out += ph * amp.mat
        return OperatorMatrix(out)


class HarmonicVectorField(_HarmonicField):
    _zero = staticmethod(OperatorVector3.zero)

    def eval_at(self, r, t: float) -> OperatorVector3:
        out = np.zeros((3, self.ctx.dim, self.ctx.dim), dtype=complex)
        for ph, (_, amp) in zip(self.phase(r, t), self.terms):
            out += ph * amp.comps
        return OperatorVector3(out)


def scalar_field(ctx: WaveContext, terms: Mapping[int, OperatorMatrix]) -> HarmonicScalarField:
    return HarmonicScalarField(ctx, tuple(terms.items()))


def vector_field(ctx: WaveContext, terms: Mapping[int, OperatorVector3]) -> HarmonicVectorField:
    return HarmonicVectorField(ctx, tuple(terms.items()))


# --- products (order preserving; harmonic orders add) ------------------------

def _product_terms(f: _HarmonicField, g: _HarmonicField, combine):
    for m1, a1 in f.terms:
        for m2, a2 in g.terms:
            yield m1 + m2, combine(a1, a2)


def comm_ss(f: HarmonicScalarField, g: HarmonicScalarField) -> HarmonicScalarField:
    """[f, g] for scalar fields."""
    f._require(g)
    return HarmonicScalarField(f.ctx, _product_terms(f, g, commutator))


def comm_sv(f: HarmonicScalarField, v: HarmonicVectorField) -> HarmonicVectorField:
    """[f, v] componentwise for a scalar and a vector field."""
    if not _compatible(f.ctx, v.ctx):
        raise ValueError("fields must share a wave context")
    def comb(a: OperatorMatrix, b: OperatorVector3) -> OperatorVector3:
        return OperatorVector3(np.einsum("ab,ibc->iac", a.mat, b.comps)
                               - np.einsum("iab,bc->iac", b.comps, a.mat))
    return HarmonicVectorField(f.ctx, _product_terms(f, v, comb))


def vdot(u: HarmonicVectorField, v: HarmonicVectorField) -> HarmonicScalarField:
    u._require(v)
    return HarmonicScalarField(u.ctx, _product_terms(u, v, dot))


def vcross(u: HarmonicVectorField, v: HarmonicVectorField) -> HarmonicVectorField:
    u._require(v)
    return HarmonicVectorField(u.ctx, _product_terms(u, v, cross))


def ndot(n: Sequence[float], v: HarmonicVectorField) -> HarmonicScalarField:
    """Dot of a constant numeric 3-vector with a vector field."""
    return HarmonicScalarField(
        v.ctx, tuple((m, dot(n, amp)) for m, amp in v.terms))


def ncross(n: Sequence[float], v: HarmonicVectorField) -> HarmonicVectorField:
    """Cross of a constant numeric 3-vector with a vector field."""
    return HarmonicVectorField(
        v.ctx, tuple((m, cross(n, amp)) for m, amp in v.terms))


# --- exact differential operators --------------------------------------------

def div(v: HarmonicVectorField) -> HarmonicScalarField:
    k = v.ctx.k
    return HarmonicScalarField(
        v.ctx, tuple((m, (1j * m) * dot(k, amp)) for m, amp in v.terms))


def curl(v: HarmonicVectorField) -> HarmonicVectorField:
    k = v.ctx.k
    return HarmonicVectorField(
        v.ctx, tuple((m, (1j * m) * cross(k, amp)) for m, amp in v.terms))


def grad(f: HarmonicScalarField) -> HarmonicVectorField:
    k = f.ctx.k
    return HarmonicVectorField(
        f.ctx, tuple((m, OperatorVector3(np.einsum("i,ab->iab", 1j * m * k, amp.mat)))
                     for m, amp in f.terms))


def dt(field):
    w = field.ctx.omega
    return type(field)(field.ctx,
                       tuple((m, (-1j * m * w) * amp) for m, amp in field.terms))


def d2t(field):
    w = field.ctx.omega
    return type(field)(field.ctx,
                       tuple((m, (-(m * w) ** 2) * amp) for m, amp in field.terms))


def laplacian(field):
    k2 = field.ctx.knorm ** 2
    return type(field)(field.ctx,
                       tuple((m, (-(m ** 2) * k2) * amp) for m, amp in field.terms))


# --- solution families --------------------------------------------------------

COPLANARITY_TOL = 1e-12


def amplitude_from_coeffs(gens: GeneratorSet, coeffs: Sequence[np.ndarray]) -> OperatorVector3:
    """tau = R_0 * identity + sum_l R_l * G_l for coefficient vectors R."""
    if len(coeffs) != gens.n_coeffs:
        raise ValueError(f"expected {gens.n_coeffs} coefficient vectors, got {len(coeffs)}")
    out = np.zeros((3, gens.dim, gens.dim), dtype=complex)
    for r, b in zip(coeffs, gens.basis):
        out += np.einsum("i,ab->iab", np.asarray(r, dtype=float), b.mat)
    return OperatorVector3(out)


def _constraint_pairs(gens: GeneratorSet) -> list[tuple[int, int]]:
    """Index pairs (1-based) whose generators fail to commute.

    Those are exactly the pairs whose coefficient vectors must be coplanar
    with k so that the self-interaction amplitude stays divergence free.
    """
    pairs = []
    n = len(gens.generators)
    for a in range(n):
        for b in range(a + 1, n):
            if commutator(gens.generators[a], gens.generators[b]).norm > 1e-12:
                pairs.append((a + 1, b + 1))
    return pairs


@dataclass(frozen=True, eq=False)
class SolutionFamily:
    """Constant coefficient vectors R_0..R_n plus the wave context."""

    ctx: WaveContext
    R: tuple[np.ndarray, ...]

    def __post_init__(self):
        gens = self.ctx.generators
        vecs = tuple(np.array(r, dtype=float) for r in self.R)
        if len(vecs) != gens.n_coeffs:
            raise ValueError(f"expected {gens.n_coeffs} coefficient vectors")
        for v in vecs:
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError("coefficient vectors must be finite 3-vectors")
            v.flags.writeable = False
        object.__setattr__(self, "R", vecs)
        k, kn = self.ctx.k, self.ctx.knorm
        for l, m in _constraint_pairs(gens):
            bound = COPLANARITY_TOL * kn * np.linalg.norm(vecs[l]) * np.linalg.norm(vecs[m])
            if abs(k @ np.cross(vecs[l], vecs[m])) > bound:
                raise ValueError(
                    f"coefficient vectors R_{l}, R_{m} are not coplanar with k")

    @property
    def tau(self) -> OperatorVector3:
        return amplitude_from_coeffs(self.ctx.generators, self.R)

    @property
    def phi_amplitude(self) -> OperatorMatrix:
        return dot(self.ctx.khat, self.tau)

    @property
    def eta(self) -> OperatorVector3:
        """Second-harmonic structure vector, tau x tau = i*eta_scale*eta."""
        return (1.0 / (1j * self.ctx.generators.eta_scale)) * cross(self.tau, self.tau)


def build_potentials(fam: SolutionFamily) -> tuple[HarmonicVectorField, HarmonicScalarField]:
    """Vector and scalar potentials of the family (single first harmonic)."""
    a = vector_field(fam.ctx, {1: fam.tau})
    phi = scalar_field(fam.ctx, {1: fam.phi_amplitude})
    return a, phi


def build_fields(fam: SolutionFamily) -> tuple[HarmonicVectorField, HarmonicVectorField]:
    """Closed-form "magnetic" and "electric" fields of the family.

    B carries i*(k x tau) at the first harmonic and -i*g*(tau x tau) at the
    second (equal to g*eta_scale*eta); E = -khat x B harmonic by harmonic.
    """
    ctx = fam.ctx
    tau = fam.tau
    b = vector_field(ctx, {
        1: 1j * cross(ctx.k, tau),
        2: (-1j * ctx.g) * cross(tau, tau),
    })
    e = -1.0 * ncross(ctx.khat, b)
    return b, e


def fields_from_potentials(a: HarmonicVectorField, phi: HarmonicScalarField,
                           ctx: WaveContext) -> tuple[HarmonicVectorField, HarmonicVectorField]:
    """Field strengths from arbitrary potentials via the defining relations.

    B = curl A - i g (A x A);  E = -(1/c) dA/dt - grad phi - i g [phi, A].
    For a solution family this reproduces build_fields termwise.
    """
    b = curl(a) - (1j * ctx.g) * vcross(a, a)
    e = (-1.0 / ctx.c) * dt(a) - grad(phi) - (1j * ctx.g) * comm_sv(phi, a)
    return b, e


def random_family(gens: GeneratorSet, rng: np.random.Generator, *,
                  knorm: float = 1.0, k: np.ndarray | None = None,
                  c: float = 1.0, g: float = 0.1,
                  abelian: bool = False, coplanar: bool = True) -> SolutionFamily:
    """Draw a random family with the coplanarity constraint built in.

    An orthonormal pair {khat, u} is sampled and every constrained
    coefficient vector is drawn inside their plane, so k.(R_l x R_m) = 0
    holds exactly by construction; R_0 is unconstrained in 3-space.  With
    abelian=True all generator coefficients are parallel (R_l = n_l * R),
    which kills every commutator in the wave.  coplanar=False deliberately
    pushes one vector out of the plane to produce an invalid family; the
    constructor is bypassed for that case so callers can probe failures.
    """
    if k is None:
        kvec = rng.normal(size=3)
        kvec *= knorm / np.linalg.norm(kvec)
    else:
        kvec = np.array(k, dtype=float)
    khat = kvec / np.linalg.norm(kvec)
    u = rng.normal(size=3)
    u -= (u @ khat) * khat
    u /= np.linalg.norm(u)
    ctx = WaveContext(generators=gens, k=kvec, c=c, g=g)

    n = len(gens.generators)
    r0 = rng.uniform(-1.0, 1.0, size=3)
    if abelian:
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        rvec = rng.uniform(-1.0, 1.0, size=3)
        coeffs = [r0] + [direction[l] * rvec for l in range(n)]
    else:
        coeffs = [r0]
        for _ in range(n):
            coeffs.append(rng.uniform(-1.0, 1.0) * khat + rng.uniform(-1.0, 1.0) * u)
    if not coplanar:
        normal = np.cross(khat, u)
        idx = min(2, n)
        coeffs[idx] = coeffs[idx] + rng.uniform(0.5, 1.0) * normal
        fam = object.__new__(SolutionFamily)
        object.__setattr__(fam, "ctx", ctx)
        object.__setattr__(fam, "R", tuple(np.asarray(v, float) for v in coeffs))
        return fam
    return SolutionFamily(ctx=ctx, R=tuple(coeffs))


def xz_family(gens: GeneratorSet | None = None, *, knorm: float = 1.0,
              c: float = 1.0, g: float = 0.1) -> SolutionFamily:
    """k along z, R_1 = x, R_3 = z: the smallest family with noncommuting
    amplitudes (tau = x S_x + z S_z, second harmonic along y S_y)."""
    gens = gens or make_generators("su2_spin_half")
    if len(gens.generators) != 3:
        raise ValueError("xz_family needs a three-generator set")
    ctx = WaveContext(generators=gens, k=np.array([0.0, 0.0, knorm]), c=c, g=g)
    zero = np.zeros(3)
    return SolutionFamily(ctx=ctx, R=(
        zero, np.array([1.0, 0.0, 0.0]), zero, np.array([0.0, 0.0, 1.0])))


# --- finite-difference oracle --------------------------------------------------

@dataclass(frozen=True)
class DerivativeEstimate:
    """Central-difference estimates of one derivative at steps h and h/2.

    ``at_h`` and ``at_half`` come from the plain second-order stencils
    (error O(h^2), so halving the step divides the error by about four);
    ``extrapolated`` is their Richardson combination (4*at_half - at_h)/3,
    which cancels the leading error term.
    """

    at_h: object
    at_half: object
    extrapolated: object


def _richardson(est_h, est_half) -> DerivativeEstimate:
    combined = (4.0 / 3.0) * est_half - (1.0 / 3.0) * est_h
    return DerivativeEstimate(est_h, est_half, combined)


def _fd_partial(field, r, t, axis: int, h: float):
    e = np.zeros(3)
    e[axis] = h
    return (1.0 / (2.0 * h)) * (field.eval_at(r + e, t) - field.eval_at(r - e, t))


def _fd_partial2(field, r, t, axis: int, h: float):
    e = np.zeros(3)
    e[axis] = h
    return (1.0 / h ** 2) * (field.eval_at(r + e, t)
                             - 2.0 * field.eval_at(r, t)
                             + field.eval_at(r - e, t))


def fd_div(v: HarmonicVectorField, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        total = np.zeros((v.ctx.dim, v.ctx.dim), dtype=complex)
        for axis in range(3):
            total += _fd_partial(v, r, t, axis, step).comps[axis]
        return OperatorMatrix(total)
    return _richardson(stencil(h), stencil(h / 2.0))


def fd_curl(v: HarmonicVectorField, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        parts = [_fd_partial(v, r, t, axis, step).comps for axis in range(3)]
        comps = np.stack([
            parts[1][2] - parts[2][1],
            parts[2][0] - parts[0][2],
            parts[0][1] - parts[1][0],
        ])
        return OperatorVector3(comps)
    return _richardson(stencil(h), stencil(h / 2.0))


def fd_grad(f: HarmonicScalarField, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        comps = np.stack([_fd_partial(f, r, t, axis, step).mat for axis in range(3)])
        return OperatorVector3(comps)
    return _richardson(stencil(h), stencil(h / 2.0))


def fd_dt(field, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        return (1.0 / (2.0 * step)) * (field.eval_at(r, t + step)
                                       - field.eval_at(r, t - step))
    return _richardson(stencil(h), stencil(h / 2.0))


def fd_laplacian(field, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        total = None
        for axis in range(3):
            part = _fd_partial2(field, r, t, axis, step)
            total = part if total is None else total + part
        return total
    return _richardson(stencil(h), stencil(h / 2.0))
