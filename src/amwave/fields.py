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

import functools
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    GeneratorSet,
    OperatorMatrix,
    OperatorVector3,
    cross,
    cross_comps,
    dot,
    dot_comps,
    make_generators,
    numeric_lift,
    operator_norm,
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
        if k.shape != (3,) or not np.all(np.isfinite(k)):
            raise ValueError("k must be a finite real 3-vector")
        k.flags.writeable = False
        object.__setattr__(self, "k", k)
        knorm = self.knorm
        if knorm <= 0.0:
            raise ValueError("|k| must be positive")
        if not 0.0 < self.c < np.inf:
            raise ValueError("c must be positive and finite")
        if not np.isfinite(self.g):
            raise ValueError("coupling g must be finite")
        omega = self.c * knorm if self.omega is None else float(self.omega)
        if abs(omega - self.c * knorm) > 1e-12 * omega:
            raise ValueError("dispersion omega = c*|k| violated")
        object.__setattr__(self, "omega", omega)

    @functools.cached_property
    def knorm(self) -> float:
        return float(np.linalg.norm(self.k))

    @functools.cached_property
    def khat(self) -> np.ndarray:
        khat = self.k / self.knorm
        khat.flags.writeable = False
        return khat

    @functools.cached_property
    def k_lift(self) -> np.ndarray:
        """k (x) identity, shape (3, d, d), read-only: what ``div`` and
        ``curl`` multiply each amplitude by."""
        kl = numeric_lift(self.k, self.dim)
        kl.flags.writeable = False
        return kl

    @property
    def dim(self) -> int:
        return self.generators.dim

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega


def _compatible(a: WaveContext, b: WaveContext) -> bool:
    return (a is b) or (np.array_equal(a.k, b.k) and a.omega == b.omega
                        and a.c == b.c and a.g == b.g and a.dim == b.dim)


@dataclass(frozen=True, eq=False)
class HarmonicField:
    """A scalar or vector harmonic field on one wave context.

    ``orders`` are the harmonic orders, sorted; ``amps`` is one read-only
    complex array holding amp_m for each of them, shape (H, d, d) for a
    scalar field or (H, 3, d, d) for a vector field; ``norm`` is the largest
    amplitude norm (``algebra.operator_norm``).  Build one with ``field``;
    the operations below work on the raw arrays.
    """

    ctx: WaveContext
    orders: tuple[int, ...]
    amps: np.ndarray
    norm: float

    @property
    def is_vector(self) -> bool:
        return self.amps.ndim == 4

    def raw_amplitude(self, m: int) -> np.ndarray:
        """amp_m as an array; zeros for an order the field does not hold."""
        if m in self.orders:
            return self.amps[self.orders.index(m)]
        return np.zeros(self.amps.shape[1:], dtype=complex)

    def amplitude(self, m: int) -> OperatorMatrix | OperatorVector3:
        return _operator(self.raw_amplitude(m))

    def eval_at(self, r, t: float) -> OperatorMatrix | OperatorVector3:
        phase = self.ctx.k @ np.asarray(r, float) - self.ctx.omega * t
        out = np.zeros(self.amps.shape[1:], dtype=complex)
        for m, amp in zip(self.orders, self.amps):
            out += np.exp(1j * m * phase) * amp
        return _operator(out)

    def with_amps(self, amps: np.ndarray) -> "HarmonicField":
        """The field of the same kind with these amplitudes at ``orders``."""
        return _collect(self.ctx, self.is_vector, zip(self.orders, amps))

    def _require(self, other: "HarmonicField"):
        if other.is_vector != self.is_vector or not _compatible(self.ctx, other.ctx):
            raise ValueError("fields must share a wave context")

    def __add__(self, other: "HarmonicField") -> "HarmonicField":
        self._require(other)
        return _collect(self.ctx, self.is_vector,
                        [*zip(self.orders, self.amps), *zip(other.orders, other.amps)])

    def __sub__(self, other: "HarmonicField") -> "HarmonicField":
        # one collect: negating an amplitude keeps its norm, so other's own
        # collect would drop nothing and keep its orders
        self._require(other)
        return _collect(self.ctx, self.is_vector,
                        [*zip(self.orders, self.amps), *zip(other.orders, -other.amps)])

    def __neg__(self) -> "HarmonicField":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "HarmonicField":
        return _termwise(self, self.is_vector, lambda m, a: a * scalar)

    __rmul__ = __mul__


def _operator(arr: np.ndarray) -> OperatorMatrix | OperatorVector3:
    return OperatorVector3(arr) if arr.ndim == 3 else OperatorMatrix(arr)


def _collect(ctx: WaveContext, vector: bool, pairs) -> HarmonicField:
    """The field sum_m amp_m of (order, amplitude array) pairs.

    Same-order amplitudes are summed in first-seen order; amplitudes whose
    norm is at most MERGE_DROP times the largest are dropped.  A non-finite
    norm raises, so a NaN or inf can never be dropped as small.
    """
    acc: dict[int, np.ndarray] = {}
    for m, amp in pairs:
        acc[m] = amp if m not in acc else acc[m] + amp
    norms = {m: operator_norm(amp) for m, amp in acc.items()}
    for m, n in norms.items():
        if not np.isfinite(n):
            raise ValueError(f"amplitude of order {m} is not finite")
    cut = MERGE_DROP * max(norms.values(), default=0.0)
    orders = tuple(sorted(m for m, n in norms.items() if n > cut))
    amps = (np.stack([acc[m] for m in orders]) if orders else
            np.zeros((0,) + (3,) * vector + (ctx.dim, ctx.dim), dtype=complex))
    amps.flags.writeable = False
    return HarmonicField(ctx, orders, amps, max((norms[m] for m in orders), default=0.0))


def field(ctx: WaveContext, amplitudes: Mapping[int, object]) -> HarmonicField:
    """The harmonic field sum_m amp_m exp(i m (k.r - omega t)).

    Each amplitude is an OperatorMatrix, an OperatorVector3 or a complex
    array of shape (d, d) or (3, d, d) with d = ctx.dim; all must be
    scalar or all vector.
    """
    d = ctx.dim
    arrays = {}
    for m, amp in amplitudes.items():
        arr = np.asarray(getattr(amp, "comps", getattr(amp, "mat", amp)), dtype=complex)
        if arr.shape not in ((d, d), (3, d, d)):
            raise ValueError(f"amplitude of order {m} has shape {arr.shape}, not ([3,] {d}, {d})")
        arrays[operator.index(m)] = arr
    kinds = {arr.ndim for arr in arrays.values()}
    if len(kinds) != 1:
        raise ValueError("need at least one amplitude, all scalar or all vector")
    return _collect(ctx, kinds == {3}, arrays.items())


def _termwise(f: HarmonicField, vector: bool, op) -> HarmonicField:
    return _collect(f.ctx, vector, ((m, op(m, a)) for m, a in zip(f.orders, f.amps)))


# --- products (order preserving; harmonic orders add) ------------------------

def _product(f: HarmonicField, g: HarmonicField, vector: bool, op) -> HarmonicField:
    return _collect(f.ctx, vector, ((m1 + m2, op(a1, a2))
                                    for m1, a1 in zip(f.orders, f.amps)
                                    for m2, a2 in zip(g.orders, g.amps)))


def comm_ss(f: HarmonicField, g: HarmonicField) -> HarmonicField:
    """[f, g] for scalar fields."""
    f._require(g)
    return _product(f, g, False, lambda x, y: x @ y - y @ x)


def comm_sv(f: HarmonicField, v: HarmonicField) -> HarmonicField:
    """[f, v] componentwise for a scalar and a vector field."""
    if not _compatible(f.ctx, v.ctx):
        raise ValueError("fields must share a wave context")
    return _product(f, v, True, lambda a, b: (np.einsum("ab,ibc->iac", a, b)
                                              - np.einsum("iab,bc->iac", b, a)))


def vdot(u: HarmonicField, v: HarmonicField) -> HarmonicField:
    u._require(v)
    return _product(u, v, False, dot_comps)


def vcross(u: HarmonicField, v: HarmonicField) -> HarmonicField:
    u._require(v)
    return _product(u, v, True, cross_comps)


def ndot(n: Sequence[float], v: HarmonicField) -> HarmonicField:
    """Dot of a constant numeric 3-vector with a vector field."""
    nl = numeric_lift(n, v.ctx.dim)
    return _termwise(v, False, lambda m, a: dot_comps(nl, a))


def ncross(n: Sequence[float], v: HarmonicField) -> HarmonicField:
    """Cross of a constant numeric 3-vector with a vector field."""
    nl = numeric_lift(n, v.ctx.dim)
    return _termwise(v, True, lambda m, a: cross_comps(nl, a))


# --- exact differential operators --------------------------------------------

def div(v: HarmonicField) -> HarmonicField:
    kl = v.ctx.k_lift
    return _termwise(v, False, lambda m, a: dot_comps(kl, a) * (1j * m))


def curl(v: HarmonicField) -> HarmonicField:
    kl = v.ctx.k_lift
    return _termwise(v, True, lambda m, a: cross_comps(kl, a) * (1j * m))


def grad(f: HarmonicField) -> HarmonicField:
    k = f.ctx.k
    return _termwise(f, True, lambda m, a: np.einsum("i,ab->iab", 1j * m * k, a))


def dt(f: HarmonicField) -> HarmonicField:
    w = f.ctx.omega
    return _termwise(f, f.is_vector, lambda m, a: a * (-1j * m * w))


def d2t(f: HarmonicField) -> HarmonicField:
    w = f.ctx.omega
    return _termwise(f, f.is_vector, lambda m, a: a * (-(m * w) ** 2))


def laplacian(f: HarmonicField) -> HarmonicField:
    k2 = f.ctx.knorm ** 2
    return _termwise(f, f.is_vector, lambda m, a: a * (-(m ** 2) * k2))


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


@dataclass(frozen=True, eq=False)
class SolutionFamily:
    """Constant coefficient vectors R_0..R_n plus the wave context."""

    ctx: WaveContext
    R: tuple[np.ndarray, ...]

    def __post_init__(self):
        gens = self.ctx.generators
        vecs = tuple(np.array(r, dtype=float) for r in self.R)
        if len(vecs) != gens.n_coeffs:
            raise ValueError(f"expected {gens.n_coeffs} coefficient vectors, got {len(vecs)}")
        for v in vecs:
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError("coefficient vectors must be finite 3-vectors")
            v.flags.writeable = False
        object.__setattr__(self, "R", vecs)
        # the vectors of noncommuting generators must be coplanar with k, so
        # that the self-interaction amplitude stays divergence free
        pairs = gens.noncommuting_pairs
        if not pairs:
            return
        l, m = np.array(pairs).T
        stack = np.stack(vecs)
        lengths = np.sqrt(np.einsum("ij,ij->i", stack, stack))
        triple = np.cross(stack[l], stack[m]) @ self.ctx.k
        bound = COPLANARITY_TOL * self.ctx.knorm * lengths[l] * lengths[m]
        bad = np.flatnonzero(np.abs(triple) > bound)
        if bad.size:
            raise ValueError(f"coefficient vectors R_{l[bad[0]]}, R_{m[bad[0]]} "
                             "are not coplanar with k")

    @functools.cached_property
    def tau(self) -> OperatorVector3:
        return amplitude_from_coeffs(self.ctx.generators, self.R)

    @property
    def phi_amplitude(self) -> OperatorMatrix:
        return dot(self.ctx.khat, self.tau)

    @property
    def eta(self) -> OperatorVector3:
        """Second-harmonic structure vector, tau x tau = i*eta_scale*eta."""
        return (1.0 / (1j * self.ctx.generators.eta_scale)) * cross(self.tau, self.tau)


def build_potentials(fam: SolutionFamily) -> tuple[HarmonicField, HarmonicField]:
    """Vector and scalar potentials of the family (single first harmonic)."""
    return field(fam.ctx, {1: fam.tau}), field(fam.ctx, {1: fam.phi_amplitude})


def build_fields(fam: SolutionFamily) -> tuple[HarmonicField, HarmonicField]:
    """Closed-form "magnetic" and "electric" fields of the family.

    B carries i*(k x tau) at the first harmonic and -i*g*(tau x tau) at the
    second (equal to g*eta_scale*eta); E = -khat x B harmonic by harmonic.
    """
    ctx, tau = fam.ctx, fam.tau
    b = field(ctx, {1: 1j * cross(ctx.k, tau), 2: (-1j * ctx.g) * cross(tau, tau)})
    return b, -1.0 * ncross(ctx.khat, b)


def fields_from_potentials(a: HarmonicField, phi: HarmonicField,
                           ctx: WaveContext) -> tuple[HarmonicField, HarmonicField]:
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


def _fd_partial(f, r, t, axis: int, h: float):
    e = np.zeros(3)
    e[axis] = h
    return (1.0 / (2.0 * h)) * (f.eval_at(r + e, t) - f.eval_at(r - e, t))


def _fd_partial2(f, r, t, axis: int, h: float):
    e = np.zeros(3)
    e[axis] = h
    return (1.0 / h ** 2) * (f.eval_at(r + e, t)
                             - 2.0 * f.eval_at(r, t)
                             + f.eval_at(r - e, t))


def fd_div(v: HarmonicField, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        return OperatorMatrix(sum(_fd_partial(v, r, t, axis, step).comps[axis]
                                  for axis in range(3)))
    return _richardson(stencil(h), stencil(h / 2.0))


def fd_curl(v: HarmonicField, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        p = [_fd_partial(v, r, t, axis, step).comps for axis in range(3)]
        return OperatorVector3(np.stack([p[1][2] - p[2][1], p[2][0] - p[0][2],
                                         p[0][1] - p[1][0]]))
    return _richardson(stencil(h), stencil(h / 2.0))


def fd_grad(f: HarmonicField, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        return OperatorVector3(np.stack([_fd_partial(f, r, t, axis, step).mat
                                         for axis in range(3)]))
    return _richardson(stencil(h), stencil(h / 2.0))


def fd_dt(f, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        return (1.0 / (2.0 * step)) * (f.eval_at(r, t + step)
                                       - f.eval_at(r, t - step))
    return _richardson(stencil(h), stencil(h / 2.0))


def fd_laplacian(f, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        return sum((_fd_partial2(f, r, t, axis, step) for axis in (1, 2)),
                   start=_fd_partial2(f, r, t, 0, step))
    return _richardson(stencil(h), stencil(h / 2.0))
