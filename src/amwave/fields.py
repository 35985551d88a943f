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

The wave vector, or any real 3-vector n, acts on amplitudes as n (x) 1
through ``algebra.real_cross`` and ``real_dot``.  A merge drops only the
orders that are exactly zero in every trial, and a field takes its
``norm`` only when it is read.

A field lives on a ``WaveContext``: one wave, or the waves of T trials
stacked on a leading axis.  A stacked field holds its amplitudes with
the trial axis last, behind the component and matrix axes, so one
evaluation of an expression serves all T trials, and each of the small
contractions of the ``algebra`` kernels runs its inner loop over the
trials; one wave is the same code with no trial axis, and each trial of
a stack gets the bits its own single-wave field would get.  Only this
module and its kernels (and the flux table ``poynting`` builds with them)
know where the trial axis sits: what a field takes and hands out
(``field``, ``amplitude``, ``eval_at``) has the trial axis first, as a
``SolutionFamily`` and every other stack of the package does.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field as dataclass_field
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    SQRT_MAX,
    GeneratorSet,
    InputError,
    NonFiniteValue,
    commutator,
    commutator_sv,
    cross,
    dot,
    dots,
    frobenius_norms,
    move_axes,
    outer,
    readonly,
    real_cross,
    real_dot,
    square,
    sup_norms,
)

# below this |k| the square |k|^2 is subnormal, so it loses digits or reads 0
SMALL_KNORM = np.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True, eq=False)
class WaveContext:
    """Wave vector, coupling and generator set of one wave, or of T waves
    on a leading trial axis: then ``k`` is (T, 3) and ``knorm``, ``khat``
    and ``omega`` hold each wave's own value.  The frequency is
    the dispersion's, omega = c |k|; one that overflows raises
    NonFiniteValue, and one whose period 2 pi / omega does (omega below
    about 3.5e-308, zero included: k = 0, or c |k| underflows), a bad
    input and no overflow, raises InputError."""

    generators: GeneratorSet
    k: np.ndarray
    c: float = 1.0
    g: float = 0.1
    knorm: float | np.ndarray = dataclass_field(init=False, repr=False)
    omega: float | np.ndarray = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        k = np.array(self.k, dtype=float)
        if k.ndim not in (1, 2) or k.shape[-1] != 3 or not k.size or not np.isfinite(k).all():
            raise InputError("k must be a finite real 3-vector for each wave")
        knorm = np.sqrt(dots(k, k))
        small = knorm < SMALL_KNORM
        if small.any():  # |k|^2 below the normal range: taken on k / max |k_i|
            peak = np.abs(k).max(axis=-1)
            unit = k / np.expand_dims(np.where(peak > 0.0, peak, 1.0), -1)
            knorm = np.where(small, peak * np.sqrt(dots(unit, unit)), knorm)
        if not 0.0 < self.c < np.inf:
            raise InputError("c must be positive and finite")
        if not np.isfinite(self.g):
            raise InputError("coupling g must be finite")
        omega = self.c * knorm
        if not np.isfinite(omega).all():
            raise NonFiniteValue("the frequency omega = c*|k| is not finite")
        # a subnormal omega (a boosted one too) has lost digits, and a zero
        # one zeroes every time derivative
        with np.errstate(divide="ignore", over="ignore"):
            if not np.isfinite(2.0 * np.pi / omega).all():
                raise InputError("the period 2 pi / omega is not finite: omega = c*|k| "
                                 "must be positive, above about 3.5e-308")
        object.__setattr__(self, "k", readonly(k))
        object.__setattr__(self, "knorm", float(knorm) if k.ndim == 1 else readonly(knorm))
        object.__setattr__(self, "omega", float(omega) if k.ndim == 1 else readonly(omega))

    @property
    def batch_shape(self) -> tuple[int, ...]:
        """() on one wave, (T,) on a stack of T."""
        return self.k.shape[:-1]

    @functools.cached_property
    def khat(self) -> np.ndarray:
        return readonly(self.k / np.expand_dims(self.knorm, -1))

    @property
    def dim(self) -> int:
        return self.generators.dim

    @property
    def period(self) -> float | np.ndarray:
        """2 pi / omega, finite, as the frequency check makes it."""
        return 2.0 * np.pi / self.omega


def _compatible(a, b) -> bool:
    return (a is b) or (np.array_equal(a.k, b.k) and np.array_equal(a.omega, b.omega)
                        and a.c == b.c and a.g == b.g and a.dim == b.dim)


def _trials_first(x: np.ndarray, batch: tuple[int, ...], at: int = 0) -> np.ndarray:
    """x, (...) + batch, with its trailing trial axis moved to axis ``at``: a view."""
    return move_axes(x, -len(batch), at, len(batch))


@dataclass(frozen=True, eq=False)
class HarmonicField:
    """A scalar or vector harmonic field on one wave or on a stack of waves.

    ``orders`` are the harmonic orders, sorted.  ``amps`` is one read-only
    complex array holding amp_m for each of them, shape (H, d, d) + batch
    for a scalar field or (H, 3, d, d) + batch for a vector field, where
    batch is ``ctx.batch_shape``: () on one wave, (T,) on a stack, whose
    trial axis is last.  On a stack each order is a slot shared by every
    trial; a trial without that order holds zeros in it.  Build one with
    ``field``; the operations below work on the raw arrays.
    """

    ctx: WaveContext
    orders: tuple[int, ...]
    amps: np.ndarray

    # numpy then defers to __rmul__, so one scalar per trial times a field
    # scales each trial's amplitudes
    __array_ufunc__ = None

    @property
    def is_vector(self) -> bool:
        return self.amps.ndim - len(self.ctx.batch_shape) == 4

    @functools.cached_property
    def norm(self) -> float | np.ndarray:
        """The largest amplitude norm (``algebra.operator_norm``), 0 for no
        orders: a float, or one per trial on a stack; ``_field`` keeps it finite."""
        batch = self.ctx.batch_shape
        top = sup_norms(_trials_first(self.amps, batch), batch)
        return top if batch else float(top)

    def amplitude(self, m: int) -> np.ndarray:
        """amp_m, read-only, batch + ([3,] d, d); zeros for an order the
        field does not hold."""
        slot = (self.amps[self.orders.index(m)] if m in self.orders
                else readonly(np.zeros(self.amps.shape[1:], dtype=complex)))
        return _trials_first(slot, self.ctx.batch_shape)

    def eval_at(self, r, t: float) -> np.ndarray:
        """The field's value at (r, t), read-only; one per trial on a stack,
        batch + ([3,] d, d)."""
        phase = dots(self.ctx.k, np.asarray(r, float)) - self.ctx.omega * t
        out = np.zeros(self.amps.shape[1:], dtype=complex)
        for m, amp in zip(self.orders, self.amps):
            out += np.exp(1j * m * phase) * amp
        return readonly(_trials_first(out, self.ctx.batch_shape))

    def with_amps(self, amps: np.ndarray) -> "HarmonicField":
        """The field with ``amps``, a new array it takes, at ``orders``."""
        return _field(self.ctx, self.orders, amps)

    def _require(self, other: "HarmonicField"):
        if other.is_vector != self.is_vector or not _compatible(self.ctx, other.ctx):
            raise ValueError("fields must be of one kind and share a wave context")

    # a sum of two fields that hold the same orders is one array op, with the
    # bits of the merge: a - b and a + (-b) are the same IEEE operation
    def __add__(self, other: "HarmonicField") -> "HarmonicField":
        self._require(other)
        if other.orders == self.orders:
            return _field(self.ctx, self.orders, self.amps + other.amps)
        return _collect(self.ctx, self.is_vector,
                        [*zip(self.orders, self.amps), *zip(other.orders, other.amps)])

    def __sub__(self, other: "HarmonicField") -> "HarmonicField":
        self._require(other)
        if other.orders == self.orders:
            return _field(self.ctx, self.orders, self.amps - other.amps)
        return _collect(self.ctx, self.is_vector,
                        [*zip(self.orders, self.amps), *zip(other.orders, -other.amps)])

    def __neg__(self) -> "HarmonicField":
        return (-1.0) * self

    def __mul__(self, scalar) -> "HarmonicField":
        """Times a scalar, or on a stack times one scalar per trial."""
        return _termwise(self, lambda m: scalar)

    __rmul__ = __mul__


def _field(ctx: WaveContext, orders, amps: np.ndarray, seen=None) -> HarmonicField:
    """The field holding ``amps`` (H, [3,] d, d) + batch, a new array it
    marks read-only, at the H sorted ``orders``, less each slot that is
    exactly zero in every trial.  A non-finite amplitude norm raises
    NonFiniteValue, naming the first such order in ``seen`` (default: sorted);
    the norms are taken only if a component is NaN or reaches SQRT_MAX / (2 d)."""
    amps = np.ascontiguousarray(amps)
    # each order's largest real or imaginary part; NaN if one is NaN, which
    # fails every comparison and so takes the norms
    peaks = np.abs(amps.view(float)).max(axis=tuple(range(1, amps.ndim)), initial=0.0).tolist()
    # a (d, d) block whose 2 d^2 real parts all lie below SQRT_MAX / (2 d) in
    # size has a finite Frobenius norm: its squares sum to under half the float range
    limit = SQRT_MAX / (2 * ctx.dim)
    if not all(p < limit for p in peaks):
        norms = frobenius_norms(_trials_first(amps, ctx.batch_shape, 1))
        bad = ~np.isfinite(norms).reshape(len(orders), -1).all(axis=1)
        if bad.any():
            m = next(m for m in (seen or orders) if bad[orders.index(m)])
            raise NonFiniteValue(f"amplitude of order {m} is not finite")
    if not all(peaks):
        keep = [i for i, p in enumerate(peaks) if p > 0.0]
        amps, orders = amps[keep], [orders[i] for i in keep]
    return HarmonicField(ctx, tuple(orders), readonly(amps))


def _collect(ctx: WaveContext, vector: bool, pairs) -> HarmonicField:
    """The field sum_m amp_m of (order, amplitude array) pairs, same-order
    ones summed in first-seen order into one slot, which ``_field`` checks."""
    acc: dict[int, np.ndarray] = {}
    for m, amp in pairs:
        acc[m] = amp if m not in acc else acc[m] + amp
    orders = sorted(acc)
    if not orders:
        shape = (0,) + (3,) * vector + (ctx.dim, ctx.dim) + ctx.batch_shape
        return HarmonicField(ctx, (), readonly(np.zeros(shape, dtype=complex)))
    return _field(ctx, orders, np.array([acc[m] for m in orders]), list(acc))


def field(ctx: WaveContext, amplitudes: Mapping[int, object]) -> HarmonicField:
    """The harmonic field sum_m amp_m exp(i m (k.r - omega t)).

    Each amplitude is a complex array of shape batch + (d, d) or batch +
    (3, d, d), with batch = ctx.batch_shape and d = ctx.dim; all must be
    scalar or all vector.
    """
    d, batch = ctx.dim, ctx.batch_shape
    arrays = {}
    for m, amp in amplitudes.items():
        arr = np.asarray(amp, dtype=complex)
        if arr.shape not in (batch + (d, d), batch + (3, d, d)):
            lead = f"{batch} + " if batch else ""
            raise ValueError(f"amplitude of order {m} has shape {arr.shape}, "
                             f"not {lead}([3,] {d}, {d})")
        arrays[operator.index(m)] = move_axes(arr, 0, -len(batch), len(batch))
    kinds = {arr.ndim for arr in arrays.values()}
    if len(kinds) != 1:
        raise ValueError("need at least one amplitude, all scalar or all vector")
    return _collect(ctx, kinds == {len(batch) + 3}, arrays.items())


def stack_fields(ctx: WaveContext, parts: Sequence[HarmonicField]) -> HarmonicField:
    """The fields ``parts``, each on one wave or a stack, as one field on the
    stack ``ctx`` that holds their trials in order."""
    vector = parts[0].is_vector
    shape = (-1,) + (3,) * vector + (ctx.dim, ctx.dim)
    orders = sorted({m for f in parts for m in f.orders})
    return _collect(ctx, vector, [(m, move_axes(np.concatenate(
        [f.amplitude(m).reshape(shape) for f in parts]), 0, -1, 1)) for m in orders])


def _termwise(f: HarmonicField, factor, amps=None) -> HarmonicField:
    """amps (f's by default) times factor(m) at each order m of f, as a
    field: factor(m) is a scalar, or on a stack one value per trial, which
    multiplies the trailing trial axis."""
    amps = f.amps if amps is None else amps
    x = np.array([factor(m) for m in f.orders])
    x = x.reshape(x.shape[:1] + (1,) * (amps.ndim - x.ndim) + x.shape[1:])
    return _field(f.ctx, f.orders, amps * x)


# --- products (order preserving; harmonic orders add) ------------------------

def _product(f: HarmonicField, g: HarmonicField, vector: bool, op) -> HarmonicField:
    """op(f_m1, g_m2) at order m1 + m2 by one ``op`` call on the stacks
    (``algebra``'s kernels), in first-seen order."""
    out = op(f.amps[:, None], g.amps[None, :], f.ctx.batch_shape)
    return _collect(f.ctx, vector, ((m1 + m2, out[i, j])
                                    for i, m1 in enumerate(f.orders)
                                    for j, m2 in enumerate(g.orders)))


def comm_ss(f: HarmonicField, g: HarmonicField) -> HarmonicField:
    """[f, g] for scalar fields."""
    f._require(g)
    return _product(f, g, False, commutator)


def comm_sv(f: HarmonicField, v: HarmonicField) -> HarmonicField:
    """[f, v] componentwise for a scalar and a vector field."""
    if not _compatible(f.ctx, v.ctx):
        raise ValueError("fields must share a wave context")
    return _product(f, v, True, commutator_sv)


def vdot(u: HarmonicField, v: HarmonicField) -> HarmonicField:
    u._require(v)
    return _product(u, v, False, dot)


def vcross(u: HarmonicField, v: HarmonicField) -> HarmonicField:
    u._require(v)
    return _product(u, v, True, cross)


def ndot(n: Sequence[float], v: HarmonicField) -> HarmonicField:
    """Dot of a constant numeric 3-vector (one per trial on a stack) with a
    vector field."""
    return _field(v.ctx, v.orders, real_dot(n, v.amps, v.ctx.batch_shape))


def ncross(n: Sequence[float], v: HarmonicField) -> HarmonicField:
    """Cross of a constant numeric 3-vector (one per trial on a stack) with
    a vector field."""
    return _field(v.ctx, v.orders, real_cross(n, v.amps, v.ctx.batch_shape))


# --- exact differential operators --------------------------------------------

def div(v: HarmonicField) -> HarmonicField:
    return _termwise(v, lambda m: 1j * m, real_dot(v.ctx.k, v.amps, v.ctx.batch_shape))


def curl(v: HarmonicField) -> HarmonicField:
    return _termwise(v, lambda m: 1j * m, real_cross(v.ctx.k, v.amps, v.ctx.batch_shape))


def grad(f: HarmonicField) -> HarmonicField:
    k = f.ctx.k
    mk = np.array([1j * m * k for m in f.orders]).reshape((len(f.orders),) + k.shape)
    return _field(f.ctx, f.orders, outer(mk, f.amps, f.ctx.batch_shape))


def dt(f: HarmonicField) -> HarmonicField:
    w = f.ctx.omega
    return _termwise(f, lambda m: -1j * m * w)


def laplacian(f: HarmonicField) -> HarmonicField:
    k2 = square(f.ctx.knorm)
    return _termwise(f, lambda m: -(m ** 2) * k2)


# --- solution families --------------------------------------------------------

COPLANARITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SolutionFamily:
    """Constant coefficient vectors R_0..R_n, each batch + (3,), plus the
    wave context; ``tau`` is batch + (3, d, d), ``phi_amplitude`` batch +
    (d, d) and ``eta`` batch + (3, d, d), with batch = ``ctx.batch_shape``."""

    ctx: WaveContext
    R: tuple[np.ndarray, ...]

    def __post_init__(self):
        gens, shape = self.ctx.generators, self.ctx.batch_shape + (3,)
        vecs = tuple(readonly(np.array(r, dtype=float)) for r in self.R)
        if len(vecs) != gens.n_coeffs:
            raise InputError(f"expected {gens.n_coeffs} coefficient vectors, got {len(vecs)}")
        stack = np.stack(vecs, axis=-2) if all(v.shape == shape for v in vecs) else None
        if stack is None or not np.isfinite(stack).all():
            raise InputError("coefficient vectors must be finite 3-vectors")
        object.__setattr__(self, "R", vecs)
        # the vectors of noncommuting generators must be coplanar with k, so
        # that the self-interaction amplitude stays divergence free
        pairs = gens.noncommuting_pairs
        if not pairs:
            return
        l, m = np.array(pairs).T
        # each vector is divided by its largest |component| first, so the
        # test is scale-free and neither |R|^2 nor the bound overflows for
        # large coefficients; a zero vector stays zero
        peak = np.abs(stack).max(axis=-1, keepdims=True)
        stack = stack / np.where(peak > 0.0, peak, 1.0)
        lengths = np.sqrt(np.einsum("...ij,...ij->...i", stack, stack))
        # R_l x R_m by fancy indexing: np.cross's argument handling costs
        # more than the rest of this check
        i, j, c1, c2 = l[:, None], m[:, None], [1, 2, 0], [2, 0, 1]
        normal = stack[..., i, c1] * stack[..., j, c2] - stack[..., i, c2] * stack[..., j, c1]
        triple = (normal @ self.ctx.k[..., :, None])[..., 0]
        bound = (COPLANARITY_TOL * np.asarray(self.ctx.knorm)[..., None]
                 * lengths[..., l] * lengths[..., m])
        bad = np.flatnonzero((np.abs(triple) > bound).reshape(-1, len(l)).any(axis=0))
        if bad.size:
            raise InputError(f"coefficient vectors R_{l[bad[0]]}, R_{m[bad[0]]} "
                             "are not coplanar with k")

    @functools.cached_property
    def tau(self) -> np.ndarray:
        """tau = R_0 (x) identity + sum_l R_l (x) G_l, read-only, the basis
        terms added one at a time; a tau that overflows raises
        NonFiniteValue."""
        gens = self.ctx.generators
        out = np.zeros(self.R[0].shape + (gens.dim, gens.dim), dtype=complex)
        for r, b in zip(self.R, gens.basis):
            out += np.einsum("...i,ab->...iab", r, b)
        if not np.all(np.isfinite(out)):
            raise NonFiniteValue("amplitude tau is not finite")
        return readonly(out)

    @functools.cached_property
    def phi_amplitude(self) -> np.ndarray:
        """phi = khat . tau, read-only."""
        return readonly(real_dot(self.ctx.khat, self.tau))

    @functools.cached_property
    def k_cross_tau(self) -> np.ndarray:
        """k x tau, read-only: the first-harmonic amplitude of B over i, and
        a factor of the closed-form flux."""
        return readonly(real_cross(self.ctx.k, self.tau))

    @functools.cached_property
    def tau_cross_tau(self) -> np.ndarray:
        """tau x tau, read-only: the second-harmonic amplitude of B over
        -i g, and a factor of the closed-form flux."""
        return readonly(cross(self.tau, self.tau))

    @property
    def eta(self) -> np.ndarray:
        """Second-harmonic structure vector, tau x tau = i*eta_scale*eta."""
        return readonly((1.0 / (1j * self.ctx.generators.eta_scale)) * self.tau_cross_tau)


def build_potentials(fam: SolutionFamily) -> tuple[HarmonicField, HarmonicField]:
    """Vector and scalar potentials of the family (single first harmonic)."""
    return field(fam.ctx, {1: fam.tau}), field(fam.ctx, {1: fam.phi_amplitude})


def build_fields(fam: SolutionFamily) -> tuple[HarmonicField, HarmonicField]:
    """Closed-form "magnetic" and "electric" fields of the family.

    B carries i*(k x tau) at the first harmonic and -i*g*(tau x tau) at the
    second (equal to g*eta_scale*eta); E = -khat x B harmonic by harmonic.
    """
    ctx = fam.ctx
    b = field(ctx, {1: fam.k_cross_tau * 1j, 2: fam.tau_cross_tau * (-1j * ctx.g)})
    return b, -1.0 * ncross(ctx.khat, b)


def random_families(gens: GeneratorSet, rngs: Sequence[np.random.Generator], *,
                    k: Sequence[float] | None = None, c: float = 1.0,
                    g: float = 0.1) -> SolutionFamily:
    """One random family per generator in ``rngs``, stacked.

    Trial t draws from ``rngs[t]``: a unit k from normal(3) unless ``k``
    fixes it, u from normal(3), then R_0 and the pairs (a_l, b_l) from
    uniform(-1, 1, 3 + 2n).  With u made a unit vector orthogonal to k,
    every R_l = a_l khat + b_l u satisfies k.(R_l x R_m) = 0.  The
    arithmetic runs once on the stack; each trial gets its own bits."""
    n = len(gens.generators)
    gauss = np.array([rng.normal(size=3 if k is not None else 6) for rng in rngs])
    coeffs = np.array([rng.uniform(-1.0, 1.0, 3 + 2 * n) for rng in rngs])
    if k is None:
        kvec = gauss[:, :3] * (1.0 / np.sqrt(dots(gauss[:, :3], gauss[:, :3])))[:, None]
    else:
        kvec = [np.array(k, dtype=float)] * len(rngs)
    ctx = WaveContext(generators=gens, k=kvec, c=c, g=g)
    khat, u = ctx.khat, gauss[:, -3:]
    u = u - dots(u, khat)[:, None] * khat
    u = u / np.sqrt(dots(u, u))[:, None]
    return SolutionFamily(ctx=ctx, R=(coeffs[:, :3],) + tuple(
        coeffs[:, 3 + 2 * l, None] * khat + coeffs[:, 4 + 2 * l, None] * u for l in range(n)))


def random_family(gens: GeneratorSet, rng: np.random.Generator, *,
                  k: Sequence[float] | None = None, c: float = 1.0,
                  g: float = 0.1) -> SolutionFamily:
    """One family, drawn as ``random_families`` draws each trial: its row 0,
    built again by the constructor."""
    row = random_families(gens, [rng], k=k, c=c, g=g)
    return SolutionFamily(ctx=WaveContext(generators=gens, k=row.ctx.k[0], c=c, g=g),
                          R=tuple(r[0] for r in row.R))
