"""Reference constructions shared by the tests: dense operands, fixed and
special families, stacks of families built by the constructors, the
generator set and Dirac states no command builds,
the direct Dirac operator path (one 4x4 product per time) as the oracle
of ``zitter.wobble_expectations``, columns read as (name, residual)
pairs, judged columns and reports read as item dicts, every flux block
of a position by name, and a finite-difference oracle that knows a field only through
``eval_at``.

The special families extend ``random_family``'s draw with more draws from
the same generator, so a seeded test gets the same numbers in the same
order whichever fixture it calls."""

import functools
from dataclasses import dataclass

import numpy as np

from amwave.algebra import GeneratorSet, frobenius_norms, make_generators, real_cross, sup_norms
from amwave.fields import SolutionFamily, WaveContext, dt, random_family
from amwave.poynting import flux_averages
from amwave.residuals import equation_columns, relative


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


def abelian_family(gens, rng, **kw) -> SolutionFamily:
    """A random family whose generator vectors are all parallel: after the
    family's own draw, a direction n (normal) and a vector R (uniform), and
    R_l = n_l R, which kill every commutator in the wave."""
    fam = random_family(gens, rng, **kw)
    direction = rng.normal(size=len(gens.generators))
    direction /= np.linalg.norm(direction)
    rvec = rng.uniform(-1.0, 1.0, size=3)
    return SolutionFamily(ctx=fam.ctx, R=fam.R[:1] + tuple(d * rvec for d in direction))


def noncoplanar_family(gens, rng, **kw) -> SolutionFamily:
    """A random family with R_2 (R_1 for one generator) pushed out of the
    plane of k and R_1 by a uniform draw: an invalid family, built without
    the coplanarity check so tests can probe the failures it causes."""
    fam = random_family(gens, rng, **kw)
    normal = np.cross(fam.ctx.khat, fam.R[1])
    coeffs, idx = list(fam.R), min(2, len(fam.R) - 1)
    coeffs[idx] = coeffs[idx] + rng.uniform(0.5, 1.0) * normal / np.linalg.norm(normal)
    return _unchecked_family(fam.ctx, tuple(coeffs))


def _unchecked_family(ctx, R) -> SolutionFamily:
    """The family (ctx, R), built without the constructor's checks."""
    bad = object.__new__(SolutionFamily)
    object.__setattr__(bad, "ctx", ctx)
    object.__setattr__(bad, "R", R)
    return bad


def stack_families(fams, checked: bool = True) -> SolutionFamily:
    """The families ``fams`` (each one family or a stack), which share
    generators, c and g, as one stack of their trials in order, built by
    the constructors from their concatenated k and R_l; ``checked=False``
    skips the family's checks, for a stack that holds a
    ``noncoplanar_family``."""
    fams = list(fams)
    first = fams[0].ctx
    ctx = WaveContext(generators=first.generators, c=first.c, g=first.g,
                      k=np.concatenate([np.reshape(f.ctx.k, (-1, 3)) for f in fams]))
    R = tuple(np.concatenate([np.reshape(r, (-1, 3)) for r in rows])
              for rows in zip(*(f.R for f in fams)))
    return SolutionFamily(ctx=ctx, R=R) if checked else _unchecked_family(ctx, R)


def residuals_of(columns) -> list[tuple]:
    """(name, residual) of each (name, norm, scale[, tol]) column, the
    residual being relative(norm, scale), as ``cli.judge`` takes it."""
    return [(name, relative(norm, scale)) for name, norm, scale, *_ in columns]


def judged_items(col, prefixes=("",)) -> list[dict]:
    """The report items of a judged column (name, residuals, pass flags,
    tolerance), one per prefix and residual, named prefix + name."""
    return [{"name": p + col.name, "residual": r, "tolerance": col.tol, "pass": ok}
            for p, r, ok in zip(prefixes, col.residual.tolist(), col.passed.tolist())]


def report_items(report: dict) -> list[dict]:
    """The items of a report that ``cli.run_suite`` holds by column, as
    dicts in report order: the opening columns' items, then each trial's,
    column by column."""
    opening, columns = report["items"]
    prefixes = [f"trial{i:03d}/" for i in range(len(columns[0].passed) if columns else 0)]
    return ([it for col in opening for it in judged_items(col)]
            + [it for trial in zip(*(judged_items(col, prefixes) for col in columns))
               for it in trial])


def materialized(report: dict) -> dict:
    """The report with its items as dicts, as ``cli.write_report`` writes it."""
    return {**report, "items": report_items(report)}


FLUX_BLOCKS = ("first", "mixed", "second", "total")


def flux_blocks(fam, samples: int, rs) -> list[dict]:
    """Every block of ``poynting.flux_averages`` at each position in ``rs``,
    by name, from one call that requests them all."""
    got = iter(flux_averages(fam, samples, [(r, block) for r in rs for block in FLUX_BLOCKS]))
    return [{block: next(got) for block in FLUX_BLOCKS} for _ in rs]


def equation_residuals(label: str, terms) -> list[tuple]:
    """(name, residual) of each item of one row of ``residuals.EQUATIONS``."""
    return residuals_of(equation_columns(label, terms))


@functools.cache
def identity_set(hbar: float = 1.0) -> GeneratorSet:
    """The basis {identity} alone, d = 1 with no generators: the classical
    (abelian) wave's set, built once per hbar as ``make_generators`` builds
    the others."""
    return GeneratorSet("identity", 1, np.zeros((0, 1, 1)), hbar=hbar, eta_scale=hbar)


def generator_set(kind: str, hbar: float = 1.0) -> GeneratorSet:
    """``make_generators(kind, hbar)``, or ``identity_set(hbar)`` for "identity"."""
    return identity_set(hbar) if kind == "identity" else make_generators(kind, hbar=hbar)


@dataclass(frozen=True)
class DoubletSpec:
    """cos(theta) |pos> + sin(theta) |neg> for a general split
    (c1, c2, c3, c4) of ``ctx.states``: |pos> = c1 psi_1 + c2 psi_2 and
    |neg> = c3 psi_3 + c4 psi_4, each normalized unless it is zero.  It
    reads like a ``zitter.SuperpositionSpec``, which takes one state pair."""

    theta: float
    coefficients: tuple[complex, complex, complex, complex]

    def state_vector(self, ctx) -> np.ndarray:
        states = ctx.states
        ct = np.asarray(np.cos(self.theta))[..., None]
        st = np.asarray(np.sin(self.theta))[..., None]
        c1, c2, c3, c4 = self.coefficients
        pos = c1 * states[0] + c2 * states[1]
        neg = c3 * states[2] + c4 * states[3]
        npos, nneg = (frobenius_norms(x[..., None, :])[..., None] for x in (pos, neg))
        return (ct * (pos / np.where(npos > 0, npos, 1.0))
                + st * (neg / np.where(nneg > 0, nneg, 1.0)))


# --- the direct Dirac operator path ---------------------------------------------

def position_stack(ctx, ts) -> np.ndarray:
    """Z_r(t) = (i hbar c / 2) [alpha - c H^-1 p] H^-1 (exp(-2iHt/hbar) - 1)
    for every t in the 1-D array ts, shape (T, 3, 4, 4), one time per trial
    on a stacked context: the position prefactor times the tail
    H^-1 (exp(-2iHt/hbar) - 1) = ((cos phi - 1) / E_p^2) H - (i sin phi / E_p) 1,
    phi = 2 E_p t / hbar, one 4x4 product per time and component."""
    ts = np.asarray(ts, dtype=float)
    ep = np.asarray(ctx.energy)[..., None, None]
    phi = 2.0 * ctx.energy * ts / ctx.hbar
    tail = (((np.cos(phi) - 1.0)[:, None, None] / ep ** 2) * ctx.hmat
            - (1j * np.sin(phi)[:, None, None] / ep) * np.eye(4))
    return ctx.position_prefactor @ tail[:, None]


def spin_stack(zr: np.ndarray, p) -> np.ndarray:
    """Z_s(t) = p x Z_r(t) from a (T, 3, 4, 4) stack zr, p one 3-vector or one per row."""
    return real_cross(p, zr)


def expectations(ops: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<psi| op_ti |psi> for a (T, 3, 4, 4) stack of Hermitian operators and
    one state psi, or one per row; real, shape (T, 3), each row's imaginary
    part held to 1e-10 max(1, that row's largest operator norm)."""
    vals = np.einsum("...a,...iab,...b->...i", psi.conj(), ops, psi)
    scale = np.fmax(1.0, sup_norms(ops, ops.shape[:1]))
    if np.any(np.abs(vals.imag).max(axis=1) > 1e-10 * scale):
        raise ValueError("expectation of a Hermitian operator came out complex")
    return vals.real


def xz_family(gens=None, *, knorm: float = 1.0, c: float = 1.0, g: float = 0.1) -> SolutionFamily:
    """k along z, R_1 = x, R_3 = z: the smallest family with noncommuting
    amplitudes (tau = x S_x + z S_z, second harmonic along y S_y)."""
    gens = gens or make_generators("su2_spin_half")
    if len(gens.generators) != 3:
        raise ValueError("xz_family needs a three-generator set")
    ctx = WaveContext(generators=gens, k=np.array([0.0, 0.0, knorm]), c=c, g=g)
    zero = np.zeros(3)
    return SolutionFamily(ctx=ctx, R=(
        zero, np.array([1.0, 0.0, 0.0]), zero, np.array([0.0, 0.0, 1.0])))


def d2t(f):
    """The second time derivative, termwise: -(m omega)^2 at order m."""
    return dt(dt(f))


# --- finite-difference oracle --------------------------------------------------

@dataclass(frozen=True)
class DerivativeEstimate:
    """Central-difference estimates of one derivative at steps h and h/2.

    ``at_h`` and ``at_half`` come from the plain second-order stencils
    (error O(h^2), so halving the step divides the error by about four);
    ``extrapolated`` is their Richardson combination (4*at_half - at_h)/3,
    which cancels the leading error term.
    """

    at_h: np.ndarray
    at_half: np.ndarray
    extrapolated: np.ndarray


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


def fd_div(v, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        return sum(_fd_partial(v, r, t, axis, step)[axis] for axis in range(3))
    return _richardson(stencil(h), stencil(h / 2.0))


def fd_curl(v, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        p = [_fd_partial(v, r, t, axis, step) for axis in range(3)]
        return np.stack([p[1][2] - p[2][1], p[2][0] - p[0][2], p[0][1] - p[1][0]])
    return _richardson(stencil(h), stencil(h / 2.0))


def fd_grad(f, r, t: float, h: float) -> DerivativeEstimate:
    def stencil(step):
        return np.stack([_fd_partial(f, r, t, axis, step) for axis in range(3)])
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
