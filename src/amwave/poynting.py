"""Time-averaged energy flux of classical and operator-valued plane waves.

The flux is (c/4 pi) <Re E x Re B> averaged over one period.  "Re" of an
operator-valued analytic signal means the Hermitian part, which holds the
operator amplitudes fixed and takes the real part of the scalar phase
factors (the generators themselves are Hermitian, so e.g. the real part
of i*(k x tau) e^{i phi} is -(k x tau) sin(phi)).

For the generator-valued waves the closed form is

    S = (c/8 pi) [ (k x tau).(k x tau) - g^2 (tau x tau).(tau x tau) ] khat,

an operator along the propagation direction; the second block equals the
g^2 hbar^2 (eta.eta) form of the spin-set convention.  Every flux takes
one family or a stack of T, as ``fields`` does, and is a batch + (3, d, d)
array; each trial of a stack gets the bits its own family gives alone.
The quadrature oracle averages the instantaneous flux over one exact
period with the trapezoid rule (exact up to rounding from 5 nodes on), as
one contraction of basis cross products with averaged phase weights;
``flux_averages`` gives any of the squared first-harmonic, mixed, and
squared second-harmonic blocks (the mixed one averages to zero), or
their total; ``flux_columns`` builds the poynting suite's columns from them,
and ``flux_timeseries`` the poynting export's series and verdict column.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import SERIES_BLOCK, cross, dot, dots, readonly, square, sup_norms
from .fields import SolutionFamily, WaveContext, build_fields


class NonTransverseAmplitude(ValueError):
    """Classical wave amplitude with a longitudinal component."""


def em_flux(a01, ctx) -> np.ndarray:
    """Flux (c/8 pi) k^2 |A01|^2 khat (x) 1 of a classical plane wave, or of
    each wave of a stacked context, A01 then being (T, 3)."""
    a01 = np.asarray(a01, dtype=float)
    kn, a2 = ctx.knorm, dots(a01, a01)
    if np.any(abs(dots(ctx.k, a01)) > 1e-12 * np.fmax(1.0, kn * np.sqrt(a2))):
        raise NonTransverseAmplitude("amplitude must satisfy k . A01 = 0")
    mag = ctx.c / (8.0 * np.pi) * square(kn) * a2
    return np.einsum("...i,...ab->...iab", ctx.khat,
                     np.asarray(mag)[..., None, None] * np.eye(ctx.dim, dtype=complex))


def amw_flux(fam: SolutionFamily) -> np.ndarray:
    """Closed-form time-averaged flux of a generator-valued wave family:
    khat times the operator magnitude of the module doc."""
    ctx, kxt, txt = fam.ctx, fam.k_cross_tau, fam.tau_cross_tau
    op = (ctx.c / (8.0 * np.pi)) * (dot(kxt, kxt) - (ctx.g ** 2) * dot(txt, txt))
    return np.einsum("...i,...ab->...iab", ctx.khat, op)


@functools.lru_cache(maxsize=1)  # an export's quadrature and series share it
def _flux_form(fam: SolutionFamily):
    """(c/4 pi) Re E x Re B as a bilinear form in the phase phi, built once
    for the last family asked, read-only.

    Re F = sum_m cos(m phi) Herm(amp_m) + sin(m phi) Herm(i amp_m): a fixed
    Hermitian basis of 2H rows weighted by c(phi) = [cos(m phi) | sin(m phi)],
    so the flux is c_E^T X c_B with X_pq = (c/4 pi) U_p x V_q over the bases
    U of E and V of B.  Returns X, shape (2H_E, 2H_B, 3, d, d) + batch,
    the orders of E and of B (for ``_trig``) and the masks over X of the
    blocks: 'first'/'second' pair equal orders 1/2, 'mixed' unequal ones
    (E and B hold orders 1 and 2 only), 'total' all.  A trial of a stack
    whose merge dropped an order has zero rows in its slot.
    """
    def basis(f):  # (2H, 3, d, d) + batch: Herm(amp_m) for each order, then Herm(i amp_m)
        a = np.concatenate([f.amps, 1j * f.amps])
        return 0.5 * (a + np.conj(np.swapaxes(a, 2, 3)))

    b, e = build_fields(fam)
    u, v = basis(e), basis(b)
    table = cross(u[:, None], v[None, :], fam.ctx.batch_shape)
    me, mb = np.tile(e.orders, 2)[:, None], np.tile(b.orders, 2)[None, :]
    masks = {"first": (me == 1) & (mb == 1), "mixed": me != mb,
             "second": (me == 2) & (mb == 2), "total": np.ones(table.shape[:2], bool)}
    return (readonly((fam.ctx.c / (4.0 * np.pi)) * table), e.orders, b.orders,
            {name: readonly(mask) for name, mask in masks.items()})


def _trig(orders, phase: np.ndarray) -> np.ndarray:
    """c(phi), shape (N, 2H): cos(m phase) for each order, then sin(m phase).
    It is built in one (2H, N) array, whose rows keep numpy's contiguous
    cos and sin loops: m phase goes into the sine rows, whose cosines fill
    the cosine rows before their sines replace them; then one copy
    transposes it."""
    h = len(orders)
    rows = np.empty((2 * h, len(phase)))
    mphi = np.multiply.outer(np.asarray(orders, dtype=float), phase, out=rows[h:])
    np.cos(mphi, out=rows[:h])
    np.sin(mphi, out=mphi)
    return rows.T.copy()


def _trig_pair(orders_e, orders_b, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c_E(phi) and c_B(phi): one table when the orders agree, as they do
    for most generator-valued waves.  B then reads a copy, because numpy
    takes ``x.T @ x`` as a symmetric product whose bits differ from
    ``x.T @ y``.  They need not agree: where the generator vectors are
    parallel and lie across k, B can keep a second harmonic of rounding
    size along k whose E counterpart cancels, so E holds order 1 alone."""
    ce = _trig(orders_e, phase)
    return ce, ce.copy() if orders_b == orders_e else _trig(orders_b, phase)


def flux_averages(fam: SolutionFamily, samples: int, requests) -> list[np.ndarray]:
    """Trapezoid averages of (c/4 pi) Re E x Re B over one period, one for
    each (position, block) in ``requests``: the position None is the
    origin, and on a stack a position is (T, 3), one per trial; the block
    is 'first' (squared first harmonic), 'mixed' (the order-g cross terms,
    which average to zero), 'second' (squared second harmonic) or 'total'
    (the whole average, as ``flux_quadrature``).  Only the requested blocks
    are contracted.  One basis table serves every request and trial: each
    average is one (2H_E, 2H_B) weight matrix per trial on it, with no
    sample axis.  A trial's weights depend only on its exact k.r (its sign
    too, for a zero) and omega, and a call builds each distinct cos/sin
    table once, for all the requests and trials that share it.

    ``samples`` (N) must be >= 1; below 5 the average aliases (see below).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    ctx = fam.ctx
    table, orders_e, orders_b, masks = _flux_form(fam)
    k, omegas = ctx.k.reshape(-1, 3), np.ravel(ctx.omega).tolist()
    periods = np.ravel(ctx.period).tolist()

    @functools.cache  # one cos/sin table per distinct (k.r, its sign bit, omega)
    def weight(kr: float, negative: bool, omega: float, period: float) -> np.ndarray:
        # N nodes over one exact period; the endpoint repeats the first node,
        # so the trapezoid rule is their plain mean.  The integrand is a
        # trigonometric polynomial of degree m_E + m_B <= 4 in phi, and the
        # N-point rule averages e^{i j phi} exactly unless N divides j, so it
        # is exact up to rounding once N >= 5 (Trefethen & Weideman, SIAM
        # Review 2014); fewer nodes alias, and RunConfig rejects them.
        wt = omega * np.linspace(0.0, period, samples + 1)[:-1]
        ce, cb = _trig_pair(orders_e, orders_b, kr - wt)
        return ce.T @ cb / samples

    out = []
    for r, block in requests:
        at = np.zeros_like(k) if r is None else np.asarray(r, dtype=float).reshape(-1, 3)
        w = np.reshape([weight(kr, np.signbit(kr), om, per)
                        for kr, om, per in zip(dots(k, at).tolist(), omegas, periods)],
                       ctx.batch_shape + table.shape[:2])
        out.append(np.einsum("...pq,pqiab...->...iab", w * masks[block], table))
    return out


def flux_quadrature(fam: SolutionFamily, samples: int = 10_000) -> np.ndarray:
    """Trapezoid time average of (c/4 pi) Re(E) x Re(B) over one period at
    the origin, shape (3, d, d), from ``samples`` nodes; exact up to
    rounding for samples >= 5, aliased below that, and samples < 1 raises."""
    return flux_averages(fam, samples, ((None, "total"),))[0]


def _quadrature_vs_closed(average: np.ndarray, closed: np.ndarray, batch: tuple[int, ...]):
    """The column of a flux quadrature against the closed form, relative to
    max(1, the closed form's norm), per trial on a stack."""
    return ("quadrature_vs_closed", sup_norms(average - closed, batch), sup_norms(closed, batch))


def flux_columns(fams: SolutionFamily, rngs, samples: int):
    """The poynting suite's columns for a stack of T families: the flux
    quadrature (``samples`` nodes) at a random r against the closed form,
    the mixed block at the origin, and the g = 0 wave on a random r0
    against the classical flux, each on the whole stack at once; each
    trial draws r, then r0, from its generator in ``rngs``.  The first two
    are relative to max(1, each trial's closed-form flux norm), the last to
    max(1, its g = 0 flux norm); a finite flux above about 1e154 has
    squares, and so a norm, that overflow."""
    r, r0 = np.split(np.array([rng.uniform(-1.0, 1.0, 6) for rng in rngs]), 2, axis=1)
    ctx = fams.ctx
    fams0 = SolutionFamily(ctx=WaveContext(generators=ctx.generators, k=ctx.k, c=ctx.c, g=0.0),
                           R=(r0,) + (np.zeros_like(r0),) * len(ctx.generators.generators))
    a01 = -np.cross(fams0.ctx.khat, np.cross(fams0.ctx.khat, r0))
    closed, closed0 = amw_flux(fams), amw_flux(fams0)
    at_r, mixed_at_origin = flux_averages(fams, samples, ((r, "total"), (None, "mixed")))
    vs_closed = _quadrature_vs_closed(at_r, closed, ctx.batch_shape)
    # each trial's operator_norm
    scale0, mixed, abelian = (sup_norms(x, ctx.batch_shape) for x in (
        closed0, mixed_at_origin, closed0 - em_flux(a01, fams0.ctx)))
    return [vs_closed,
            ("mixed_block_average", mixed, vs_closed[2], 1e-10),
            ("abelian_equals_em", abelian, scale0, 1e-10)]


def flux_timeseries(fam: SolutionFamily, steps: int, samples: int):
    """The poynting export of one family: ``steps`` equally spaced times
    over one period [0, period), the flux blocks 'first', 'mixed' and
    'second' at r = 0 at each time (keys as ``flux_averages``), the running
    average of their total, which from 5 steps on ends at the exact period
    mean, and the verdict column of the flux quadrature (``samples`` nodes)
    at the origin against the closed form.  The quadrature and the series
    share one flux table.

    A block at time t is the identity part tr(.)/d of khat . (c/4 pi)
    Re E x Re B restricted to it, c_E(t)^T S c_B(t), evaluated SERIES_BLOCK
    times at a time so its temporaries stay bounded."""
    ctx, closed = fam.ctx, amw_flux(fam)
    vs_closed = _quadrature_vs_closed(flux_quadrature(fam, samples), closed, ctx.batch_shape)
    ts = np.linspace(0.0, ctx.period, steps, endpoint=False)
    table, orders_e, orders_b, masks = _flux_form(fam)
    s = np.einsum("i,pqiaa->pq", ctx.khat, table).real / ctx.dim
    out = {name: np.empty(steps) for name in masks}
    for start in range(0, steps, SERIES_BLOCK):
        block = slice(start, start + SERIES_BLOCK)
        ce, cb = _trig_pair(orders_e, orders_b, -ctx.omega * ts[block])
        for name, mask in masks.items():
            out[name][block] = np.einsum("tp,pq,tq->t", ce, s * mask, cb)
    running = np.cumsum(out["total"]) / np.arange(1, steps + 1)
    return ts, (out["first"], out["mixed"], out["second"]), running, vs_closed
