"""Free Dirac electron in momentum space: eigenstates, projectors, and the
position/spin trembling-motion operators with their closed forms.

Everything is plain 4x4 matrix algebra at a fixed momentum.  The free
Hamiltonian squares to a number, H^2 = E_p^2, so H^-1 = H / E_p^2 and
the evolution factor inside Z_r(t) is a first-degree polynomial in H,
exp(-2iHt/hbar) = cos(phi) - i sin(phi) H / E_p with phi = 2 E_p t / hbar:
elementwise arithmetic on H, stable for any t, with no eigensolver and no
series.

The Dirac matrices are read-only module constants.  Everything that depends
only on the momentum (|p|, E_p, phat, H as ``hmat``, the position prefactor
P, the wobble basis (P H, P), the four eigenstates as ``states`` and the
wobble's size hbar c / 2 E_p as ``wobble_scale``) is computed once per
``DiracContext`` and cached read-only on it.  A context holds one momentum,
or the momenta of T trials on a leading axis; then each cached value is a
per-trial stack, and the expectations and closed forms take one time (and
one mixing angle) per trial.  Each trial of a stack gets the bits its own
context would give it.  Z_r(t) = a(t) P H + b(t) P and Z_s(t) = p x Z_r(t)
are linear in the basis, so ``wobble_expectations`` contracts a state with
it once and evaluates each wobble it is asked for as Re[a(t) e_PH +
b(t) e_P], with no operator built per time.  ``PAIRS`` gives each state
pair the wobble its mixes show and that wobble's closed form, if any.
``wobble_columns`` builds the zitter suite's columns from one kernel
call on a stack of random trials, and ``wobble_timeseries`` the zitter
export's from one on a time grid, for the one wobble its pair shows.

The module stands on ``algebra`` alone: the norms, ``dots`` and ``square``
it shares with the other modules live there.

Work in natural units (m = c = hbar = 1) for numerics; the SI layer at the
bottom only evaluates closed-form expressions, so the 1e21 1/s frequencies
never enter a time grid.

The closed-form eigenvectors divide by |p| + p_z, which is computed without
cancellation (``norm_plus_pz``), and degenerate only on the -z ray;
callers hitting PolarSingularity should rotate their momentum first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
import numpy as np

from .algebra import (PAULI, InputError, NonFiniteValue, dots, frobenius_norms, readonly,
                      square, squarable)

POLAR_EPS = 1e-10


class PolarSingularity(InputError):
    """A momentum the closed-form eigenstates cannot take: too close to the
    -z ray, too small, or too large for |p| or the states' normalisation
    to be finite; or units at which E_p underflows to zero."""


_ZERO2 = np.zeros((2, 2), dtype=complex)
_EYE2 = np.eye(2, dtype=complex)
# alpha (off-diagonal sigma blocks, (3, 4, 4)), beta (diag(1, -1), (4, 4))
# and Sigma (diag sigma, (3, 4, 4))
ALPHA = readonly(np.stack([np.block([[_ZERO2, s], [s, _ZERO2]]) for s in PAULI]))
BETA = readonly(np.block([[_EYE2, _ZERO2], [_ZERO2, -_EYE2]]))
SIGMA = readonly(np.stack([np.block([[s, _ZERO2], [_ZERO2, s]]) for s in PAULI]))


def _value(x):
    """x as a float for one electron, or read-only with one value per trial."""
    return readonly(x) if isinstance(x, np.ndarray) and x.ndim else float(x)


def _col(x) -> np.ndarray:
    """x, a number or one per trial, with a trailing axis to scale vectors."""
    return np.asarray(x)[..., None]


def _complex(re, im):
    """re + i im, built exactly (re + 1j * im can flip the sign of a zero re)."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class DiracContext:
    """Mass, momentum and units for one plane-wave electron, or for T
    electrons on a leading trial axis: then ``p`` is (T, 3) and each
    momentum-only quantity holds every electron's own value.

    The momentum-only quantities are cached properties; every cached array
    is read-only.
    """

    p: np.ndarray
    mass: float = 1.0
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if (p.ndim not in (1, 2) or p.shape[-1:] != (3,) or p.size == 0
                or not np.all(np.isfinite(p))):
            raise InputError("p must be a finite real 3-vector")
        if not all(0.0 < x < np.inf for x in (self.mass, self.c, self.hbar)):
            raise InputError("mass, c and hbar must be positive and finite")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @functools.cached_property
    def pnorm(self) -> float | np.ndarray:
        return _value(np.sqrt(dots(self.p, self.p)))

    @functools.cached_property
    def phat(self) -> np.ndarray:
        return readonly(self.p / _col(self.pnorm))

    @functools.cached_property
    def energy(self) -> float | np.ndarray:
        """E_p = sqrt(p^2 c^2 + m^2 c^4).  Where p c, c or m c^2 squares
        past the float range (above about 1.3e154), NonFiniteValue names it."""
        pc = squarable("p c in E_p", self.pnorm * self.c)
        mc2 = squarable("m c^2 in E_p", self.mass * squarable("c", self.c) ** 2)
        return _value(np.sqrt(square(pc) + mc2 ** 2))

    @functools.cached_property
    def wobble_scale(self) -> float | np.ndarray:
        """hbar c / 2 E_p, the prefactor both wobble closed forms share."""
        return _value(self.hbar * self.c / (2.0 * self.energy))

    @property
    def p_plus(self) -> complex | np.ndarray:
        return _complex(self.p[..., 0], self.p[..., 1])

    @property
    def p_minus(self) -> complex | np.ndarray:
        return _complex(self.p[..., 0], -self.p[..., 1])

    @functools.cached_property
    def u_plus(self) -> float | np.ndarray:
        return _value(np.sqrt(self.energy + self.mass * self.c ** 2))

    @functools.cached_property
    def u_minus(self) -> float | np.ndarray:
        """sqrt(E_p - m c^2), as c |p| / sqrt(E_p + m c^2), which does not cancel."""
        return _value(self.c * self.pnorm / self.u_plus)

    @functools.cached_property
    def norm_plus_pz(self) -> float | np.ndarray:
        """|p| + p_z, as (p_x^2 + p_y^2) / (|p| - p_z) where p_z < 0, which does not cancel."""
        px, py, pz = np.moveaxis(self.p, -1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _value(np.where(pz < 0.0, (px * px + py * py) / (self.pnorm - pz),
                                   self.pnorm + pz))

    def check_polar(self):
        """Raises PolarSingularity where the closed-form eigenstates are
        undefined, for any trial of a stack: |p| overflows, E_p underflows
        to zero (at c below about 1e-162 with m = 1), or p + p_z = 0; and
        NonFiniteValue where the wobble frequency 2 E_p / hbar overflows
        (at hbar below about 1.1e-308 E_p), as every closed form would
        then read NaN."""
        pn = self.pnorm
        if not np.isfinite(pn).all():
            raise PolarSingularity("|p| overflowed to inf; pick a smaller momentum")
        if not np.all(self.energy > 0.0):
            raise PolarSingularity("E_p = sqrt(p^2 c^2 + m^2 c^4) underflows to zero")
        with np.errstate(over="ignore"):
            if not np.isfinite(2.0 * self.energy / self.hbar).all():
                raise NonFiniteValue("the wobble frequency 2 E_p / hbar overflows")
        # |p| = 0 is caught too: then p + p_z = 0 <= 0
        if np.any(self.norm_plus_pz <= POLAR_EPS * pn):
            raise PolarSingularity(
                "p + p_z vanishes; rotate the momentum away from the -z ray")

    def export_window(self, t_max: float | None = None) -> float:
        """The end of an export's time grid [0, t_max], for one electron
        that passed ``check_polar``: by default half a wobble period,
        pi hbar / E_p, which raises NonFiniteValue where it overflows (at
        hbar above about 5.7e307 E_p).  A given t_max raises InputError
        where the phase 2 E_p t_max / hbar at its end overflows, as every
        wobble there would then read NaN."""
        if t_max is not None and not np.isfinite(2.0 * self.energy * t_max / self.hbar):
            raise InputError(f"t_max = {t_max!r} overflows the phase 2 E_p t / hbar")
        window = np.pi * self.hbar / self.energy if t_max is None else t_max
        if not np.isfinite(window):
            raise NonFiniteValue("the export window pi hbar / E_p is not finite")
        return window

    @functools.cached_property
    def hmat(self) -> np.ndarray:
        """H = c alpha.p + beta m c^2 as a (4, 4) array, or (T, 4, 4)."""
        return readonly(self.c * np.einsum("...i,iab->...ab", self.p, ALPHA)
                        + self.mass * self.c ** 2 * BETA)

    @functools.cached_property
    def position_prefactor(self) -> np.ndarray:
        """P = (i hbar c / 2) [alpha_i - c p_i H / E_p^2], (3, 4, 4) or (T, 3, 4, 4)."""
        cp = self.c * self.p[..., None, None]
        hinv = self.hmat / _col(_col(square(self.energy)))
        return readonly((0.5j * self.hbar * self.c) * (ALPHA - cp * hinv[..., None, :, :]))

    @functools.cached_property
    def wobble_basis(self) -> np.ndarray:
        """(P H, P) with P the position prefactor, shape (2, 3, 4, 4), or
        (T, 2, 3, 4, 4): Z_r(t) = a(t) P H + b(t) P (``wobble_expectations``)."""
        pre = self.position_prefactor
        # the three P_i H as one (12, 4) @ (4, 4) product per trial
        ph = np.reshape(np.reshape(pre, pre.shape[:-3] + (12, 4)) @ self.hmat, pre.shape)
        return readonly(np.stack([ph, pre], axis=-4))

    @functools.cached_property
    def states(self) -> np.ndarray:
        """The four closed-form common eigenstates of energy and helicity,
        one read-only amplitude stack: (4, 4), or (4, T, 4) on a stack.

        Ordered (+E,+), (+E,-), (-E,+), (-E,-), so state j has energy sign
        +1 for j < 2 and helicity +hbar/2 for even j.  Each is normalized
        to unit norm; the shared closed-form prefactor is
        1/sqrt(4 E_p p (p + p_z)).  A polar momentum raises on every
        access, since nothing is cached then, and so does one at which the
        states miss unit norm: a tiny |p| (below about 1e-156 m c along +z)
        at which 4 E_p p (p + p_z) underflows.  So does a large |p| (from
        about 2.8e102 m c along +z) at which that product overflows; in a
        stack, any trial's momentum does."""
        self.check_polar()
        p, ppz = self.pnorm, self.norm_plus_pz
        up, um = self.u_plus, self.u_minus
        # the four spinors on a leading axis: each is norm [u top, s (c p / u) top],
        # where c p / u_+ = u_- and c p / u_- = u_+, with
        # top = [p + p_z, p_+] or [-p_-, p + p_z]
        top = np.array([[ppz, self.p_plus], [-self.p_minus, ppz]] * 2).swapaxes(1, -1)
        u = np.array([up, up, um, um])
        lower = np.array([um, -um, -up, up])
        nsq = 4.0 * self.energy * p * ppz
        for bound, edge in ((np.inf, "overflows"), (0.0, "underflows to zero")):
            if np.equal(nsq, bound).any():
                raise PolarSingularity(f"the states' normalisation 4 E_p |p| (|p| + p_z) {edge}")
        amps = readonly(_col(1.0 / np.sqrt(nsq)) * np.concatenate(
            [_col(u) * top, _col(lower) * top], axis=-1))
        off = _off_unit_norm(amps).any(axis=0)
        if off.any():
            raise PolarSingularity(
                f"|p| = {np.reshape(p, -1)[np.flatnonzero(off)[0]]:.3g} is too small: "
                "the states' normalisation 4 E_p |p| (|p| + p_z) underflows")
        return amps


def helicity_operator(ctx: DiracContext) -> np.ndarray:
    """Lambda = S.phat with S = (hbar/2) Sigma, read-only."""
    return readonly(0.5 * ctx.hbar * np.einsum("...i,iab->...ab", ctx.phat, SIGMA))


def _off_unit_norm(amp: np.ndarray) -> np.ndarray:
    """For each spinor on the last axis of amp, read as a 1 x 4 matrix:
    does its norm miss 1 by more than 1e-12?"""
    return abs(frobenius_norms(amp[..., None, :]) - 1.0) > 1e-12


WOBBLES = ("position", "spin")
# The four state pairs (1-based), each with the wobble its mixes show and
# the name of that wobble's closed form in this module, if it has one: an
# equal-helicity mix trembles in position, an opposite-helicity one in
# spin.  A closed form is looked up by its name when it is called, so one
# patch of it reaches every caller.
PAIRS = {(1, 3): ("position", "position_closed_form"), (1, 4): ("spin", "spin_closed_form"),
         (2, 3): ("spin", None), (2, 4): ("position", None)}


@dataclass(frozen=True)
class SuperpositionSpec:
    """cos(theta) |psi_+> + sin(theta) |psi_->, for the state pair ``pair``:
    one positive- and one negative-energy eigenstate (1-based indices).
    On a stacked context, ``theta`` may hold one angle per trial.
    """

    theta: float
    pair: tuple[int, int] = (1, 4)

    def __post_init__(self):
        # sin(2 theta) needs 2 theta finite; doubling is exact, so it is iff
        # |theta| <= max / 2, which a NaN fails too
        if not np.all(np.abs(self.theta) <= np.finfo(float).max / 2.0):
            raise InputError("theta must be finite, and so must 2 theta")
        if tuple(self.pair) not in PAIRS:
            raise InputError("pair must combine one of (1,2) with one of (3,4)")

    def state_vector(self, ctx: DiracContext) -> np.ndarray:
        a, b = self.pair
        ct, st = _col(np.cos(self.theta)), _col(np.sin(self.theta))
        return ct * ctx.states[a - 1] + st * ctx.states[b - 1]


# --- the wobble series ----------------------------------------------------------

def wobble_expectations(ctx: DiracContext, psi: np.ndarray, ts, wobbles=WOBBLES) -> np.ndarray:
    """The wobbles named in ``wobbles`` (WOBBLES), each <psi| Z(t) |psi>
    for Z the position wobble Z_r or the spin wobble Z_s = p x Z_r, at
    every t in the finite 1-D array ts: real, shape (len(wobbles), N, 3),
    behind any leading state axes of psi; on a stacked context, one time
    and one state per trial.  Only the named wobbles are evaluated.

    Z_r(t) = (i hbar c / 2) [alpha - c H^-1 p] H^-1 (exp(-2iHt/hbar) - 1) is
    a B_PH + b B_P in the ``wobble_basis``: by H^2 = E_p^2 the tail is a H + b
    with a = (cos phi - 1) / E_p^2, b = -i s, s = sin(phi) / E_p and
    phi = 2 E_p t / hbar.  So psi meets each basis operator once, p x that
    pair gives the spin wobble's, and each series is Re[a e_PH + b e_P].

    Each time's imaginary part is held to 1e-10 max(1, sup_i ||Z_i(t)||_F):
    the norm bounds the expectation of a unit state, so a zero expectation
    is held to the size of its operator.  The norm is exact: by H^2 = E_p^2
    the basis' Gram matrix has <B_PH,i, B_P,i> = 0, ||B_PH,i|| = E_p ||B_P,i||
    and ||B_P,i||^2 = (hbar c)^2 (m^2 c^4 + c^2 q_i) / E_p^2, or (hbar c)^2 q_i
    for p x B_P, q_i = |p|^2 - p_i^2; so ||Z_i||^2 = (a^2 E_p^2 + s^2) ||B_P,i||^2."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or not np.all(np.isfinite(ts)):
        raise ValueError("times must be a finite 1-D array")
    ep, esq, p = ctx.energy, square(ctx.energy), ctx.p
    phi = 2.0 * ep * ts / ctx.hbar
    a, s = (np.cos(phi) - 1.0) / esq, np.sin(phi) / ep
    e = np.einsum("...a,...kiab,...b->...ki", psi.conj(), ctx.wobble_basis, psi)
    if p.ndim == 1:  # one context: the times are a new axis
        e = e[..., None, :, :]
    # sup_i ||B_P,i||^2 / (hbar c)^2 of each wobble, at the largest q_i:
    # |p|^2 less the smallest p_i^2
    q = dots(p, p) - np.min(p * p, axis=-1)
    gram = {"position": (square(ctx.mass * ctx.c ** 2) + ctx.c ** 2 * q) / esq, "spin": q}
    # <p x Z> = p x <Z>
    e = np.stack([np.cross(p[..., None, :], e) if w == "spin" else e for w in wobbles], axis=-4)
    e_ph, e_p = e[..., 0, :], e[..., 1, :]
    sup_bp = squarable("hbar c in the wobble norm", ctx.hbar * ctx.c) ** 2 * np.array(
        [gram[w] for w in wobbles])
    norms = np.sqrt(np.reshape(sup_bp, (len(wobbles), -1)) * (a * a * esq + s * s))
    a, s = _col(a), _col(s)
    # with b = -i s: a e_PH + b e_P = (a Re e_PH + s Im e_P) + i (a Im e_PH - s Re e_P)
    if np.any(np.abs(a * e_ph.imag - s * e_p.real) > _col(1e-10 * np.fmax(1.0, norms))):
        raise ValueError("expectation of a Hermitian operator came out complex")
    return a * e_ph.real + s * e_p.imag


def zitter_position_expectation(spec: SuperpositionSpec, ctx: DiracContext,
                                t: float) -> np.ndarray:
    """<Psi| Z_r(t) |Psi> at one time; a real length 3-vector."""
    return wobble_expectations(ctx, spec.state_vector(ctx), [t], ("position",))[0, 0]


# --- closed forms -------------------------------------------------------------

def amplitude_frequency(theta: float, ctx: DiracContext) -> tuple[float, float]:
    """Oscillation amplitude and angular frequency of the position wobble,

    A = sin(2 theta) (hbar c / 2 E_p)(m c^2 / E_p),  omega = 2 E_p / hbar,

    for the equal-helicity positive/negative energy mix; floats, or one
    value per trial of a stacked context.
    """
    ep = ctx.energy
    a = np.sin(2.0 * theta) * ctx.wobble_scale * (ctx.mass * ctx.c ** 2 / ep)
    omega = 2.0 * ep / ctx.hbar
    return _value(a), _value(omega)


def position_closed_form(theta: float, ctx: DiracContext, t) -> np.ndarray:
    """-phat A sin(omega t) for the (1, 3) mix; shape (3,), or (T, 3) for an
    array of T times, or for a stacked context with one theta and t per
    trial."""
    a, omega = amplitude_frequency(theta, ctx)
    return -ctx.phat * _col(a) * _col(np.sin(omega * np.asarray(t, dtype=float)))


def spin_closed_form(theta: float, ctx: DiracContext, t) -> np.ndarray:
    """Spin wobble of the (1, 4) mix for general momentum; shapes as in
    ``position_closed_form``."""
    px, py, pz = ctx.p.T  # numpy floats on one context, not 0-d arrays, for square
    ppz, w = ctx.norm_plus_pz, 2.0 * ctx.energy / ctx.hbar
    cw, sw = np.cos(w * t) - 1.0, np.sin(w * t)
    ex = -cw * (square(py) / ppz + pz) + sw * (px * py / ppz)
    ey = cw * (px * py / ppz) - sw * (square(px) / ppz + pz)
    ez = cw * px + sw * py
    return _col(-np.sin(2.0 * theta) * ctx.wobble_scale) * np.stack([ex, ey, ez], axis=-1)


def spin_closed_form_z(theta: float, ctx: DiracContext, t: float) -> np.ndarray:
    """Spin wobble of the (1, 4) mix for one momentum along +z,

    sin(2 theta) (c hbar p / E_p) sin(E_p t / hbar)
        [cos(E_p t / hbar) yhat - sin(E_p t / hbar) xhat].
    """
    p, ep = ctx.pnorm, ctx.energy
    half = ep * t / ctx.hbar
    coeff = np.sin(2.0 * theta) * (ctx.c * ctx.hbar * p / ep) * np.sin(half)
    return coeff * np.array([-np.sin(half), np.cos(half), 0.0])


def alpha_matrix_element_14(ctx: DiracContext) -> np.ndarray:
    """<Psi_1| alpha |Psi_4> in closed form (a complex 3-vector), for one
    momentum."""
    px, py = ctx.p[0], ctx.p[1]
    p, ppz, pm = ctx.pnorm, ctx.norm_plus_pz, ctx.p_minus
    return np.array([1.0 - px * pm / (p * ppz), -(1j + py * pm / (p * ppz)), -pm / p])


# --- the zitter suite ---------------------------------------------------------

def _uniform(low, high, u):
    """``Generator.uniform(low, high)``'s own arithmetic on draws u of ``Generator.random``."""
    return low + (high - low) * u


def wobble_columns(rngs, hbar: float, c: float):
    """The zitter suite's columns: each trial draws a momentum p, a mixing
    angle and a time t from one ``random(5)`` call of its generator in
    ``rngs``, each mapped as ``uniform`` maps a draw; t's range, two
    wobble periods 4 pi hbar / E_p, needs that trial's E_p, and raises
    NonFiniteValue where it overflows (at hbar above about 1.4e307 E_p).
    The trials are one stacked DiracContext at ``hbar`` and ``c``, and one
    ``wobble_expectations`` call gives both wobbles of the mix of each
    pair with a closed form (PAIRS) and of the pure state (1,3).  Each mix
    is held to the closed form of the wobble its pair shows, the pure
    state's position wobble and the (1,3) mix's spin wobble to zero."""
    u = np.array([rng.random(5) for rng in rngs])
    p = _uniform(-1.0, 1.0, u[:, :3])
    p[:, 2] = abs(p[:, 2]) + 0.2  # stay clear of the -z polar singularity
    ctx = DiracContext(p=p, hbar=hbar, c=c)
    theta = _uniform(0.0, np.pi / 2.0, u[:, 3])
    closed = [(pair, wobble, globals()[name]) for pair, (wobble, name) in PAIRS.items() if name]
    # the states first: they refuse an E_p that underflows, which the range divides by
    mixes = [SuperpositionSpec(theta, pair).state_vector(ctx) for pair, _, _ in closed]
    span = 4.0 * np.pi * ctx.hbar / ctx.energy
    if not np.isfinite(span).all():
        raise NonFiniteValue("the time range 4 pi hbar / E_p is not finite")
    t = _uniform(0.0, span, u[:, 4])
    # both wobbles of each mix, (1,3) first, then of the pure state (1,3)
    series = wobble_expectations(
        ctx, np.stack(mixes + [SuperpositionSpec(0.0, (1, 3)).state_vector(ctx)]), t)
    devs = [(f"{wobble}_vs_closed", series[i, WOBBLES.index(wobble)] - closed_form(theta, ctx, t))
            for i, (_, wobble, closed_form) in enumerate(closed)]
    devs += [("pure_energy_zero", series[-1, 0], 1e-14),
             ("same_helicity_spin_zero", series[0, 1], 1e-14)]
    # relative to the wobble's size
    return [(name, np.abs(dev).max(axis=1), ctx.wobble_scale, *tol) for name, dev, *tol in devs]


def wobble_timeseries(p, hbar: float, c: float, theta: float, pair, steps: int, t_max=None):
    """The zitter export of the mix ``SuperpositionSpec(theta, pair)`` of
    an electron of momentum ``p`` at ``hbar`` and ``c``, one DiracContext:
    ``steps`` equally spaced times over [0, its ``export_window(t_max)``],
    its columns and its verdict column.  The columns are the x, y and z of
    the wobble the pair shows (PAIRS), then, for a pair with a closed
    form, the closed form's x, y and z and each time's largest deviation
    |numeric - closed|.  The verdict column is ("abs_dev", the largest
    deviation, 0 where nothing is compared, hbar c / 2 E_p): relative to
    the wobble's size, as the suite's residuals are.

    The numeric columns are one ``wobble_expectations`` call on the whole
    grid for the one wobble: the state meets the context's two basis
    operators once, and each time costs a few scalar operations, with no
    operator per time."""
    ctx = DiracContext(p=p, hbar=hbar, c=c)
    # the mix checks theta and the pair, and its states E_p, before the window reads them
    psi = SuperpositionSpec(theta, pair).state_vector(ctx)
    wobble, name = PAIRS[pair]
    ts = np.linspace(0.0, ctx.export_window(t_max), steps)
    num, = wobble_expectations(ctx, psi, ts, (wobble,))
    cols, dev = tuple(num.T), np.empty(0)
    if name is not None:
        closed = globals()[name](theta, ctx, ts)
        dev = np.abs(num - closed).max(axis=1)
        cols += (*closed.T, dev)
    return ts, cols, ("abs_dev", dev.max(initial=0.0), ctx.wobble_scale)


# --- projectors ----------------------------------------------------------------

def projectors(ctx: DiracContext) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Energy projectors (1 +- H/E_p)/2 and helicity projectors (1 +- 2 Lambda/hbar)/2."""
    h = ctx.hmat / _col(_col(ctx.energy))
    lam = 2.0 * helicity_operator(ctx) / ctx.hbar
    eye = np.eye(4)
    return tuple(readonly(0.5 * m) for m in (eye + h, eye - h, eye + lam, eye - lam))


# --- SI reporting ---------------------------------------------------------------

PLANCK_H_SI = 6.62607015e-34        # J s
LIGHT_SPEED_SI = 2.99792458e8       # m / s
ELECTRON_MASS_SI = 9.10938188e-31   # kg


def compton_wavelength_si() -> float:
    """h / (m c) for the electron, in meters."""
    return PLANCK_H_SI / (ELECTRON_MASS_SI * LIGHT_SPEED_SI)


def amplitude_frequency_si(theta: float = np.pi / 4.0,
                           p_si: float = 0.0) -> tuple[float, float]:
    """Wobble amplitude (m) and frequency (1/s) for an electron of momentum
    p_si (kg m/s): ``amplitude_frequency`` on an SI context."""
    ctx = DiracContext(p=(0.0, 0.0, p_si), mass=ELECTRON_MASS_SI, c=LIGHT_SPEED_SI,
                       hbar=PLANCK_H_SI / (2.0 * np.pi))
    return amplitude_frequency(theta, ctx)
