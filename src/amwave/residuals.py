"""Residual evaluation for every equation set and condition list.

Each evaluator turns an equation into a harmonic residual field by exact
termwise algebra (no grid); the reported number is the field's sup norm
over harmonics and components, relative to max(1, |amplitude scale|), so
a vanishing equation yields a residual at machine precision and the zero
family passes trivially.

The g- and g^2-graded conditions are reported with their coupling factors
stripped, so pass/fail reflects the operator bracket itself rather than
the smallness of g.  Low-level ``*_fields`` functions return the named
residual fields for callers that need amplitudes (scaling tests, gauge
conjugation).  Every check returns columns, ``(name, residual)`` pairs
from ``named_residuals``: ``condition_residuals`` for a condition set,
``full_ym_residuals``, ``maxwell_type_residuals``, ``w_terms`` and
``property_battery`` for the other sets, each scaled by its own rule.
The caller holds a column to its tolerance (``ResidualItem``).  On fields
of a stack of waves (``fields.SolutionFamily.stack``) a column holds one
residual per trial.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .fields import (
    HarmonicField,
    SolutionFamily,
    WaveContext,
    build_potentials,
    comm_ss,
    comm_sv,
    curl,
    div,
    dt,
    fields_from_potentials,
    grad,
    laplacian,
    ncross,
    ndot,
    square,
    vcross,
    vdot,
)

@dataclass(frozen=True)
class ResidualItem:
    name: str
    residual: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def as_dict(self) -> dict:
        return {"name": self.name, "residual": self.residual,
                "tolerance": self.tolerance, "pass": self.passed}


def field_scale(*fields: HarmonicField):
    """max(1, each field's largest amplitude norm), per trial on a stack."""
    return functools.reduce(np.maximum, (f.norm for f in fields), 1.0)


def named_residuals(named_fields, scale) -> list[tuple[str, float | np.ndarray]]:
    """(name, norm / scale) for each named residual field: a float on one
    wave, one value per trial on a stack."""
    return [(name, f.norm / scale) for name, f in named_fields]


# --- full gauge-field equations ------------------------------------------------

def ym_equation_fields(a: HarmonicField, phi: HarmonicField,
                       ctx: WaveContext):
    """The four full field equations, self-interaction terms included."""
    b, e = fields_from_potentials(a, phi, ctx)
    ig = 1j * ctx.g
    inv_c = 1.0 / ctx.c
    return [
        ("div_E", div(e) + ig * (vdot(a, e) - vdot(e, a))),
        ("faraday", (-inv_c) * dt(b) - curl(e)
         + ig * (comm_sv(phi, b) - vcross(a, e) - vcross(e, a))),
        ("div_B", div(b) + ig * (vdot(a, b) - vdot(b, a))),
        ("ampere", (-inv_c) * dt(e) + curl(b)
         + ig * (comm_sv(phi, e) + vcross(a, b) + vcross(b, a))),
    ]


def full_ym_residuals(a: HarmonicField, phi: HarmonicField, ctx: WaveContext):
    return named_residuals(ym_equation_fields(a, phi, ctx), field_scale(a))


def maxwell_type_fields(b: HarmonicField, e: HarmonicField,
                        ctx: WaveContext):
    """The four field equations with every self-interaction term dropped."""
    inv_c = 1.0 / ctx.c
    return [
        ("div_E", div(e)),
        ("faraday", curl(e) + inv_c * dt(b)),
        ("div_B", div(b)),
        ("ampere", curl(b) - inv_c * dt(e)),
    ]


def maxwell_type_residuals(b: HarmonicField, e: HarmonicField, ctx: WaveContext):
    return named_residuals(maxwell_type_fields(b, e, ctx), field_scale(b, e))


# --- graded condition sets ------------------------------------------------------

# The operator brackets the condition sets are made of, each defined once.
# ``w`` carries the potentials a and phi, kn = |k|, and the two products
# every set uses, m = A x A and n = [phi, A].
BRACKETS = {
    "scalar_wave": lambda w: (1j * w.kn) * div(w.a) - laplacian(w.phi),
    "phi_diva": lambda w: comm_ss(w.phi, div(w.a)),
    "a_n_bracket": lambda w: vdot(w.a, w.n) - vdot(w.n, w.a),
    "induction": lambda w: 2.0 * w.kn * w.m + 1j * curl(w.n),
    "div_m": lambda w: div(w.m),
    "div_n": lambda w: div(w.n),
    "vector_wave": lambda w: (grad(div(w.a)) - laplacian(w.a) - square(w.kn) * w.a
                              - (1j * w.kn) * grad(w.phi)),
    "ampere_bracket": lambda w: ((1j * w.kn) * w.n - vcross(w.a, curl(w.a))
                                 - vcross(curl(w.a), w.a) + curl(w.m)
                                 + comm_sv(w.phi, grad(w.phi))),
    "n_curl_m": lambda w: (2j * w.kn) * w.n + curl(w.m),
    "phi_n_bracket": lambda w: (comm_sv(w.phi, w.n) + vcross(w.a, w.m)
                                + vcross(w.m, w.a)),
}

# Each set lists (item name, bracket, unit factor).  The factors are +-1 or
# +-i, which are exact in floating point, so a bracket's residual is the
# same number in every set that lists it.
CONDITION_SETS = {
    # the six conditions left after discarding the g^2 self-interactions
    "wca": (
        ("wca1_scalar_wave", "scalar_wave", 1),
        ("wca2_phi_diva", "phi_diva", 1),
        ("wca3_induction", "induction", 1),
        ("wca4_div_m", "div_m", 1),
        ("wca5_vector_wave", "vector_wave", 1),
        ("wca6_ampere_bracket", "ampere_bracket", 1),
    ),
    # all eight conditions of the unapproximated equations: items 1 and 6
    # are coupling-free, 2, 4, 5 and 7 carry g and 3 and 8 g^2 (factors
    # stripped, see module doc); only 3 and 8 obstruct generic
    # noncommuting amplitudes
    "exact": (
        ("exact1_scalar_wave", "scalar_wave", 1),
        ("exact2_phi_diva", "phi_diva", 1),
        ("exact3_a_n_bracket", "a_n_bracket", 1),
        ("exact4_induction", "induction", 1),
        ("exact5_div_m", "div_m", 1),
        ("exact6_vector_wave", "vector_wave", 1),
        ("exact7_ampere_bracket", "ampere_bracket", -1j),
        ("exact8_phi_n_bracket", "phi_n_bracket", 1),
    ),
    # the six spatial conditions of the zero-coupling (Maxwell-type) system
    "zca": (
        ("zca1_div_m", "div_m", 1),
        ("zca2_curl_n", "induction", -1j),
        ("zca3_scalar_wave", "scalar_wave", 1),
        ("zca4_div_n", "div_n", 1),
        ("zca5_vector_wave", "vector_wave", -1),
        ("zca6_n_curl_m", "n_curl_m", 1),
    ),
}


def condition_fields(label: str, a: HarmonicField,
                     phi: HarmonicField, ctx: WaveContext):
    """The named residual fields of one condition set; only the brackets
    the set lists are evaluated."""
    w = SimpleNamespace(a=a, phi=phi, kn=ctx.knorm, m=vcross(a, a), n=comm_sv(phi, a))
    out = []
    for name, bracket, factor in CONDITION_SETS[label]:
        res = BRACKETS[bracket](w)
        out.append((name, res if factor == 1 else factor * res))
    return out


def condition_residuals(label: str, fam: SolutionFamily):
    """(name, residual) for each item of a condition set on a family's
    potentials; on a stacked family, one residual per trial."""
    a, phi = build_potentials(fam)
    return named_residuals(condition_fields(label, a, phi, fam.ctx), field_scale(a))


# condition_residuals("zca", ...) under the name perfbench/probes.py times
def zca_conditions(fam: SolutionFamily):
    return condition_residuals("zca", fam)


# --- difference terms between the two approximations ----------------------------

def w_term_fields(a: HarmonicField, phi: HarmonicField,
                  ctx: WaveContext):
    """The four terms separating the approximated equation sets.

    These carry their explicit i*g factors (so they vanish identically at
    g = 0) and vanish on every solution family.
    """
    ig = 1j * ctx.g
    at = (1.0 / ctx.c) * dt(a)
    gp = grad(phi)
    return [
        ("w1", (-ig) * (vdot(a, at) - vdot(at, a) + vdot(a, gp) - vdot(gp, a))),
        ("w2", ig * (vcross(a, at) + vcross(at, a) + comm_sv(phi, curl(a))
                     + vcross(gp, a) + vcross(a, gp))),
        ("w3", (-ig) * div(vcross(a, a))),
        ("w4", (-ig) * (comm_sv(phi, at) + comm_sv(phi, gp)
                        - vcross(a, curl(a)) - vcross(curl(a), a))),
    ]


def w_terms(a: HarmonicField, phi: HarmonicField, ctx: WaveContext):
    return named_residuals(w_term_fields(a, phi, ctx), field_scale(a))


# --- transversality / orthogonality battery --------------------------------------

def perpendicular_part(v: HarmonicField, direction: np.ndarray) -> HarmonicField:
    """Componentwise projection of every amplitude orthogonal to a unit
    vector (one per trial on a stack)."""
    nhat = np.asarray(direction, dtype=float)
    along = np.einsum("...i,h...iab->h...ab", nhat, v.amps)
    perp = v.amps - np.einsum("...i,h...ab->h...iab", nhat, along)
    return v.with_amps(perp)


def property_battery_fields(b: HarmonicField, e: HarmonicField,
                            ctx: WaveContext):
    khat = ctx.khat
    return [
        ("khat_dot_B", ndot(khat, b)),
        ("khat_dot_E", ndot(khat, e)),
        ("B_dot_E", vdot(b, e)),
        ("B_minus_khat_cross_E", b - ncross(khat, e)),
        ("E_minus_B_cross_khat", e + ncross(khat, b)),
        ("B_cross_B", vcross(b, b)),
        ("E_cross_E", vcross(e, e)),
        ("ExB_perpendicular_part", perpendicular_part(vcross(e, b), khat)),
    ]


def property_battery(b: HarmonicField, e: HarmonicField, ctx: WaveContext):
    return named_residuals(property_battery_fields(b, e, ctx), field_scale(b, e))
