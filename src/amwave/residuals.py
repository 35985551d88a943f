"""One table of equations, read by one evaluator.

Every check behind the condition suites is a per-harmonic operator
identity of the paper.  ``EQUATIONS`` holds each set of them as a row:
the full gauge-field equations (``full``), the six weak-coupling
(``wca``), eight exact (``exact``) and six zero-coupling (``zca``)
conditions, the Maxwell-type equations (``maxwell``), the w-terms
(``w``) and the transversality battery (``battery``).  A row holds its
scale rule, the terms whose largest amplitude norm scales its residuals
(``a``, or ``b, e``), and its ``(item name, expression)`` entries; each
expression is defined once in ``BRACKETS``.

``equation_fields(label, terms)`` evaluates a row into named residual
fields by exact termwise algebra (no grid), and ``equation_columns``
turns them into columns, ``(name, norm, scale)``: the field's sup norm
over harmonics and components, and the row's scale.  ``terms`` is a
``Terms``, a wave's potentials and context with the products the
expressions share, each built once, when an expression first reads it.
On a stack of waves (a ``fields.SolutionFamily`` of T trials) a column
holds one norm and one scale per trial.

Every check of the package, these rows and the suites' other columns,
is judged one way (``cli.judge``): its residual is ``relative(norm,
scale)``, the norm divided by max(1, scale), so a vanishing equation
reads machine precision and the zero family passes trivially, and it
passes when |residual| <= its tolerance.

The g- and g^2-graded conditions carry no coupling factor, so pass/fail
reflects the operator bracket itself rather than the smallness of g; the
full equations and the w-terms keep their explicit i*g.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .algebra import outer, real_dot, square
from .fields import (
    HarmonicField,
    SolutionFamily,
    WaveContext,
    build_fields,
    build_potentials,
    comm_ss,
    comm_sv,
    curl,
    div,
    dt,
    grad,
    laplacian,
    ncross,
    ndot,
    vcross,
    vdot,
)


def relative(norm, scale):
    """norm / max(1, scale), a float or one value per trial: every residual
    is relative to its scale, and absolute below a scale of 1."""
    return norm / np.maximum(1.0, scale)


def field_scale(*fields: HarmonicField):
    """Each field's largest amplitude norm, the largest of them, per trial
    on a stack."""
    return functools.reduce(np.maximum, (f.norm for f in fields))


def perpendicular_part(v: HarmonicField, direction: np.ndarray) -> HarmonicField:
    """Componentwise projection of every amplitude orthogonal to a unit
    vector (one per trial on a stack)."""
    nhat, batch = np.asarray(direction, dtype=float), v.ctx.batch_shape
    return v.with_amps(v.amps - outer(nhat, real_dot(nhat, v.amps, batch), batch))


class Terms:
    """A wave's potentials ``a``, ``phi`` and context, and the products the
    expressions share, each built when an expression first reads it.

    ``bp``, ``ep`` are the fields of the potentials by the defining
    relations B = curl A - i g A x A, E = -dA/dt / c - grad phi - i g [phi, A];
    ``b``, ``e`` are the closed-form fields: ``fields`` when given, else
    the family's (``build_fields``), so ``Terms.of(fam)`` and
    ``Terms.of_fields(b, e)`` have them.
    """

    def __init__(self, a: HarmonicField | None, phi: HarmonicField | None, ctx: WaveContext,
                 fam: SolutionFamily | None = None,
                 fields: tuple[HarmonicField, HarmonicField] | None = None):
        self.a, self.phi, self.ctx, self.fam, self.given = a, phi, ctx, fam, fields
        self.kn, self.ig, self.inv_c = ctx.knorm, 1j * ctx.g, 1.0 / ctx.c

    @classmethod
    def of(cls, fam: SolutionFamily) -> "Terms":
        return cls(*build_potentials(fam), fam.ctx, fam)

    @classmethod
    def of_fields(cls, b: HarmonicField, e: HarmonicField) -> "Terms":
        """A wave known by its closed-form fields alone, such as a boosted
        one: it has no potentials, so only the rows that read ``b`` and
        ``e`` (``maxwell``, ``battery``) evaluate on it."""
        return cls(None, None, b.ctx, fields=(b, e))

    m = functools.cached_property(lambda w: vcross(w.a, w.a))     # A x A
    n = functools.cached_property(lambda w: comm_sv(w.phi, w.a))  # [phi, A]
    at = functools.cached_property(lambda w: w.inv_c * dt(w.a))   # dA/dt / c
    gp = functools.cached_property(lambda w: grad(w.phi))
    ca = functools.cached_property(lambda w: curl(w.a))
    da = functools.cached_property(lambda w: div(w.a))
    bp = functools.cached_property(lambda w: w.ca - w.ig * w.m)
    ep = functools.cached_property(lambda w: -w.at - w.gp - w.ig * w.n)
    fields = functools.cached_property(
        lambda w: build_fields(w.fam) if w.given is None else w.given)
    b = property(lambda w: w.fields[0])
    e = property(lambda w: w.fields[1])


# Every expression of the table, each defined once; ``w`` is a Terms.
BRACKETS = {
    # the full field equations, self-interaction terms included
    "ym_div_E": lambda w: div(w.ep) + w.ig * (vdot(w.a, w.ep) - vdot(w.ep, w.a)),
    "ym_faraday": lambda w: ((-w.inv_c) * dt(w.bp) - curl(w.ep)
                             + w.ig * (comm_sv(w.phi, w.bp) - vcross(w.a, w.ep)
                                       - vcross(w.ep, w.a))),
    "ym_div_B": lambda w: div(w.bp) + w.ig * (vdot(w.a, w.bp) - vdot(w.bp, w.a)),
    "ym_ampere": lambda w: ((-w.inv_c) * dt(w.ep) + curl(w.bp)
                            + w.ig * (comm_sv(w.phi, w.ep) + vcross(w.a, w.bp)
                                      + vcross(w.bp, w.a))),
    # the operator brackets of the graded condition sets
    "scalar_wave": lambda w: (1j * w.kn) * w.da - laplacian(w.phi),
    "phi_diva": lambda w: comm_ss(w.phi, w.da),
    "a_n_bracket": lambda w: vdot(w.a, w.n) - vdot(w.n, w.a),
    "induction": lambda w: 2.0 * w.kn * w.m + 1j * curl(w.n),
    "div_m": lambda w: div(w.m),
    "div_n": lambda w: div(w.n),
    "vector_wave": lambda w: (grad(w.da) - laplacian(w.a) - square(w.kn) * w.a
                              - (1j * w.kn) * w.gp),
    "ampere_bracket": lambda w: ((1j * w.kn) * w.n - vcross(w.a, w.ca)
                                 - vcross(w.ca, w.a) + curl(w.m)
                                 + comm_sv(w.phi, w.gp)),
    "n_curl_m": lambda w: (2j * w.kn) * w.n + curl(w.m),
    "phi_n_bracket": lambda w: (comm_sv(w.phi, w.n) + vcross(w.a, w.m)
                                + vcross(w.m, w.a)),
    # the field equations with every self-interaction term dropped
    "div_E": lambda w: div(w.e),
    "faraday": lambda w: curl(w.e) + w.inv_c * dt(w.b),
    "div_B": lambda w: div(w.b),
    "ampere": lambda w: curl(w.b) - w.inv_c * dt(w.e),
    # the terms separating the approximated equation sets; they carry
    # their i*g, so they vanish identically at g = 0
    "w1": lambda w: (-w.ig) * (vdot(w.a, w.at) - vdot(w.at, w.a)
                               + vdot(w.a, w.gp) - vdot(w.gp, w.a)),
    "w2": lambda w: w.ig * (vcross(w.a, w.at) + vcross(w.at, w.a) + comm_sv(w.phi, w.ca)
                            + vcross(w.gp, w.a) + vcross(w.a, w.gp)),
    "w3": lambda w: (-w.ig) * div(w.m),
    "w4": lambda w: (-w.ig) * (comm_sv(w.phi, w.at) + comm_sv(w.phi, w.gp)
                               - vcross(w.a, w.ca) - vcross(w.ca, w.a)),
    # transversality and orthogonality of the closed-form fields
    "khat_dot_B": lambda w: ndot(w.ctx.khat, w.b),
    "khat_dot_E": lambda w: ndot(w.ctx.khat, w.e),
    "B_dot_E": lambda w: vdot(w.b, w.e),
    "B_minus_khat_cross_E": lambda w: w.b - ncross(w.ctx.khat, w.e),
    "E_minus_B_cross_khat": lambda w: w.e + ncross(w.ctx.khat, w.b),
    "B_cross_B": lambda w: vcross(w.b, w.b),
    "E_cross_E": lambda w: vcross(w.e, w.e),
    "ExB_perpendicular_part": lambda w: perpendicular_part(vcross(w.e, w.b), w.ctx.khat),
}


class EquationSet(NamedTuple):
    scale: tuple[str, ...]  # the terms whose largest norm scales a residual
    items: tuple[tuple[str, str], ...]  # (name, expression)


EQUATIONS = {
    "full": EquationSet(("a",), (("div_E", "ym_div_E"), ("faraday", "ym_faraday"),
                                 ("div_B", "ym_div_B"), ("ampere", "ym_ampere"))),
    # the six conditions left after discarding the g^2 self-interactions
    "wca": EquationSet(("a",), (
        ("wca1_scalar_wave", "scalar_wave"),
        ("wca2_phi_diva", "phi_diva"),
        ("wca3_induction", "induction"),
        ("wca4_div_m", "div_m"),
        ("wca5_vector_wave", "vector_wave"),
        ("wca6_ampere_bracket", "ampere_bracket"),
    )),
    # all eight conditions of the unapproximated equations: items 1 and 6
    # are coupling-free, 2, 4, 5 and 7 carry g and 3 and 8 g^2 (factors
    # stripped, see module doc); only 3 and 8 obstruct generic
    # noncommuting amplitudes
    "exact": EquationSet(("a",), (
        ("exact1_scalar_wave", "scalar_wave"),
        ("exact2_phi_diva", "phi_diva"),
        ("exact3_a_n_bracket", "a_n_bracket"),
        ("exact4_induction", "induction"),
        ("exact5_div_m", "div_m"),
        ("exact6_vector_wave", "vector_wave"),
        ("exact7_ampere_bracket", "ampere_bracket"),
        ("exact8_phi_n_bracket", "phi_n_bracket"),
    )),
    # the six spatial conditions of the zero-coupling (Maxwell-type) system
    "zca": EquationSet(("a",), (
        ("zca1_div_m", "div_m"),
        ("zca2_curl_n", "induction"),
        ("zca3_scalar_wave", "scalar_wave"),
        ("zca4_div_n", "div_n"),
        ("zca5_vector_wave", "vector_wave"),
        ("zca6_n_curl_m", "n_curl_m"),
    )),
    "maxwell": EquationSet(("b", "e"), tuple((n, n) for n in (
        "div_E", "faraday", "div_B", "ampere"))),
    "w": EquationSet(("a",), tuple((n, n) for n in ("w1", "w2", "w3", "w4"))),
    "battery": EquationSet(("b", "e"), tuple((n, n) for n in (
        "khat_dot_B", "khat_dot_E", "B_dot_E", "B_minus_khat_cross_E",
        "E_minus_B_cross_khat", "B_cross_B", "E_cross_E", "ExB_perpendicular_part"))),
}


def equation_fields(label: str, terms: Terms) -> list[tuple[str, HarmonicField]]:
    """The named residual fields of one set; only the expressions the set
    lists are evaluated, and only the products they read are built."""
    return [(name, BRACKETS[expr](terms)) for name, expr in EQUATIONS[label].items]


def equation_columns(label: str, terms: Terms):
    """(name, norm, scale) for each item of one set, the scale by the set's
    rule; on a stacked family, one norm and one scale per trial."""
    scale = field_scale(*(getattr(terms, t) for t in EQUATIONS[label].scale))
    return [(name, f.norm, scale) for name, f in equation_fields(label, terms)]


# the zca set on a family, under the name perfbench/probes.py times
def zca_conditions(fam: SolutionFamily):
    return equation_columns("zca", Terms.of(fam))
