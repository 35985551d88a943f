import numpy as np
import pytest

import amwave.residuals
from amwave.algebra import commutator, cross, dot, make_generators, operator_norm as norm
from amwave.cli import SUITE_TABLE, _table, judge
from amwave.fields import (
    SolutionFamily,
    WaveContext,
    build_fields,
    build_potentials,
    field,
    random_family,
    vcross,
)
from amwave.residuals import (
    BRACKETS,
    EQUATIONS,
    Terms,
    equation_columns,
    equation_fields,
    field_scale,
    relative,
)

from support import (
    abelian_family,
    equation_residuals,
    judged_items,
    fd_curl,
    fd_div,
    fd_dt,
    fd_grad,
    fd_laplacian,
    noncoplanar_family,
    stack_families,
    xz_family,
)

ALL_KINDS = ("su2_spin_half", "su2_spin_one", "su3_gellmann")
TOL = 1e-12


def failed(cols, tol=TOL):
    """The (name, residual) columns a tolerance fails; a NaN fails."""
    return [(name, r) for name, r in cols if not r <= tol]


def residuals(label, fam):
    """One set's columns on a family's potentials and closed-form fields."""
    return equation_residuals(label, Terms.of(fam))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_wca_random_families_pass(kind):
    rng = np.random.default_rng(17)
    for _ in range(20):
        fam = random_family(make_generators(kind), rng, g=rng.uniform(0, 1))
        cols = residuals("wca", fam)
        assert not failed(cols), failed(cols)


@pytest.mark.parametrize("kind", ["su2_spin_half", "su2_spin_one"])
def test_true_families_pass_the_condition_rows_off_unit_wave_number(kind):
    # at |k| = 1 a bracket with a wrong power of |k| reads the same
    rng = np.random.default_rng(19)
    for knorm in (0.4, 2.5):
        for _ in range(5):
            k = rng.normal(size=3)
            fam = random_family(make_generators(kind), rng, k=knorm * k / np.linalg.norm(k))
            for label in ("wca", "zca"):
                cols = residuals(label, fam)
                assert not failed(cols), (knorm, label, failed(cols))


def test_wca_non_coplanar_fails_div_m():
    rng = np.random.default_rng(23)
    fam = noncoplanar_family(make_generators("su2_spin_half"), rng)
    by_name = dict(residuals("wca", fam))
    assert not by_name["wca4_div_m"] <= TOL
    assert by_name["wca4_div_m"] > 1e-6


def test_zero_family_trivially_passes():
    ctx = WaveContext(generators=make_generators("su2_spin_half"),
                      k=np.array([0, 0, 1.0]))
    zero = np.zeros(3)
    fam = SolutionFamily(ctx=ctx, R=(zero, zero, zero, zero))
    for label in ("wca", "zca", "exact"):
        cols = residuals(label, fam)
        assert not failed(cols)
        assert all(r == 0.0 for _, r in cols)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_exact_set_dichotomy(kind):
    rng = np.random.default_rng(29)
    fam = random_family(make_generators(kind), rng)
    by_name = {name.split("_")[0]: r for name, r in residuals("exact", fam)}
    for idx in (1, 2, 4, 5, 6, 7):
        assert by_name[f"exact{idx}"] <= TOL
    assert not by_name["exact3"] <= TOL
    assert not by_name["exact8"] <= TOL
    # projecting out the commutators restores exactness
    ab = abelian_family(make_generators(kind), rng)
    assert not failed(residuals("exact", ab))


def test_exact8_bracket_nonzero_on_xz():
    residual = dict(residuals("exact", xz_family()))["exact8_phi_n_bracket"]
    assert residual > 1e-3


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_zca_conditions_pass(kind):
    rng = np.random.default_rng(31)
    for _ in range(10):
        fam = random_family(make_generators(kind), rng)
        assert not failed(residuals("zca", fam))


def test_zca_s3_field_identically_zero():
    fam = xz_family()
    fields = dict(equation_fields("zca", Terms.of(fam)))
    assert fields["zca3_scalar_wave"].norm <= 1e-14


def test_zca_non_coplanar_fails_s1():
    rng = np.random.default_rng(37)
    fam = noncoplanar_family(make_generators("su2_spin_one"), rng)
    name, residual = residuals("zca", fam)[0]
    assert name == "zca1_div_m" and not residual <= TOL


def test_full_ym_residual_lives_at_third_harmonic():
    rng = np.random.default_rng(41)
    fam = random_family(make_generators("su2_spin_half"), rng, g=0.2)
    fields = dict(equation_fields("full", Terms.of(fam)))
    for name in ("div_E", "ampere"):
        field = fields[name]
        assert norm(field.amplitude(3)) > 1e-6
        assert norm(field.amplitude(1)) <= 1e-12
        assert norm(field.amplitude(2)) <= 1e-12
    for name in ("faraday", "div_B"):
        assert fields[name].norm <= 1e-12


def test_full_ym_exact_for_abelian_and_classical():
    rng = np.random.default_rng(43)
    fam = abelian_family(make_generators("su2_spin_one"), rng, g=0.7)
    assert not failed(residuals("full", fam))
    # classical limit: g = 0 and identity amplitude
    ctx = WaveContext(generators=make_generators("su2_spin_half"),
                      k=np.array([0.3, -0.1, 0.9]), g=0.0)
    zero = np.zeros(3)
    fam0 = SolutionFamily(ctx=ctx, R=(np.array([0.5, 0.2, -0.4]), zero, zero, zero))
    assert not failed(residuals("full", fam0))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_w_terms_vanish_on_solutions(kind):
    rng = np.random.default_rng(47)
    for _ in range(5):
        fam = random_family(make_generators(kind), rng, g=rng.uniform(0, 1))
        assert not failed(residuals("w", fam))


def test_w_terms_identically_zero_at_g0():
    fam = xz_family(g=0.0)
    for _, field in equation_fields("w", Terms.of(fam)):
        assert field.orders == () and field.norm == 0.0


def test_w4_detects_wrong_scalar_potential():
    fam = xz_family()
    a, phi = build_potentials(fam)
    doubled = 2.0 * phi
    by_name = dict(equation_residuals("w", Terms(a, doubled, fam.ctx)))
    assert not by_name["w4"] <= TOL
    assert by_name["w4"] > 1e-6


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_property_battery(kind):
    rng = np.random.default_rng(53)
    fam = random_family(make_generators(kind), rng)
    assert not failed(residuals("battery", fam))
    assert not failed(residuals("maxwell", fam))


def test_property_battery_classical_limit():
    ctx = WaveContext(generators=make_generators("su2_spin_half"),
                      k=np.array([0, 0, 1.0]), g=0.0)
    zero = np.zeros(3)
    fam = SolutionFamily(ctx=ctx, R=(np.array([1.0, 0.5, 0.0]), zero, zero, zero))
    assert not failed(residuals("battery", fam))


def test_b_dot_e_vanishes_per_order():
    from amwave.fields import vdot
    rng = np.random.default_rng(59)
    fam = random_family(make_generators("su2_spin_half"), rng, g=0.4)
    b, e = build_fields(fam)
    prod = vdot(b, e)
    for order in (2, 3, 4):
        assert norm(prod.amplitude(order)) <= 1e-12


def test_wca_equivalent_to_low_harmonic_full_ym():
    # the conditions hold iff the full equations vanish on the harmonics
    # fed only by the g^0/g^1 terms (orders 1 and 2)
    rng = np.random.default_rng(61)
    for trial in range(25):
        kind = ALL_KINDS[trial % 3]
        coplanar = trial % 5 != 4
        draw = random_family if coplanar else noncoplanar_family
        fam = draw(make_generators(kind), rng, g=0.3)
        terms = Terms.of(fam)
        wca_pass = all(f.norm <= 1e-12 for _, f in equation_fields("wca", terms))
        low = 0.0
        for _, field in equation_fields("full", terms):
            for m in (1, 2):
                low = max(low, norm(field.amplitude(m)))
        assert wca_pass == (low <= 1e-12), (trial, wca_pass, low)


def test_exact_g2_pass_implies_full_pass():
    rng = np.random.default_rng(67)
    for _ in range(5):
        fam = abelian_family(make_generators("su2_spin_one"), rng)
        by_name = {name.split("_")[0]: r for name, r in residuals("exact", fam)}
        assert by_name["exact3"] <= TOL and by_name["exact8"] <= TOL
        assert not failed(residuals("full", fam))


def test_fd_sampling_agrees_with_analytic_residuals():
    # evaluate the zero-coupling field equations from difference quotients
    # at sample points; they agree with the (vanishing) analytic residual
    rng = np.random.default_rng(71)
    fam = random_family(make_generators("su2_spin_half"), rng, g=0.25)
    b, e = build_fields(fam)
    ctx = fam.ctx
    h = 1e-3 * 2 * np.pi / ctx.knorm
    scale = max(1.0, norm(fam.tau))
    for _ in range(5):
        r, t = rng.uniform(-2, 2, 3), rng.uniform(0, 5)
        div_e = fd_div(e, r, t, h).extrapolated
        faraday = fd_curl(e, r, t, h).extrapolated \
            + (1.0 / ctx.c) * fd_dt(b, r, t, h).extrapolated
        assert norm(div_e) / scale <= 1e-6
        assert norm(faraday) / scale <= 1e-6
    # and a deliberately broken configuration yields matching nonzero values
    bad = noncoplanar_family(make_generators("su2_spin_half"), rng)
    a_bad, _ = build_potentials(bad)
    m_bad = vcross(a_bad, a_bad)
    from amwave.fields import div as fdiv
    analytic = fdiv(m_bad)
    for _ in range(5):
        r, t = rng.uniform(-2, 2, 3), rng.uniform(0, 5)
        est = fd_div(m_bad, r, t, h).extrapolated
        want = analytic.eval_at(r, t)
        assert norm(est - want) / max(1.0, norm(want)) <= 1e-6


class Pointwise:
    """A function of (r, t) as an object the fd_* oracles can difference."""

    def __init__(self, fn):
        self.eval_at = fn


def pointwise_ym(a, phi, ctx, h):
    """The ym_* expressions, w3 and phi_n_bracket as functions of (r, t),
    each built point by point from eval_at values, the algebra kernels and
    the finite-difference oracles, with none of the termwise field algebra."""
    ig, inv_c = 1j * ctx.g, 1.0 / ctx.c

    def d(oracle, f, r, t):
        return oracle(f, r, t, h).extrapolated

    bp = Pointwise(lambda r, t: d(fd_curl, a, r, t)
                   - ig * cross(a.eval_at(r, t), a.eval_at(r, t)))
    ep = Pointwise(lambda r, t: -inv_c * d(fd_dt, a, r, t) - d(fd_grad, phi, r, t)
                   - ig * commutator(phi.eval_at(r, t), a.eval_at(r, t)))
    m = Pointwise(lambda r, t: cross(a.eval_at(r, t), a.eval_at(r, t)))

    def ym(r, t):
        av, pv, bv, ev = (f.eval_at(r, t) for f in (a, phi, bp, ep))
        nv, mv = commutator(pv, av), cross(av, av)
        return {
            "ym_div_E": d(fd_div, ep, r, t) + ig * (dot(av, ev) - dot(ev, av)),
            "ym_faraday": (-inv_c * d(fd_dt, bp, r, t) - d(fd_curl, ep, r, t)
                           + ig * (commutator(pv, bv) - cross(av, ev) - cross(ev, av))),
            "ym_div_B": d(fd_div, bp, r, t) + ig * (dot(av, bv) - dot(bv, av)),
            "ym_ampere": (-inv_c * d(fd_dt, ep, r, t) + d(fd_curl, bp, r, t)
                          + ig * (commutator(pv, ev) + cross(av, bv) + cross(bv, av))),
            "w3": -ig * d(fd_div, m, r, t),
            "phi_n_bracket": commutator(pv, nv) + cross(av, mv) + cross(mv, av),
        }
    return ym


@pytest.mark.parametrize("kind", ("su2_spin_half", "su3_gellmann"))
def test_ym_and_w3_brackets_match_a_pointwise_finite_difference_oracle(kind):
    # random first-harmonic potentials that solve nothing, so each term of
    # every expression is O(1) and a wrong sign or operand shows
    rng = np.random.default_rng(83)
    gens = make_generators(kind)
    d = gens.dim
    ctx = WaveContext(generators=gens, k=rng.normal(size=3), c=1.3, g=0.7)

    def unit_amplitude(*shape):  # each (d, d) block of Frobenius norm <= 1
        z = rng.uniform(-1, 1, shape + (d, d)) + 1j * rng.uniform(-1, 1, shape + (d, d))
        return z / norm(z)

    a, phi = field(ctx, {1: unit_amplitude(3)}), field(ctx, {1: unit_amplitude()})
    terms = Terms(a, phi, ctx)
    # Each oracle is a Richardson-extrapolated central difference: on a
    # harmonic whose phase moves at rate q along the step it is off by
    # (q h)^4 / 480 relative, and rounding adds about eps / (q h) per
    # differencing, eps / (q h)^2 when nested.  The phase rate of order m
    # is at most m * kappa, kappa = max(|k|, omega), and the outer
    # quotients act on orders up to 2.  With unit amplitudes no term
    # exceeds 3 (2 kappa + 2 |g|)^2: two derivatives or couplings on at
    # most two amplitudes, summed over three components.
    kappa = max(ctx.knorm, ctx.omega)
    h = 1e-2 / kappa
    rel = (2.0 * kappa * h) ** 4 / 480.0 + np.finfo(float).eps / (kappa * h) ** 2
    tol = rel * 3.0 * (2.0 * kappa + 2.0 * abs(ctx.g)) ** 2
    oracle = pointwise_ym(a, phi, ctx, h)
    for _ in range(3):
        r, t = rng.uniform(-2, 2, 3), rng.uniform(0, 5)
        for name, want in oracle(r, t).items():
            got = BRACKETS[name](terms).eval_at(r, t)
            assert norm(got - want) <= tol, (name, norm(got - want), tol)


def pointwise_conditions(a, phi, ctx, h):
    """The brackets of the condition sets but phi_n_bracket (which
    ``pointwise_ym`` builds) as functions of (r, t), from eval_at values,
    the algebra kernels and the finite-difference oracles alone."""
    kn = ctx.knorm

    def d(oracle, f, r, t):
        return oracle(f, r, t, h).extrapolated

    m = Pointwise(lambda r, t: cross(a.eval_at(r, t), a.eval_at(r, t)))
    n = Pointwise(lambda r, t: commutator(phi.eval_at(r, t), a.eval_at(r, t)))
    diva = Pointwise(lambda r, t: d(fd_div, a, r, t))

    def brackets(r, t):
        av, pv, mv, nv, dv = (f.eval_at(r, t) for f in (a, phi, m, n, diva))
        ca, gp, cm = d(fd_curl, a, r, t), d(fd_grad, phi, r, t), d(fd_curl, m, r, t)
        return {
            "scalar_wave": 1j * kn * dv - d(fd_laplacian, phi, r, t),
            "phi_diva": commutator(pv, dv),
            "a_n_bracket": dot(av, nv) - dot(nv, av),
            "induction": 2.0 * kn * mv + 1j * d(fd_curl, n, r, t),
            "div_m": d(fd_div, m, r, t),
            "div_n": d(fd_div, n, r, t),
            "vector_wave": (d(fd_grad, diva, r, t) - d(fd_laplacian, a, r, t)
                            - kn ** 2 * av - 1j * kn * gp),
            "ampere_bracket": (1j * kn * nv - cross(av, ca) - cross(ca, av) + cm
                               + commutator(pv, gp)),
            "n_curl_m": 2j * kn * nv + cm,
        }
    return brackets


@pytest.mark.parametrize("kind", ("su2_spin_half", "su3_gellmann"))
def test_condition_brackets_match_a_pointwise_finite_difference_oracle(kind):
    # On solution families some terms vanish on their own (the a . n
    # bracket of an abelian family; [phi, grad phi] of a one-harmonic
    # phi), so a flipped sign there passes every suite test.  Random
    # potentials that solve nothing, phi with orders 1 and 2, keep every
    # term O(1).
    rng = np.random.default_rng(97)
    gens = make_generators(kind)
    d = gens.dim
    ctx = WaveContext(generators=gens, k=rng.normal(size=3), c=1.3, g=0.7)

    def unit_amplitude(*shape):
        z = rng.uniform(-1, 1, shape + (d, d)) + 1j * rng.uniform(-1, 1, shape + (d, d))
        return z / norm(z)

    a = field(ctx, {1: unit_amplitude(3)})
    phi = field(ctx, {1: unit_amplitude(), 2: unit_amplitude()})
    terms = Terms(a, phi, ctx)
    # The error terms of the ym test, with phase rates up to 3 kappa: the
    # differenced fields hold orders up to 3 (n = [phi, A]).  No term
    # exceeds 3 * 2 * (3 kappa)^2: two derivatives on at most two
    # amplitudes, phi's two of norm <= 1 each, over three components.
    kappa = max(ctx.knorm, ctx.omega)
    h = 1e-2 / kappa
    rel = (3.0 * kappa * h) ** 4 / 480.0 + np.finfo(float).eps / (kappa * h) ** 2
    tol = rel * 3.0 * 2.0 * (3.0 * kappa) ** 2
    oracle = pointwise_conditions(a, phi, ctx, h)
    for _ in range(3):
        r, t = rng.uniform(-2, 2, 3), rng.uniform(0, 5)
        for name, want in oracle(r, t).items():
            got = BRACKETS[name](terms).eval_at(r, t)
            assert norm(got - want) <= tol, (name, norm(got - want), tol)


@pytest.mark.parametrize("kind", ("su2_spin_half", "su3_gellmann"))
def test_exb_perpendicular_part_matches_a_pointwise_oracle(kind):
    # a random two-harmonic pair in place of a family's closed-form B and
    # E: no solution's fields, so E x B differs from E x E or B x E
    rng = np.random.default_rng(89)
    gens = make_generators(kind)
    d = gens.dim
    ctx = WaveContext(generators=gens, k=rng.normal(size=3), c=1.3, g=0.7)

    def unit_amplitude():
        z = rng.uniform(-1, 1, (3, d, d)) + 1j * rng.uniform(-1, 1, (3, d, d))
        return z / norm(z)

    b, e = (field(ctx, {1: unit_amplitude(), 2: unit_amplitude()}) for _ in range(2))
    terms = Terms.of_fields(b, e)
    got = BRACKETS["ExB_perpendicular_part"](terms)
    khat = ctx.khat
    for _ in range(3):
        r, t = rng.uniform(-2, 2, 3), rng.uniform(0, 5)
        exb = cross(e.eval_at(r, t), b.eval_at(r, t))
        along = sum(khat[i] * exb[i] for i in range(3))
        want = np.stack([exb[i] - khat[i] * along for i in range(3)])
        assert norm(want) > 0.1
        # rounding of products of unit amplitudes over four order pairs: the
        # worst of 20 seeds per kind was 1.5e-15
        assert norm(got.eval_at(r, t) - want) <= 1e-13


def test_scaling_covariance():
    # doubling every generator coefficient scales g^0 conditions by 2,
    # g^1 brackets by 4, g^2 brackets by 8 (raw field norms)
    rng = np.random.default_rng(73)
    gens = make_generators("su2_spin_half")
    fam = random_family(gens, rng, g=0.3)
    scaled = SolutionFamily(ctx=fam.ctx, R=tuple(2.0 * r for r in fam.R))
    a1, p1 = build_potentials(fam)
    a2, p2 = build_potentials(scaled)
    f1 = dict(equation_fields("exact", Terms(a1, p1, fam.ctx)))
    f2 = dict(equation_fields("exact", Terms(a2, p2, fam.ctx)))
    degree = {"exact1": 1, "exact6": 1, "exact2": 2, "exact4": 2, "exact5": 2,
              "exact7": 2, "exact3": 3, "exact8": 3}
    for name, deg in degree.items():
        key = next(k for k in f1 if k.startswith(name + "_") or k == name)
        n1, n2 = f1[key].norm, f2[key].norm
        if n1 > 1e-13:
            assert n2 / n1 == pytest.approx(2.0 ** deg, rel=1e-9)


# Items of different sets that evaluate one shared bracket, so their
# residuals must agree exactly.
SHARED_BRACKETS = (
    ("wca1_scalar_wave", "exact1_scalar_wave"),
    ("wca1_scalar_wave", "zca3_scalar_wave"),
    ("wca2_phi_diva", "exact2_phi_diva"),
    ("wca3_induction", "exact4_induction"),
    ("wca3_induction", "zca2_curl_n"),
    ("wca4_div_m", "exact5_div_m"),
    ("wca4_div_m", "zca1_div_m"),
    ("wca5_vector_wave", "exact6_vector_wave"),
    ("wca5_vector_wave", "zca5_vector_wave"),
    ("wca6_ampere_bracket", "exact7_ampere_bracket"),
)


@pytest.mark.parametrize("coplanar", (True, False))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_shared_brackets_agree_across_sets(kind, coplanar):
    rng = np.random.default_rng(79)
    for _ in range(10):
        draw = random_family if coplanar else noncoplanar_family
        fam = draw(make_generators(kind), rng, g=rng.uniform(0, 1))
        res = {name: r for label in ("wca", "exact", "zca")
               for name, r in residuals(label, fam)}
        for x, y in SHARED_BRACKETS:
            assert res[x] == res[y], (x, y, res[x], res[y])


def test_table_has_no_dead_or_dangling_rows():
    listed = {expr for row in EQUATIONS.values() for _, expr in row.items}
    assert listed == set(BRACKETS)
    named = {label for row in SUITE_TABLE.values() if getattr(row.columns, "func", None) is _table
             for label in row.columns.args[0]}
    assert named and named <= set(EQUATIONS)
    assert {row.scale for row in EQUATIONS.values()} == {("a",), ("b", "e")}


def test_rows_build_only_the_products_they_read():
    terms = Terms.of(random_family(make_generators("su2_spin_half"),
                                   np.random.default_rng(3)))
    for label in ("wca", "exact", "zca"):
        equation_residuals(label, terms)
    assert "fields" not in vars(terms)  # no closed-form B, E for the conditions
    assert {"bp", "ep"}.isdisjoint(vars(terms))
    m = terms.m
    equation_residuals("w", terms)
    assert terms.m is m  # built once, shared by every row


def test_a_terms_takes_the_divergence_of_a_once(monkeypatch):
    # scalar_wave, phi_diva and vector_wave read div A, in wca, exact and zca
    terms = Terms.of(random_family(make_generators("su2_spin_half"),
                                   np.random.default_rng(3)))
    taken, take = [], amwave.residuals.div
    monkeypatch.setattr("amwave.residuals.div", lambda f: taken.append(f) or take(f))
    for label in ("wca", "exact", "zca"):
        equation_residuals(label, terms)
    assert sum(f is terms.a for f in taken) == 1


def _columns(fam):
    """Every set's columns on a family, one wave or a stack."""
    terms = Terms.of(fam)
    return [equation_residuals(label, terms) for label in EQUATIONS]


def _families(kind, rng):
    """An abelian, a broken (wca and zca fail), an all-zero (every field
    empty) and a random family of one generator kind."""
    gens = make_generators(kind)
    ctx = WaveContext(generators=gens, k=np.array([0.3, -0.2, 1.1]), g=0.7)
    return [abelian_family(gens, rng, g=0.7),
            noncoplanar_family(gens, rng, g=0.7),
            SolutionFamily(ctx=ctx, R=(np.zeros(3),) * gens.n_coeffs),
            random_family(gens, rng, g=0.7)]


def test_stacked_columns_equal_each_family_bits():
    # stacks of 4 trials, and of as many trials as the matrices have rows,
    # so that a per-trial factor broadcast along a matrix axis cannot pass
    for kind, trials in (("su2_spin_half", 4), ("su2_spin_half", 2), ("su2_spin_one", 3),
                         ("su3_gellmann", 3)):
        fams = _families(kind, np.random.default_rng(41))[:trials]
        stacked = _columns(stack_families(fams, checked=False))
        singles = [_columns(fam) for fam in fams]
        for k, cols in enumerate(stacked):
            for i, (name, r) in enumerate(cols):
                assert isinstance(r, np.ndarray) and r.shape == (len(fams),), name
                for t, single in enumerate(singles):
                    name_t, want = single[k][i]
                    assert name_t == name and isinstance(want, float), (kind, name, t)
                    assert r[t] == want, (kind, name, t, r[t], want)
        # the all-zero family's residuals are exactly zero, the broken one fails
        if trials > 2:
            assert all(r[2] == 0.0 for cols in stacked for _, r in cols)
        assert failed([(name, r[1]) for name, r in dict(zip(EQUATIONS, stacked))["wca"]])


def test_relative_is_absolute_below_a_scale_of_one_and_relative_above():
    for scale in (0.0, 0.25, 1.0):
        assert relative(0.5, scale) == 0.5
    assert relative(0.5, 4.0) == 0.125
    per_trial = relative(np.array([0.5, 0.5, 3.0]), np.array([0.5, 2.0, 3.0]))
    np.testing.assert_array_equal(per_trial, [0.5, 0.25, 1.0])
    assert np.isnan(relative(0.5, np.nan))  # a NaN scale fails the residual
    # a row's scale is its terms' largest amplitude norm, not floored
    fam = xz_family(knorm=0.25)
    a, _ = build_potentials(fam)
    b, e = build_fields(fam)
    assert field_scale(a) == a.norm < 1.0
    assert field_scale(b, e) == max(b.norm, e.norm)


def test_report_serialization():
    fam = xz_family()
    items = [it for col in equation_columns("wca", Terms.of(fam))
             for it in judged_items(judge(col, TOL))]
    assert all(d["pass"] is True for d in items)
    assert len(items) == 6
    assert all(type(d["residual"]) is float for d in items)
