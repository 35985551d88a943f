import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amwave.algebra import (
    NonFiniteValue,
    commutator,
    GeneratorSet,
    cross,
    dot,
    frobenius_norms,
    make_generators,
    readonly,
    square,
)
from amwave.algebra import operator_norm as norm
from amwave.fields import (
    SQRT_MAX,
    HarmonicField,
    SolutionFamily,
    WaveContext,
    _collect,
    build_fields,
    build_potentials,
    comm_ss,
    comm_sv,
    curl,
    div,
    dt,
    field,
    grad,
    laplacian,
    ncross,
    ndot,
    random_families,
    random_family,
    stack_fields,
    vcross,
    vdot,
)
from amwave.relativity import gauge_conjugate, unitary_exponential
from amwave.residuals import EQUATIONS, Terms, equation_fields, perpendicular_part

from support import (
    abelian_family,
    d2t,
    diagonal_family,
    fd_curl,
    fd_div,
    fd_dt,
    fd_grad,
    fd_laplacian,
    generator_set,
    noncoplanar_family,
    numeric_lift,
    xz_family,
)

SPIN_HALF = make_generators("su2_spin_half")
ALL_KINDS = ("su2_spin_half", "su2_spin_one", "su3_gellmann")


def vec(coeff, m):
    """The operator 3-vector coeff (x) m, e.g. ``yhat * S_y``."""
    return np.einsum("i,ab->iab", np.asarray(coeff, dtype=complex), m)


def test_wave_context_dispersion():
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0, 0, 2.0]), c=0.5)
    assert ctx.omega == pytest.approx(1.0)
    stack = WaveContext(generators=SPIN_HALF, k=[[0, 0, 2.0], [3.0, 0, -4.0]], c=0.5)
    assert stack.omega.tolist() == [1.0, 2.5] and not stack.omega.flags.writeable
    # omega = c |k| overflows: |k| itself, or c times it
    for k, c in (([0, 0, 1e160], 1.0), ([[0, 0, 1.0], [1e155, 0, 0]], 1.0),
                 ([0, 0, 1e10], 1e300)):
        with pytest.raises(NonFiniteValue, match="omega = c\\*\\|k\\| is not finite"), \
                np.errstate(over="ignore"):
            WaveContext(generators=SPIN_HALF, k=k, c=c)
    with pytest.raises(ValueError, match="positive"):
        WaveContext(generators=SPIN_HALF, k=np.zeros(3))
    # a |k| whose square is subnormal keeps its digits (1e-161 squares to
    # 1e-322, whose root is 9.94e-162), and one whose square is 0 is no zero
    assert WaveContext(generators=SPIN_HALF, k=[0, 0, -1e-161]).knorm == 1e-161
    stack = WaveContext(generators=SPIN_HALF, k=[[0, 0, 1.0], [0, 3e-200, 4e-200]])
    assert stack.knorm.tolist() == stack.omega.tolist() == [1.0, 5e-200]


def test_build_potentials_xz():
    fam = xz_family(SPIN_HALF)
    a, phi = build_potentials(fam)
    sx, _, sz = SPIN_HALF.generators
    want_a = vec([1, 0, 0], sx) + vec([0, 0, 1], sz)
    assert a.orders == (1,)
    assert norm(a.amplitude(1) - want_a) <= 1e-12
    assert norm(phi.amplitude(1) - sz) <= 1e-12


def test_build_potentials_abelian_and_zero():
    gens = SPIN_HALF
    ctx = WaveContext(generators=gens, k=np.array([0.4, 0, 0.9]), g=0.3)
    r0 = np.array([0.2, -0.5, 0.1])
    zero = np.zeros(3)
    fam = SolutionFamily(ctx=ctx, R=(r0, zero, zero, zero))
    a, _ = build_potentials(fam)
    assert vcross(a, a).norm <= 1e-14  # identity amplitudes commute
    fam0 = SolutionFamily(ctx=ctx, R=(zero, zero, zero, zero))
    a0, phi0 = build_potentials(fam0)
    assert a0.orders == () and phi0.orders == ()
    assert a0.amps.shape == (0, 3, 2, 2) and phi0.amps.shape == (0, 2, 2)


def test_build_fields_xz_display():
    fam = xz_family(SPIN_HALF, g=0.1)
    b, e = build_fields(fam)
    sx, sy, _ = SPIN_HALF.generators
    yhat, xhat = [0, 1, 0], [1, 0, 0]
    assert norm(b.amplitude(1) - vec(yhat, 1j * sx)) <= 1e-12
    assert norm(b.amplitude(2) - vec(yhat, 0.1 * sy)) <= 1e-12
    assert norm(e.amplitude(1) - vec(xhat, 1j * sx)) <= 1e-12
    assert norm(e.amplitude(2) - vec(xhat, 0.1 * sy)) <= 1e-12


def test_build_fields_maxwell_limit():
    # g = 0 and identity-only amplitude: the classical plane wave
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0, 0, 1.3]), g=0.0)
    r0 = np.array([0.7, -0.2, 0.4])
    zero = np.zeros(3)
    fam = SolutionFamily(ctx=ctx, R=(r0, zero, zero, zero))
    b, e = build_fields(fam)
    assert b.orders == (1,)
    want_b = numeric_lift(1j * np.cross(ctx.k, r0), 2)
    assert norm(b.amplitude(1) - want_b) <= 1e-12
    a01 = -np.cross(ctx.khat, np.cross(ctx.khat, r0))
    want_e = numeric_lift(1j * ctx.knorm * a01, 2)
    assert norm(e.amplitude(1) - want_e) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_second_harmonic_e_is_xi(kind):
    # E second harmonic = g * s * (eta x khat) with tau x tau = i s eta
    gens = make_generators(kind)
    fam = random_family(gens, np.random.default_rng(42), g=0.3)
    _, e = build_fields(fam)
    scale = gens.eta_scale
    xi = cross(fam.eta, numeric_lift(fam.ctx.khat, gens.dim))
    assert norm(e.amplitude(2) - 0.3 * scale * xi) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fields_from_potentials_matches_closed_form(kind):
    rng = np.random.default_rng(11)
    for _ in range(5):
        fam = random_family(make_generators(kind), rng, g=rng.uniform(0, 0.5))
        terms = Terms.of(fam)
        assert (terms.b - terms.bp).norm <= 1e-12
        assert (terms.e - terms.ep).norm <= 1e-12


def test_fields_from_potentials_abelian_reduction():
    fam = xz_family(SPIN_HALF, g=0.0)
    a, phi = build_potentials(fam)
    terms = Terms(a, phi, fam.ctx)
    b, e = terms.bp, terms.ep
    assert (b - curl(a)).norm <= 1e-14
    want_e = (-1.0 / fam.ctx.c) * dt(a) - grad(phi)
    assert (e - want_e).norm <= 1e-14


def test_div_a_equals_ik_phi():
    rng = np.random.default_rng(5)
    for kind in ALL_KINDS:
        fam = random_family(make_generators(kind), rng)
        a, phi = build_potentials(fam)
        assert (div(a) - (1j * fam.ctx.knorm) * phi).norm <= 1e-12


def test_curl_grad_vanishes():
    fam = random_family(SPIN_HALF, np.random.default_rng(1))
    _, phi = build_potentials(fam)
    assert curl(grad(phi)).norm <= 1e-15


def test_dt_example():
    fam = xz_family(SPIN_HALF, g=0.1)
    b, _ = build_fields(fam)
    dtb = dt(b)
    sx, sy, _ = SPIN_HALF.generators
    k = w = 1.0
    want1 = vec([0, 1, 0], k * w * sx)
    want2 = vec([0, 1, 0], -2j * w * 0.1 * sy)
    assert norm(dtb.amplitude(1) - want1) <= 1e-12
    assert norm(dtb.amplitude(2) - want2) <= 1e-12


def test_eval_at_origin_and_periodicity():
    fam = xz_family(SPIN_HALF, g=0.1)
    b, _ = build_fields(fam)
    sx, sy, _ = SPIN_HALF.generators
    want = vec([0, 1, 0], 1j * sx) + vec([0, 1, 0], 0.1 * sy)
    assert norm(b.eval_at(np.zeros(3), 0.0) - want) <= 1e-12
    rng = np.random.default_rng(2)
    r, t = rng.uniform(-3, 3, 3), rng.uniform(0, 9)
    shift = 2 * np.pi * fam.ctx.k / fam.ctx.knorm ** 2
    assert norm(b.eval_at(r, t) - b.eval_at(r + shift, t)) <= 1e-12


def test_eval_matches_naive_term_sum():
    rng = np.random.default_rng(8)
    fam = random_family(make_generators("su2_spin_one"), rng)
    b, _ = build_fields(fam)
    r, t = rng.uniform(-2, 2, 3), rng.uniform(0, 5)
    naive = np.zeros((3, 3, 3), dtype=complex)
    for m, amp in zip(b.orders, b.amps):
        naive += amp * np.exp(1j * m * (fam.ctx.k @ r - fam.ctx.omega * t))
    assert norm(b.eval_at(r, t) - naive) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_wave_equations_termwise(kind):
    fam = random_family(make_generators(kind), np.random.default_rng(3), c=2.0)
    b, e = build_fields(fam)
    c2 = fam.ctx.c ** 2
    for field in (b, e):
        resid = laplacian(field) - (1.0 / c2) * d2t(field)
        assert resid.norm <= 1e-12 * field.norm


def test_m_wave_equation_and_amplitude():
    fam = random_family(SPIN_HALF, np.random.default_rng(4))
    a, _ = build_potentials(fam)
    m = vcross(a, a)
    assert m.orders == (2,)
    hbar = fam.ctx.generators.hbar
    assert norm(m.amplitude(2) - 1j * hbar * fam.eta) <= 1e-12
    resid = laplacian(m) + 4.0 * fam.ctx.knorm ** 2 * m
    assert resid.norm <= 1e-12 * max(1.0, m.norm)


def test_term_merging():
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0, 0, 1.0]))
    sx = SPIN_HALF.generators[0]
    f = field(ctx, {1: sx}) + field(ctx, {1: -1.0 * sx})
    assert f.orders == () and f.amps.shape == (0, 2, 2) and f.norm == 0.0
    g = field(ctx, {2: vec([1, 0, 0], sx)})
    h = g + field(ctx, {2: vec([0, 1, 0], sx)})
    assert h.orders == (2,)
    np.testing.assert_array_equal(h.amps[0], vec([1, 1, 0], sx))


def test_sums_take_fields_of_one_kind_on_one_context():
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0, 0, 1.0]))
    other = WaveContext(generators=SPIN_HALF, k=np.array([0, 1.0, 0]))
    sx = SPIN_HALF.generators[0]
    scalar, vector = field(ctx, {1: sx}), field(ctx, {1: vec([1, 0, 0], sx)})
    for a, b in ((scalar, vector), (vector, scalar), (scalar, field(other, {1: sx})),
                 (vector, field(other, {1: vec([1, 0, 0], sx)}))):
        for op in (operator.add, operator.sub):
            with pytest.raises(ValueError, match="^fields must be of one kind and share a wave"):
                op(a, b)


def test_field_validates_amplitudes():
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0, 0, 1.0]))
    sx = SPIN_HALF.generators[0]
    spin_one_sx = make_generators("su2_spin_one").generators[0]
    with pytest.raises(ValueError, match="shape"):
        field(ctx, {1: vec([1, 0, 0], spin_one_sx)})
    with pytest.raises(ValueError, match="shape"):
        field(ctx, {1: spin_one_sx})
    with pytest.raises(ValueError, match="all scalar or all vector"):
        field(ctx, {1: sx, 2: vec([1, 0, 0], sx)})
    with pytest.raises(ValueError):
        field(ctx, {})
    with pytest.raises(ValueError, match="finite"):
        field(ctx, {1: np.full((2, 2), np.nan)})


def test_non_finite_values_are_rejected_not_dropped():
    k = np.array([0, 0, 1.0])
    for bad in ({"g": np.nan}, {"g": np.inf}, {"c": np.nan}, {"c": np.inf},
                {"k": np.array([0, 0, np.nan])}):
        with pytest.raises(ValueError, match="finite"):
            WaveContext(**{"generators": SPIN_HALF, "k": k, **bad})
    a, _ = build_potentials(xz_family())
    with pytest.raises(ValueError, match="finite"):
        np.nan * a
    with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
        curl(a) - (1j * np.inf) * vcross(a, a)
    # finite coefficients whose tau overflows: R_0 + R_3 S_z in entry (0, 0)
    zero, huge = np.zeros(3), np.array([0, 0, 1.7e308])
    with np.errstate(over="ignore", invalid="ignore"):
        fam = SolutionFamily(ctx=WaveContext(generators=SPIN_HALF, k=k),
                             R=(huge, zero, zero, huge))
        for owner in (fam, SolutionFamily.stack((fam,))):
            with pytest.raises(NonFiniteValue, match="not finite"):
                owner.tau


def test_empty_field_passes_through_the_algebra():
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0, 0, 1.0]))
    sx = SPIN_HALF.generators[0]
    empty = field(ctx, {1: vec([0, 0, 0], sx)})
    assert empty.orders == () and empty.amps.shape == (0, 3, 2, 2) and empty.norm == 0.0
    perp = perpendicular_part(empty, ctx.khat)
    assert perp.orders == () and perp.is_vector
    u = unitary_exponential(0.3 * sx)
    assert gauge_conjugate(empty, u).orders == ()
    assert gauge_conjugate(ndot(ctx.khat, empty), u).amps.shape == (0, 2, 2)


def test_stack_fields_holds_each_part_trial_by_trial():
    """A wave and a stack of two, with different orders, on one stack of
    three: each trial keeps its amplitudes, and a part without an order
    holds zeros in its slot."""
    sx, sy, _ = SPIN_HALF.generators
    one = field(WaveContext(generators=SPIN_HALF, k=[0.0, 0.0, 1.0]), {1: sx, 2: sy})
    two = field(WaveContext(generators=SPIN_HALF, k=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                {-1: np.stack([sy, sx])})
    ctx = WaveContext(generators=SPIN_HALF, k=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    both = stack_fields(ctx, [one, two])
    assert both.ctx is ctx and both.orders == (-1, 1, 2) and not both.amps.flags.writeable
    zero = np.zeros((2, 2))
    for m, want in ((-1, [zero, sy, sx]), (1, [sx, zero, zero]), (2, [sy, zero, zero])):
        np.testing.assert_array_equal(both.amplitude(m), want)
    np.testing.assert_array_equal(both.norm, [one.norm, *two.norm])
    assert stack_fields(ctx, [0.0 * one, 0.0 * two]).orders == ()


def test_field_orders_sorted_and_amps_read_only():
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0, 0, 1.0]))
    sx, sy, _ = SPIN_HALF.generators
    f = field(ctx, {3: sy, -1: sx, 0: 0.0 * sx})
    assert f.orders == (-1, 3)
    assert f.amps.shape == (2, 2, 2)
    np.testing.assert_array_equal(f.amps[1], sy)
    assert f.norm == max(norm(sx), norm(sy))
    assert not f.amps.flags.writeable
    with pytest.raises(ValueError):
        f.amps[0, 0, 0] = 1.0
    a, _ = build_potentials(xz_family(SPIN_HALF))
    m = vcross(a, a)
    assert m.amps.shape == (1, 3, 2, 2) and not m.amps.flags.writeable


def test_coplanarity_enforced():
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0, 0, 1.0]))
    zero = np.zeros(3)
    with pytest.raises(ValueError, match="coplanar"):
        SolutionFamily(ctx=ctx, R=(zero, np.array([1.0, 0, 0]),
                                   np.array([0, 1.0, 0]), np.array([0, 0, 1.0])))


@pytest.mark.parametrize("scale", [1e-300, 1e150, 1e160, 1e300])
def test_coplanarity_check_is_scale_free(scale):
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0, 0, 1.0]))
    zero = np.zeros(3)
    x, y, z = scale * np.eye(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or underflow on the way
        with pytest.raises(ValueError, match=r"R_1, R_2 are not coplanar"):
            SolutionFamily(ctx=ctx, R=(zero, x, y, zero))
        SolutionFamily(ctx=ctx, R=(zero, x, zero, z))  # in the plane of k: accepted


def test_coplanarity_names_the_first_offending_pair():
    gens = make_generators("su3_gellmann")
    rng = np.random.default_rng(4)
    bad = noncoplanar_family(gens, rng)
    with pytest.raises(ValueError, match=r"R_1, R_2 are not coplanar"):
        SolutionFamily(ctx=bad.ctx, R=bad.R)
    # commuting generators (G_3, G_8) may leave the plane
    R = [np.zeros(3)] * 9
    R[3], R[8] = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    ctx = WaveContext(generators=gens, k=np.array([0, 0, 1.0]))
    SolutionFamily(ctx=ctx, R=tuple(R))
    R[1] = np.array([0, 1.0, 0])
    with pytest.raises(ValueError, match=r"R_1, R_3 are not coplanar"):
        SolutionFamily(ctx=ctx, R=tuple(R))


def test_cached_context_and_family_values_are_read_only():
    fam = random_family(make_generators("su2_spin_one"), np.random.default_rng(8))
    ctx = fam.ctx
    assert ctx.knorm == float(np.linalg.norm(ctx.k))
    np.testing.assert_array_equal(ctx.khat, ctx.k / np.linalg.norm(ctx.k))
    assert fam.tau is fam.tau and fam.phi_amplitude is fam.phi_amplitude
    assert fam.k_cross_tau is fam.k_cross_tau and fam.tau_cross_tau is fam.tau_cross_tau
    assert ctx.khat is ctx.khat
    b, _ = build_fields(fam)
    for arr in (fam.tau, fam.phi_amplitude, fam.eta, fam.k_cross_tau, fam.tau_cross_tau,
                ctx.khat, ctx.k,
                b.amplitude(5), b.eval_at(ctx.k, 0.3)):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_difference_is_sum_with_negation(kind):
    fam = random_family(make_generators(kind), np.random.default_rng(6), g=0.3)
    b, e = build_fields(fam)
    pairs = [(b, ncross(fam.ctx.khat, e)), (e, -1.0 * ncross(fam.ctx.khat, b)),
             (b, b), (b, 0.5 * b)]
    for f, g in pairs:
        want, got = f + (-1.0) * g, f - g
        assert got.orders == want.orders and got.norm == want.norm
        np.testing.assert_array_equal(got.amps, want.amps)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_random_family_constraints(kind):
    rng = np.random.default_rng(12)
    gens = make_generators(kind)
    fam = random_family(gens, rng)
    k = fam.ctx.k
    n = len(gens.generators)
    for l in range(1, n + 1):
        for mm in range(l + 1, n + 1):
            assert abs(k @ np.cross(fam.R[l], fam.R[mm])) <= 1e-12
    ab = abelian_family(gens, rng)
    assert norm(cross(ab.tau, ab.tau)) <= 1e-13


def _family_one_draw_at_a_time(gens, rng, k, c, g):
    """A random family as drawn one scalar at a time, with numpy's own norm
    and dot on each vector: the reference for ``random_families``."""
    if k is None:
        kvec = rng.normal(size=3)
        kvec *= 1.0 / np.linalg.norm(kvec)
    else:
        kvec = np.array(k, dtype=float)
    khat = kvec / np.linalg.norm(kvec)
    u = rng.normal(size=3)
    u -= (u @ khat) * khat
    u /= np.linalg.norm(u)
    coeffs = [rng.uniform(-1.0, 1.0, size=3)]
    for _ in gens.generators:
        coeffs.append(rng.uniform(-1.0, 1.0) * khat + rng.uniform(-1.0, 1.0) * u)
    return SolutionFamily(ctx=WaveContext(generators=gens, k=kvec, c=c, g=g), R=tuple(coeffs))


GROUP_KINDS = {kind: generator_set(kind) for kind in ("identity", *ALL_KINDS)}
GROUP_KINDS["custom"] = GeneratorSet("custom", 2, [[[0, 0.5], [0.5, 0]], [[0, -0.5j], [0.5j, 0]]])


@pytest.mark.parametrize("kind", sorted(GROUP_KINDS))
@pytest.mark.parametrize("k, c, g", [(None, 1.0, 0.1), (None, 2.5, 0.0),
                                     ((0.0, 0.0, 1.0), 1.0, 0.1),
                                     ((0.3, -1.7, 0.4), 0.5, 0.0)])
@pytest.mark.parametrize("trials", [1, 2, 7])
def test_group_draw_equals_a_stack_of_single_draws(kind, k, c, g, trials):
    gens = GROUP_KINDS[kind]

    def rngs():
        return [np.random.default_rng(s) for s in np.random.SeedSequence(trials).spawn(trials)]
    group_rngs, single_rngs, loop_rngs = rngs(), rngs(), rngs()
    group = random_families(gens, group_rngs, k=k, c=c, g=g)
    singles = [random_family(gens, rng, k=k, c=c, g=g) for rng in single_rngs]
    loop = [_family_one_draw_at_a_time(gens, rng, k, c, g) for rng in loop_rngs]
    for ref in (SolutionFamily.stack(singles), SolutionFamily.stack(loop)):
        assert group.ctx.batch_shape == ref.ctx.batch_shape == (trials,)
        for name in ("k", "knorm", "omega", "khat"):
            assert np.array_equal(getattr(group.ctx, name), getattr(ref.ctx, name)), name
        assert len(group.R) == len(ref.R) == gens.n_coeffs
        for got, want in zip(group.R, ref.R):
            assert np.array_equal(got, want)
        assert np.array_equal(group.tau, ref.tau)
    assert np.array_equal(group.ctx.knorm, [np.linalg.norm(v) for v in group.ctx.k])
    # the suites draw from the same generators after the family
    for a, b, l in zip(group_rngs, single_rngs, loop_rngs):
        assert a.bit_generator.state == b.bit_generator.state == l.bit_generator.state
    # trial t of the stack holds the single family's numbers
    for t, single in enumerate(singles):
        view = group.trial(t)
        assert view.ctx.knorm == single.ctx.knorm and view.ctx.omega == single.ctx.omega
        assert type(view.ctx.knorm) is type(view.ctx.omega) is float
        assert np.array_equal(view.ctx.k, single.ctx.k)
        assert all(np.array_equal(x, y) for x, y in zip(view.R, single.R))


def test_group_coplanarity_check_names_the_first_offending_pair():
    gens = make_generators("su3_gellmann")
    rng = np.random.default_rng(4)
    fams = [random_family(gens, rng), noncoplanar_family(gens, rng),
            random_family(gens, rng)]
    stack = SolutionFamily.stack(fams)  # stacks skip the check their families passed
    with pytest.raises(ValueError, match=r"R_1, R_2 are not coplanar"):
        SolutionFamily(ctx=stack.ctx, R=stack.R)
    good = SolutionFamily.stack([fams[0], fams[2]])
    SolutionFamily(ctx=good.ctx, R=good.R)
    # k = z, one trial with R_1 = x and R_3 = y; commuting G_3, G_8 may leave the plane
    ctx = WaveContext(generators=gens, k=[[0.0, 0.0, 1.0]] * 3)
    R = np.zeros((9, 3, 3))
    R[3, :], R[8, :] = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    SolutionFamily(ctx=ctx, R=tuple(R))
    R[1, 1], R[3, 1] = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    with pytest.raises(ValueError, match=r"R_1, R_3 are not coplanar"):
        SolutionFamily(ctx=ctx, R=tuple(R))


@pytest.mark.parametrize("k", [np.zeros((0, 3)), np.zeros((2, 3, 3)), [[0, 0, 1.0], [0, 0, 0]],
                               [[0, 0, 1.0], [0, np.inf, 1.0]], [[0, 0, 1.0, 0]]])
def test_wave_stack_checks_every_wave(k):
    with pytest.raises(ValueError, match="finite|positive"):
        WaveContext(generators=SPIN_HALF, k=k)


# --- finite-difference oracle --------------------------------------------------

def test_fd_oracle_accuracy_and_order():
    rng = np.random.default_rng(21)
    fam = random_family(make_generators("su2_spin_one"), rng, g=0.3)
    a, phi = build_potentials(fam)
    b, _ = build_fields(fam)
    h = 1e-3 * 2 * np.pi / fam.ctx.knorm
    for _ in range(10):
        r, t = rng.uniform(-2, 2, 3), rng.uniform(0, 5)
        checks = [
            (fd_div(b, r, t, h), div(b)),
            (fd_curl(b, r, t, h), curl(b)),
            (fd_dt(b, r, t, h), dt(b)),
            (fd_laplacian(b, r, t, h), laplacian(b)),
            (fd_grad(phi, r, t, h), grad(phi)),
        ]
        for est, exact_field in checks:
            exact = exact_field.eval_at(r, t)
            scale = max(1.0, norm(exact))
            # extrapolated estimate agrees to 1e-6
            assert norm(est.extrapolated - exact) / scale <= 1e-6
            # raw stencils converge at second order: halving h cuts the
            # error by 4 +- 25%
            err_h = norm(est.at_h - exact)
            err_half = norm(est.at_half - exact)
            if err_h > 1e-12 * scale:
                assert 3.0 <= err_h / err_half <= 5.0


def test_fd_constant_field_zero():
    # an order-0 term evaluates to the same value everywhere, so every
    # difference quotient cancels exactly
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0, 0, 1.0]))
    sx = SPIN_HALF.generators[0]
    const = field(ctx, {0: sx})
    rng = np.random.default_rng(3)
    r, t = rng.uniform(-1, 1, 3), 0.3
    assert norm(fd_dt(const, r, t, 1e-3).extrapolated) == 0.0
    assert norm(fd_grad(const, r, t, 1e-3).extrapolated) == 0.0
    assert norm(fd_laplacian(const, r, t, 1e-3).extrapolated) == 0.0


def test_fields_vs_oracle_at_random_points():
    # potentials-to-fields agrees with difference quotients of the
    # evaluated potentials themselves
    rng = np.random.default_rng(31)
    fam = random_family(make_generators("su2_spin_half"), rng, g=0.2)
    terms = Terms.of(fam)
    a, phi, b, e = terms.a, terms.phi, terms.bp, terms.ep
    ctx = fam.ctx
    h = 1e-3 * 2 * np.pi / ctx.knorm
    for _ in range(10):
        r, t = rng.uniform(-2, 2, 3), rng.uniform(0, 5)
        curl_a = fd_curl(a, r, t, h).extrapolated
        axa = cross(a.eval_at(r, t), a.eval_at(r, t))
        b_fd = curl_a + (-1j * ctx.g) * axa
        scale = max(1.0, norm(b.eval_at(r, t)))
        assert norm(b_fd - b.eval_at(r, t)) / scale <= 1e-6
        da_dt = fd_dt(a, r, t, h).extrapolated
        gphi = fd_grad(phi, r, t, h).extrapolated
        phv = phi.eval_at(r, t)
        av = a.eval_at(r, t)
        comm = np.einsum("ab,ibc->iac", phv, av) - np.einsum("iab,bc->iac", av, phv)
        e_fd = (-1.0 / ctx.c) * da_dt - gphi - (1j * ctx.g) * comm
        scale = max(1.0, norm(e.eval_at(r, t)))
        assert norm(e_fd - e.eval_at(r, t)) / scale <= 1e-6


@settings(max_examples=25, deadline=None)
@given(rx=st.floats(-3, 3), ry=st.floats(-3, 3), rz=st.floats(-3, 3),
       cycles=st.integers(min_value=-3, max_value=3))
def test_spatial_periodicity_property(rx, ry, rz, cycles):
    fam = xz_family(SPIN_HALF)
    b, _ = build_fields(fam)
    r = np.array([rx, ry, rz])
    shift = cycles * 2 * np.pi * fam.ctx.k / fam.ctx.knorm ** 2
    assert norm(b.eval_at(r, 0.7) - b.eval_at(r + shift, 0.7)) <= 1e-10


def _expressions(fam, u):
    """Named fields of one family or of a stacked family; u is the unitary
    (a stack of them for a stacked family) to gauge-rotate by."""
    ctx = fam.ctx
    a, phi = build_potentials(fam)
    b, e = build_fields(fam)
    named = [("a", a), ("phi", phi), ("b", b), ("e", e), ("axa", vcross(a, a)),
             ("phi_a", comm_sv(phi, a)), ("phi_diva", comm_ss(phi, div(a))),
             ("curl", curl(a)), ("grad", grad(phi)), ("dt", dt(b)), ("d2t", d2t(e)),
             ("laplacian", laplacian(b)), ("ndot", ndot(ctx.khat, b)),
             ("perp", perpendicular_part(vcross(e, b), ctx.khat)),
             ("rotated_a", gauge_conjugate(a, u)), ("rotated_phi", gauge_conjugate(phi, u))]
    terms = Terms.of(fam)
    return named + [col for label in EQUATIONS for col in equation_fields(label, terms)]


def test_batch_gives_each_trial_its_single_wave_field():
    rng = np.random.default_rng(41)
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0.3, -0.2, 1.1]), g=0.7)
    fams = [diagonal_family(SPIN_HALF, rng, g=0.7),  # B's m = 2 is an exact zero, dropped
            random_family(SPIN_HALF, rng, g=0.7),
            SolutionFamily(ctx=ctx, R=(np.zeros(3),) * 4),           # every field empty
            abelian_family(SPIN_HALF, rng, g=0.7)]
    us = [unitary_exponential((0.4 + 0.3 * i) * g)
          for i, g in enumerate([*SPIN_HALF.generators, SPIN_HALF.generators[0]])]
    batch = _expressions(SolutionFamily.stack(fams), np.stack(us))
    singles = [_expressions(fam, u) for fam, u in zip(fams, us)]
    dropped = set()
    for k, (name, fb) in enumerate(batch):
        assert fb.norm.shape == (len(fams),)
        for j, single in enumerate(singles):
            name_j, f = single[k]
            assert name_j == name
            # a kept amplitude is nonzero, a dropped one holds zeros
            held = [i for i, amp in enumerate(fb.amps) if np.any(amp[..., j] != 0)]
            assert tuple(fb.orders[i] for i in held) == f.orders, (name, j)
            assert np.array_equal(fb.amps[held, ..., j], f.amps), (name, j)
            assert fb.norm[j] == f.norm, (name, j)
            dropped |= {(name, j, m) for m in fb.orders if m not in f.orders}
    assert ("b", 0, 2) in dropped and ("b", 1, 2) not in dropped
    assert ("a", 2, 1) in dropped


def test_wave_batch_stacks_each_wave_and_checks_them():
    fams = [random_family(SPIN_HALF, np.random.default_rng(i)) for i in range(3)]
    stack = SolutionFamily.stack(f for f in fams)  # any iterable
    ctx = stack.ctx
    assert ctx.batch_shape == (3,)
    assert [r.shape for r in stack.R] == [(3, 3)] * 4
    for name in ("k", "knorm", "khat", "omega"):
        assert np.array_equal(getattr(ctx, name), [getattr(f.ctx, name) for f in fams])
        with pytest.raises(ValueError):
            getattr(ctx, name)[0] = 0.0
    other = random_family(make_generators("su2_spin_one"), np.random.default_rng(5))
    for bad in ((), (fams[0].ctx, other.ctx),
                (fams[0].ctx, random_family(SPIN_HALF, np.random.default_rng(6), g=0.2).ctx)):
        with pytest.raises(ValueError):
            SolutionFamily.stack(SolutionFamily(ctx=c, R=(np.zeros(3),) * c.generators.n_coeffs)
                                 for c in bad)


@pytest.mark.parametrize("kind", ["su2_spin_half", "su2_spin_one"])
def test_stacked_eval_at_gives_each_trial_its_single_value(kind):
    gens = make_generators(kind)
    rng = np.random.default_rng(23)
    fams = [random_family(gens, rng, k=rng.normal(size=3)),
            diagonal_family(gens, rng),  # B holds no second harmonic
            random_family(gens, rng, k=rng.normal(size=3), g=0.1)]
    stack = SolutionFamily.stack(fams)
    r, t = np.array([0.4, -1.3, 0.8]), 0.9
    got = [f.eval_at(r, t) for f in (*build_potentials(stack), *build_fields(stack))]
    for j, fam in enumerate(fams):
        want = [f.eval_at(r, t) for f in (*build_potentials(fam), *build_fields(fam))]
        for name, g, w in zip(("A", "phi", "B", "E"), got, want):
            assert g.shape == (len(fams),) + w.shape, (name, j)
            assert np.array_equal(g[j], w), (name, j)


# Each product with its kernel on one order pair, and whether its factors
# are vector fields.
PRODUCTS = {
    vcross: (cross, True, True),
    vdot: (dot, True, True),
    comm_sv: (lambda a, b: (np.einsum("...ab,...ibc->...iac", a, b)
                            - np.einsum("...iab,...bc->...iac", b, a)), False, True),
    comm_ss: (commutator, False, False),
}


def pair_loop(f, g, kernel):
    """The product of f and g as one kernel call per order pair on the
    amplitudes with the trial axis first, each order's terms summed in
    first-seen (m1, m2) order."""
    acc = {}
    for m1 in f.orders:
        for m2 in g.orders:
            amp = kernel(f.amplitude(m1), g.amplitude(m2))
            acc[m1 + m2] = acc[m1 + m2] + amp if m1 + m2 in acc else amp
    return field(f.ctx, acc)


def random_field(ctx, orders, vector, rng):
    shape = (len(orders),) + ctx.batch_shape + (3,) * vector + (ctx.dim, ctx.dim)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return field(ctx, dict(zip(orders, amps)))


@pytest.mark.parametrize("kind", ["su2_spin_half", "su2_spin_one"])
@pytest.mark.parametrize("product", PRODUCTS, ids=lambda p: p.__name__)
def test_batched_product_equals_a_pair_loop_bit_for_bit(kind, product):
    kernel, f_vector, g_vector = PRODUCTS[product]
    rng = np.random.default_rng(61)
    ctx = WaveContext(generators=make_generators(kind), k=rng.normal(size=(4, 3)), g=0.4)
    f = random_field(ctx, (-1, 1, 2), f_vector, rng)
    # trial 1 has no order-2 amplitude of f: its slot holds exact zeros
    amps = np.array(f.amps)
    amps[2, ..., 1] = 0.0
    f = f.with_amps(amps)
    assert f.orders == (-1, 1, 2) and not f.amps[2, ..., 1].any()
    # order 2 of f g sums three pair terms, so their order shows in its bits
    for g in [random_field(ctx, (0, 1, 3), g_vector, rng)] + [f] * (f_vector == g_vector):
        got, want = product(f, g), pair_loop(f, g, kernel)
        assert got.orders == want.orders
        assert np.array_equal(got.amps.view(np.uint64), want.amps.view(np.uint64))
        assert np.array_equal(got.norm, want.norm)


@pytest.mark.parametrize("vector", [False, True])
def test_norm_is_each_trials_largest_amplitude_norm_taken_when_read(vector):
    rng = np.random.default_rng(63)
    stack = WaveContext(generators=SPIN_HALF, k=rng.normal(size=(4, 3)))
    one = WaveContext(generators=SPIN_HALF, k=rng.normal(size=3))
    for ctx in (stack, one):
        f = random_field(ctx, (-1, 1, 2), vector, rng)
        amps = np.array(f.amps)
        # the largest norm sits at order 1 (a stack's trial axis is last)
        amps[(1, ..., 0, 0) + (slice(None),) * len(ctx.batch_shape)] *= 1e3
        f = f.with_amps(amps)
        assert "norm" not in vars(f)  # no norm is taken until one is read
        norms = frobenius_norms(np.stack([f.amplitude(m) for m in f.orders])).reshape(
            (3,) + ctx.batch_shape + (-1,))
        want = norms.max(axis=(0, -1))
        assert np.array_equal(f.norm, want) and f.norm is f.norm
        assert type(f.norm) is (float if ctx is one else np.ndarray)
        # amplitudes in any layout, here a strided view of a larger array
        g = f.with_amps(np.stack([f.amps, 0 * f.amps], axis=-1)[..., 0])
        assert g.orders == f.orders and np.array_equal(g.amps, f.amps)
        assert np.array_equal(g.norm, f.norm)
        empty = f - f
        assert empty.orders == () and np.array_equal(empty.norm, np.zeros(ctx.batch_shape))


@pytest.mark.parametrize("kind", ["identity", "su2_spin_half", "su2_spin_one"])
def test_components_below_the_overflow_guard_have_a_finite_norm(kind):
    # _field takes no norm for these, so the one read later must be finite
    ctx = WaveContext(generators=generator_set(kind), k=[0.0, 0.0, 1.0])
    top = np.nextafter(SQRT_MAX / (2 * ctx.dim), 0.0)
    f = field(ctx, {1: np.full((3, ctx.dim, ctx.dim), top * (1 - 1j))})
    assert np.isfinite(f.norm) and f.norm > 1e153


@pytest.mark.parametrize("product", PRODUCTS, ids=lambda p: p.__name__)
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_batched_product_names_the_pair_loops_non_finite_order(product, bad):
    kernel, f_vector, g_vector = PRODUCTS[product]
    rng = np.random.default_rng(62)
    ctx = WaveContext(generators=SPIN_HALF, k=rng.normal(size=(2, 3)))

    def spoiled(orders, vector, m):  # a field whose order-m amplitude holds a bad entry
        f = random_field(ctx, orders, vector, rng)
        amps = np.array(f.amps)
        amps[orders.index(m), ..., 0, 1, 1] = bad  # trial 1, last on the amplitudes
        return HarmonicField(ctx, f.orders, readonly(amps))

    # f_1 and g_3 are bad, so the sums 2 (from -1 + 3), 0 and 4 are: 2 is
    # the first seen, 0 the lowest
    f, g = spoiled((-1, 1), f_vector, 1), spoiled((-1, 3), g_vector, 3)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NonFiniteValue) as got:
            product(f, g)
        with pytest.raises(NonFiniteValue) as want:
            pair_loop(f, g, kernel)
    assert str(got.value) == str(want.value) == "amplitude of order 2 is not finite"


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
@pytest.mark.parametrize("vector", [False, True])
def test_a_same_order_sum_has_the_bits_of_the_merge(op, vector):
    # the merge of (order, amplitude) pairs, the path of fields with unlike orders
    def merge(f, g):
        return _collect(f.ctx, vector, [*zip(f.orders, f.amps),
                                        *zip(g.orders, g.amps if op is operator.add else -g.amps)])
    rng = np.random.default_rng(64)
    for ctx in (WaveContext(generators=SPIN_HALF, k=rng.normal(size=(4, 3))),
                WaveContext(generators=SPIN_HALF, k=rng.normal(size=3))):
        every_trial = (slice(None),) * len(ctx.batch_shape)
        f, g = (random_field(ctx, (-1, 1, 2), vector, rng) for _ in range(2))
        # order 1 of the result cancels to an exact zero in every trial
        amps = np.array(g.amps)
        amps[1] = f.amps[1] if op is operator.sub else -f.amps[1]
        g = g.with_amps(amps)
        got, want = op(f, g), merge(f, g)
        assert got.orders == want.orders == (-1, 2) and not got.amps.flags.writeable
        assert np.array_equal(got.amps.view(np.uint64), want.amps.view(np.uint64))
        # one entry of orders 1 and 2 at 1e154 in every trial: a field with
        # finite norms whose sum with itself, or difference with its
        # negation, has norms that overflow
        big = np.array(f.amps)
        big[(slice(1, None), ..., 0, 0) + every_trial] = 1e154
        h = f.with_amps(big)
        twin = h if op is operator.add else -1.0 * h
        for sum_of in (op, merge):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                    NonFiniteValue, match="^amplitude of order 1 is not finite$"):
                sum_of(h, twin)


def test_square_of_a_0d_array_is_its_float_square():
    # numpy squares a 0-d array as x * x, not by pow(), and the two differ
    # in the last bit on about one value in a thousand
    values = np.random.default_rng(71).uniform(-1.0, 1.0, 20_000)
    v = next(x for x in values if np.asarray(x) ** 2 != float(x) ** 2)
    assert square(np.asarray(v)) == square(float(v)) == square(np.float64(v))
