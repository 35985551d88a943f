import numpy as np
import pytest

from amwave import zitter
from amwave.algebra import commutator, operator_norm, sup_norms
from amwave.zitter import (
    ALPHA,
    BETA,
    ELECTRON_MASS_SI,
    LIGHT_SPEED_SI,
    PLANCK_H_SI,
    SIGMA,
    DiracContext,
    PolarSingularity,
    SuperpositionSpec,
    alpha_matrix_element_14,
    amplitude_frequency,
    amplitude_frequency_si,
    compton_wavelength_si,
    helicity_operator,
    position_closed_form,
    projectors,
    spin_closed_form,
    spin_closed_form_z,
    wobble_expectations,
    zitter_position_expectation,
)

from support import DoubletSpec, expectations, position_stack, spin_stack

# (energy sign, helicity / hbar) of ctx.states, in their order
LABELS = ((+1, +0.5), (+1, -0.5), (-1, +0.5), (-1, -0.5))


def random_ctx(rng, **kw) -> DiracContext:
    p = rng.uniform(-1.0, 1.0, 3)
    p[2] = abs(p[2]) + 0.2
    return DiracContext(p=p, **kw)


def wobble(ctx, psi, ts, spin=False):
    """The kernel's spin series if spin, else its position series."""
    return wobble_expectations(ctx, psi, ts)[..., int(spin), :, :]


def spin_expectation(spec, ctx, t):
    """<Psi| Z_s(t) |Psi> at one time."""
    return wobble(ctx, spec.state_vector(ctx), [t], spin=True)[0]


def test_dirac_algebra():
    eye = np.eye(4)
    for i in range(3):
        ai = ALPHA[i]
        assert operator_norm(ai @ ai - eye) <= 1e-15
        assert operator_norm(ai @ BETA + BETA @ ai) <= 1e-15
        for j in range(3):
            want = 2.0 * eye if i == j else np.zeros((4, 4))
            acc = ALPHA[i] @ ALPHA[j] + ALPHA[j] @ ALPHA[i]
            assert np.abs(acc - want).max() <= 1e-15
    assert operator_norm(BETA @ BETA - eye) <= 1e-15


def test_eigenstates_labels_and_orthonormality():
    rng = np.random.default_rng(2)
    for _ in range(10):
        ctx = random_ctx(rng)
        h = ctx.hmat
        lam = helicity_operator(ctx)
        states = ctx.states
        assert states.shape == (4, 4)
        assert np.abs(states.conj() @ states.T - np.eye(4)).max() <= 1e-12
        for st, (es, hel) in zip(states, LABELS):
            assert np.linalg.norm(h @ st - es * ctx.energy * st) <= 1e-12
            assert np.linalg.norm(lam @ st - hel * ctx.hbar * st) <= 1e-12


def test_eigenstates_match_numerical_eigendecomposition():
    rng = np.random.default_rng(4)
    ctx = random_ctx(rng)
    w, v = np.linalg.eigh(ctx.hmat)
    for st, (es, _) in zip(ctx.states, LABELS):
        target = es * ctx.energy
        idx = np.argmin(np.abs(w - target))
        assert abs(w[idx] - target) <= 1e-12
        # amplitude lies in the eigenspace: H psi = E psi already checked;
        # overlap with the numeric eigenspace is 1
        span = v[:, np.abs(w - target) < 1e-9]
        proj = span @ (span.conj().T @ st)
        assert np.linalg.norm(proj - st) <= 1e-12


def test_eigenstates_axis_momentum():
    p = 0.8
    ctx = DiracContext(p=np.array([0.0, 0.0, p]))
    psi1 = ctx.states[0]
    up = ctx.u_plus
    want = np.array([up, 0.0, p / up, 0.0]) / np.sqrt(2.0 * ctx.energy)
    assert np.linalg.norm(psi1 - want) <= 1e-12


def assert_unit_norm_eigenstates(ctx):
    """ctx.states, of one context or a stack, have unit norm and are
    eigenstates of H with energy +-E_p, each to 1e-15 (relative to E_p)."""
    energy = np.asarray(ctx.energy)
    for st, (es, _) in zip(ctx.states, LABELS):
        assert np.abs(np.linalg.norm(st, axis=-1) - 1.0).max() <= 1e-15
        resid = np.einsum("...ab,...b->...a", ctx.hmat, st) - es * energy[..., None] * st
        assert (np.linalg.norm(resid, axis=-1) <= 1e-15 * energy).all()


def test_polar_singularity():
    with pytest.raises(PolarSingularity, match="-z ray"):
        DiracContext(p=np.array([0.0, 0.0, -0.7])).states
    with pytest.raises(PolarSingularity, match="-z ray"):
        SuperpositionSpec(0.3, (1, 3)).state_vector(
            DiracContext(p=np.array([0.0, 0.0, -0.7])))
    with pytest.raises(PolarSingularity, match="-z ray"):
        DiracContext(p=np.array([0.0, 0.0, 0.0])).states
    # within POLAR_EPS |p| of the -z ray
    with pytest.raises(PolarSingularity, match="-z ray"):
        DiracContext(p=np.array([1e-6, 0.0, -1.0])).states
    with np.errstate(over="ignore"), pytest.raises(PolarSingularity, match="overflows$"):
        DiracContext(p=np.array([0.0, 0.0, 1e120])).states
    # 4 E_p |p| (|p| + p_z) is subnormal, so the states miss unit norm, or
    # it underflows to zero, with |p|^2
    with pytest.raises(PolarSingularity, match=r"^\|p\| = 1e-160 is too small: .* underflows$"):
        DiracContext(p=np.array([0.0, 0.0, 1e-160])).states
    with pytest.raises(PolarSingularity, match="underflows to zero$"):
        DiracContext(p=np.array([0.0, 0.0, 1e-170])).states
    # small momenta are not refused: u_minus = c |p| / sqrt(E_p + m c^2)
    # does not cancel as sqrt(E_p - m c^2) does
    for pz in (1e-150, 7e-34, 1e-3, 5e-3):
        assert_unit_norm_eigenstates(DiracContext(p=np.array([0.0, 0.0, pz])))
    # nor near the -z ray: |p| + p_z = (p_x^2 + p_y^2) / (|p| - p_z) does not cancel
    assert_unit_norm_eigenstates(DiracContext(p=np.array([1e-3, 0.0, -1.0])))


def test_momenta_near_the_minus_z_ray_are_refused_only_within_polar_eps():
    # (sin d, 0, -cos d): |p| + p_z = 1 - cos d, below POLAR_EPS |p| for d < 1.4e-5;
    # |p| + p_z taken as written refused 67 of these, up to d = 5e-3
    refused = []
    for d in np.logspace(-9.0, -1.0, 81):
        ctx = DiracContext(p=np.array([np.sin(d), 0.0, np.cos(np.pi - d)]))
        try:
            assert_unit_norm_eigenstates(ctx)
        except PolarSingularity as exc:
            assert str(exc) == "p + p_z vanishes; rotate the momentum away from the -z ray"
            assert ctx.norm_plus_pz <= zitter.POLAR_EPS * ctx.pnorm
            refused.append(d)
    assert len(refused) == 42 and max(refused) < 1.6e-5


def test_small_momenta_along_z_give_unit_norm_eigenstates():
    # sqrt(E_p - m c^2) refused 254 of these, the largest at |p| = 9.3e-3
    stack = DiracContext(p=np.outer(np.logspace(-6.0, 0.0, 400), [0.0, 0.0, 1.0]))
    assert stack.states.shape == (4, 400, 4)
    assert_unit_norm_eigenstates(stack)


def test_position_wobble_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(20):
        ctx = random_ctx(rng)
        theta = rng.uniform(0, np.pi / 2)
        t = rng.uniform(0, 8.0)
        got = zitter_position_expectation(SuperpositionSpec(theta, (1, 3)), ctx, t)
        assert np.abs(got - position_closed_form(theta, ctx, t)).max() <= 1e-12


def test_position_wobble_vanishes_for_pure_energy():
    rng = np.random.default_rng(9)
    ctx = random_ctx(rng)
    for t in (0.0, 1.3, 4.7):
        z = zitter_position_expectation(SuperpositionSpec(0.0, (1, 3)), ctx, t)
        assert np.abs(z).max() <= 1e-14
        # superposition of the two positive-energy states only
        spec = DoubletSpec(0.0, (0.6, 0.8, 0.0, 0.0))
        z = zitter_position_expectation(spec, ctx, t)
        assert np.abs(z).max() <= 1e-14


def test_spin_wobble_closed_form():
    rng = np.random.default_rng(10)
    for _ in range(20):
        ctx = random_ctx(rng)
        theta = rng.uniform(0, np.pi / 2)
        t = rng.uniform(0, 8.0)
        got = spin_expectation(SuperpositionSpec(theta, (1, 4)), ctx, t)
        assert np.abs(got - spin_closed_form(theta, ctx, t)).max() <= 1e-12


def test_spin_wobble_axis_case():
    ctx = DiracContext(p=np.array([0.0, 0.0, 0.8]))
    for theta, t in ((0.4, 0.9), (1.1, 2.6)):
        got = spin_expectation(SuperpositionSpec(theta, (1, 4)), ctx, t)
        assert np.abs(got - spin_closed_form_z(theta, ctx, t)).max() <= 1e-12
        assert np.abs(spin_closed_form(theta, ctx, t)
                      - spin_closed_form_z(theta, ctx, t)).max() <= 1e-12


def test_spin_wobble_needs_opposite_helicity():
    rng = np.random.default_rng(11)
    ctx = random_ctx(rng)
    for t in (0.4, 2.2):
        z = spin_expectation(SuperpositionSpec(0.7, (1, 3)), ctx, t)
        assert np.abs(z).max() <= 1e-14


def test_operator_identity_spin_from_position():
    # Z_s(t) = p x Z_r(t) with p a number vector, so <Z_s> = p x <Z_r> in any state
    rng = np.random.default_rng(12)
    for _ in range(5):
        ctx = random_ctx(rng)
        ts = rng.uniform(0, 5, 3)
        psi = DoubletSpec(0.9, (0.6, 0.8j, 0.3, -0.1)).state_vector(ctx)
        zr, zs = wobble_expectations(ctx, psi, ts)
        assert np.abs(zs - np.cross(ctx.p, zr)).max() <= 1e-12


def test_spin_evolution_derivative():
    # S(t) = S(0) - Z_r(t) x p implies d<S>/dt|_0 = -c <alpha x p>, checked by
    # central differences with second-order h-refinement, in a state with
    # every energy and helicity component
    rng = np.random.default_rng(13)
    ctx = random_ctx(rng)
    psi = DoubletSpec(0.9, (0.6, 0.8j, 0.3, -0.1)).state_vector(ctx)
    p = ctx.p
    axp = np.stack([ALPHA[(i + 1) % 3] * p[(i + 2) % 3] - ALPHA[(i + 2) % 3] * p[(i + 1) % 3]
                    for i in range(3)])
    want = -ctx.c * np.einsum("a,iab,b->i", psi.conj(), axp, psi).real
    errs = []
    for h in (1e-3, 5e-4):
        zs = wobble(ctx, psi, [-h, h], spin=True)  # <S(t)> - <S(0)> = <Z_s(t)>
        errs.append(np.abs((zs[1] - zs[0]) / (2 * h) - want).max())
    assert errs[0] <= 1e-4
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0  # O(h^2)


def test_helicity_commutes_and_spin_identities():
    rng = np.random.default_rng(14)
    for _ in range(20):
        ctx = random_ctx(rng)
        lam = helicity_operator(ctx)
        assert operator_norm(commutator(ctx.hmat, lam)) <= 1e-12
        # [S_i, alpha.p] = -i hbar (alpha x p)_i
        adotp = np.einsum("i,iab->ab", ctx.p, ALPHA)
        for i in range(3):
            si = 0.5 * ctx.hbar * SIGMA[i]
            axp = (ALPHA[(i + 1) % 3] * ctx.p[(i + 2) % 3]
                   - ALPHA[(i + 2) % 3] * ctx.p[(i + 1) % 3])
            lhs = commutator(si, adotp)
            assert np.abs(lhs + 1j * ctx.hbar * axp).max() <= 1e-12


def test_periodicity():
    rng = np.random.default_rng(15)
    ctx = random_ctx(rng)
    period = np.pi * ctx.hbar / ctx.energy
    spec_r = SuperpositionSpec(0.6, (1, 3))
    spec_s = SuperpositionSpec(0.6, (1, 4))
    for t in (0.3, 1.1):
        zr1 = zitter_position_expectation(spec_r, ctx, t)
        zr2 = zitter_position_expectation(spec_r, ctx, t + period)
        assert np.abs(zr1 - zr2).max() <= 1e-12
        zs1 = spin_expectation(spec_s, ctx, t)
        zs2 = spin_expectation(spec_s, ctx, t + period)
        assert np.abs(zs1 - zs2).max() <= 1e-12


def test_projector_properties():
    rng = np.random.default_rng(16)
    ctx = random_ctx(rng)
    pp, pm, sp, sm = projectors(ctx)
    for proj in (pp, pm, sp, sm):
        assert operator_norm(proj @ proj - proj) <= 1e-12
    states = ctx.states
    table = [(pp, (1, 1, 0, 0)), (pm, (0, 0, 1, 1)),
             (sp, (1, 0, 1, 0)), (sm, (0, 1, 0, 1))]
    for proj, keep in table:
        for st, k in zip(states, keep):
            got = proj @ st
            want = k * st
            assert np.linalg.norm(got - want) <= 1e-12
    # the sandwiched oscillation generator vanishes between like projectors
    hinv = np.linalg.inv(ctx.hmat)
    for i in range(3):
        gen = ALPHA[i] - ctx.c * ctx.p[i] * hinv
        assert operator_norm(pp @ gen @ pp) <= 1e-12
        assert operator_norm(pm @ gen @ pm) <= 1e-12


def test_alpha_matrix_element_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(20):
        ctx = random_ctx(rng)
        s1, _, _, s4 = ctx.states
        got = np.array([s1.conj() @ ALPHA[i] @ s4 for i in range(3)])
        assert np.abs(got - alpha_matrix_element_14(ctx)).max() <= 1e-12


def test_amplitude_frequency_bounds_and_si():
    ctx = DiracContext(p=np.array([0.0, 0.0, 0.5]))
    a, omega = amplitude_frequency(np.pi / 4, ctx)
    assert a <= ctx.hbar / (2 * ctx.mass * ctx.c) + 1e-12  # quarter Compton bound
    assert omega == pytest.approx(2 * ctx.energy / ctx.hbar)
    lam = compton_wavelength_si()
    assert lam == pytest.approx(2.42631e-12, rel=5e-6)
    a_si, omega_si = amplitude_frequency_si(theta=np.pi / 4, p_si=0.0)
    assert a_si == pytest.approx(1.9308e-13, rel=5e-4)
    assert a_si == pytest.approx(lam / (4 * np.pi), rel=1e-12)
    assert omega_si == pytest.approx(1.55269e21, rel=5e-5)


def test_si_amplitude_frequency_is_the_closed_form_in_si_floats():
    # the reference: the closed form written out in SI floats
    hbar, c, m = PLANCK_H_SI / (2.0 * np.pi), LIGHT_SPEED_SI, ELECTRON_MASS_SI
    rng = np.random.default_rng(47)
    for theta, p_si in zip(rng.uniform(0.0, np.pi / 2.0, 500),
                           rng.uniform(-1e-21, 1e-21, 500) * 10.0 ** rng.uniform(-3, 1, 500)):
        ep = np.sqrt((p_si * c) ** 2 + (m * c ** 2) ** 2)
        want = (float(np.sin(2.0 * theta) * (hbar * c / (2.0 * ep)) * (m * c ** 2 / ep)),
                float(2.0 * ep / hbar))
        assert amplitude_frequency_si(theta, p_si) == want, (theta, p_si)


# --- stacked time series ------------------------------------------------------

def reference_position_operator(ctx, t):
    """Z_r(t) by the one-time formula, one 4x4 product at a time, from
    H^2 = E_p^2: H^-1 = H / E_p^2 and, with phi = 2 E_p t / hbar,
    H^-1 (exp(-2iHt/hbar) - 1) = ((cos phi - 1) / E_p^2) H - (i sin phi / E_p) 1."""
    ep = ctx.energy
    phi = 2.0 * ep * t / ctx.hbar
    hinv = ctx.hmat / ep ** 2
    tail = ((np.cos(phi) - 1.0) / ep ** 2) * ctx.hmat - (1j * (np.sin(phi) / ep)) * np.eye(4)
    return np.stack([(0.5j * ctx.hbar * ctx.c)
                     * (ALPHA[i] - ctx.c * ctx.p[i] * hinv) @ tail for i in range(3)])


def eigh_position_operator(ctx, t):
    """Z_r(t) by the spectral decomposition of H, an oracle independent of
    H^2 = E_p^2."""
    w, v = np.linalg.eigh(ctx.hmat)
    hinv = v @ np.diag(1.0 / w) @ v.conj().T
    phase = v @ np.diag(np.exp(-2j * w * t / ctx.hbar) - 1.0) @ v.conj().T
    return np.stack([(0.5j * ctx.hbar * ctx.c)
                     * (ALPHA[i] - ctx.c * ctx.p[i] * hinv) @ hinv @ phase for i in range(3)])


def reference_expectation(spec, ctx, t, spin):
    zr = reference_position_operator(ctx, t)
    p = ctx.p
    op = np.stack([-(zr[(i + 1) % 3] * p[(i + 2) % 3] - zr[(i + 2) % 3] * p[(i + 1) % 3])
                   for i in range(3)]) if spin else zr
    psi = spec.state_vector(ctx)
    return np.einsum("a,iab,b->i", psi.conj(), op, psi).real


SPECS = [SuperpositionSpec(0.6, pair) for pair in ((1, 3), (1, 4), (2, 3), (2, 4))] \
    + [DoubletSpec(0.9, (0.6, 0.8j, 0.3, -0.1))]


def series_contexts():
    rng = np.random.default_rng(30)
    ctxs = [DiracContext(p=np.array([0.0, 0.0, 0.8])),
            DiracContext(p=np.array([0.0, 0.0, 0.35]), hbar=1.7, c=0.6)]
    return ctxs + [random_ctx(rng, hbar=rng.uniform(0.5, 2.0)) for _ in range(3)]


def basis_position_operator(ctx, t):
    """Z_r(t) = a B_PH + b B_P at one time, from the context's wobble basis."""
    ep = ctx.energy
    phi = 2.0 * ep * t / ctx.hbar
    ph, pre = ctx.wobble_basis
    return ((np.cos(phi) - 1.0) / ep ** 2) * ph - (1j * np.sin(phi) / ep) * pre


def spin_bound(ctx, spin):
    """The kernel's error bound against the direct path, relative to the
    wobble's size: Z_s = p x Z_r is |p| times larger."""
    return 1e-14 * ctx.wobble_scale * (max(1.0, ctx.pnorm) if spin else 1.0)


@pytest.mark.parametrize("steps", [0, 1, 7])
def test_stacked_series_matches_per_time_evaluation_bitwise(steps):
    for ctx in series_contexts():
        ts = np.linspace(0.0, 3.0 * np.pi * ctx.hbar / ctx.energy, steps)
        psis = np.stack([spec.state_vector(ctx) for spec in SPECS])
        for spin in (False, True):
            # every state in one call, as the suite contracts its states
            both = wobble(ctx, psis, ts, spin=spin)
            assert both.shape == (len(SPECS), steps, 3)
            for spec, psi, row in zip(SPECS, psis, both):
                got = wobble(ctx, psi, ts, spin=spin)
                assert got.shape == (steps, 3) and np.array_equal(got, row)
                one = spin_expectation if spin else zitter_position_expectation
                want = np.array([one(spec, ctx, t) for t in ts]).reshape(steps, 3)
                assert np.array_equal(got, want)
                ref = np.array([reference_expectation(spec, ctx, t, spin)
                                for t in ts]).reshape(steps, 3)
                assert np.abs(got - ref).max(initial=0.0) <= spin_bound(ctx, spin)
        for theta in (0.0, 0.7):
            pos = position_closed_form(theta, ctx, ts)
            spin = spin_closed_form(theta, ctx, ts)
            assert pos.shape == spin.shape == (steps, 3)
            for row, t in enumerate(ts):
                assert np.array_equal(pos[row], position_closed_form(theta, ctx, t))
                assert np.array_equal(spin[row], spin_closed_form(theta, ctx, t))


def test_basis_gives_the_one_time_operators():
    rng = np.random.default_rng(31)
    for ctx in series_contexts():
        ph, pre = ctx.wobble_basis
        assert np.array_equal(pre, ctx.position_prefactor)
        assert np.array_equal(ph, ctx.position_prefactor @ ctx.hmat)
        for t in (0.0, rng.uniform(0.0, 6.0), -rng.uniform(0.0, 2.0)):
            err = np.abs(basis_position_operator(ctx, t) - reference_position_operator(ctx, t))
            assert err.max() <= 1e-14 * ctx.wobble_scale, (ctx.p, t)


def test_kernel_matches_the_direct_operator_path():
    # 300 contexts, half as the suite draws them, half with |p| over five
    # decades and hbar over four, each at 4 times in a general state
    rng = np.random.default_rng(33)
    worst = [0.0, 0.0]
    for k in range(300):
        wide = k % 2
        p = rng.uniform(-1.0, 1.0, 3)
        p[2] = abs(p[2]) + 0.2
        ctx = DiracContext(p=p * 10.0 ** rng.uniform(-3.0, 2.0) if wide else p,
                           hbar=10.0 ** rng.uniform(-1.0, 3.0) if wide else rng.uniform(0.5, 2.0),
                           c=rng.uniform(0.5, 2.0), mass=rng.uniform(0.5, 2.0))
        ts = rng.uniform(-4.0, 8.0, 4) * ctx.hbar / ctx.energy
        coefficients = tuple(rng.normal(size=4) + 1j * rng.normal(size=4))
        psi = DoubletSpec(rng.uniform(0.0, np.pi / 2.0), coefficients).state_vector(ctx)
        zr = position_stack(ctx, ts)
        for spin in (False, True):
            want = expectations(spin_stack(zr, ctx.p) if spin else zr, psi)
            err = np.abs(wobble(ctx, psi, ts, spin=spin) - want).max()
            assert err <= spin_bound(ctx, spin), (ctx.p, ts, spin)
            worst[spin] = max(worst[spin], err / spin_bound(ctx, spin))
    assert max(worst) > 0.0  # the two paths round differently: the test compares something


def test_position_operator_matches_the_spectral_decomposition():
    rng = np.random.default_rng(32)
    contexts = series_contexts() + [random_ctx(rng, hbar=rng.uniform(0.5, 2.0),
                                               c=rng.uniform(0.5, 2.0)) for _ in range(40)]
    for ctx in contexts:
        ts = np.concatenate([[0.0], rng.uniform(-4.0, 8.0, 5) * ctx.hbar / ctx.energy])
        psis = np.stack([spec.state_vector(ctx) for spec in SPECS])
        got = wobble(ctx, psis, ts)
        for row, t in enumerate(ts):
            zr = eigh_position_operator(ctx, t)
            err = np.abs(basis_position_operator(ctx, t) - zr).max()
            assert err <= 1e-12 * ctx.wobble_scale, (ctx.p, t)
            want = np.einsum("sa,iab,sb->si", psis.conj(), zr, psis).real
            assert np.abs(got[:, row] - want).max() <= 1e-12 * ctx.wobble_scale, (ctx.p, t)


def test_series_rejects_non_finite_times():
    ctx = DiracContext(p=np.array([0.0, 0.0, 0.8]))
    spec = SuperpositionSpec(0.4, (1, 3))
    for ts in ([0.0, np.nan], [[0.0, 1.0]], 0.5):
        with pytest.raises(ValueError, match="^times must be a finite 1-D array$"):
            wobble_expectations(ctx, spec.state_vector(ctx), ts)
    with pytest.raises(ValueError, match="finite"):
        zitter_position_expectation(spec, ctx, np.inf)
    with pytest.raises(PolarSingularity):
        zitter_position_expectation(spec, DiracContext(p=np.array([0.0, 0.0, -0.7])), 0.0)


# The kernel's Hermitian check at its threshold.  A real y_i added to the
# diagonal of B_P's component i adds y_i <psi|psi> to e_P, and so
# -s(t) y to the imaginary part of the position series at t, with
# s = sin(phi) / E_p, and -s(t) p x y to the spin series', and leaves the
# real parts.  The threshold of each is 1e-10 max(1, sup_i ||Z_i(t)||_F),
# the norm from the direct path; at hbar = 1e3 the norms are hundreds.
# Along p the shift moves the position series alone; along p x y-hat
# the spin series reaches its threshold first.

def with_p_shift(ctx, y):
    """A copy of ctx whose cached wobble basis has y_i 1 added to B_P,i."""
    shifted = DiracContext(p=ctx.p, hbar=ctx.hbar, c=ctx.c, mass=ctx.mass)
    basis = ctx.wobble_basis.copy()
    basis[1] += np.asarray(y)[:, None, None] * np.eye(4)
    shifted.__dict__["wobble_basis"] = basis
    return shifted


def at_phases(ctx, phis):
    """The times at which phi = 2 E_p t / hbar takes the values phis."""
    return np.asarray(phis) * ctx.hbar / (2.0 * ctx.energy)


def thresholds(ctx, t):
    """1e-10 max(1, sup_i ||Z_i(t)||_F) of Z_r and Z_s, from the direct path."""
    zr = position_stack(ctx, [t])
    return [1e-10 * max(1.0, sup_norms(z, (1,))[0]) for z in (zr, spin_stack(zr, ctx.p))]


def shift_at(ctx, t, u, factor):
    """The shift along u whose larger imaginary part, over both series, is
    factor times that series' threshold at t; and which series that is."""
    s = abs(np.sin(2.0 * ctx.energy * t / ctx.hbar) / ctx.energy)
    ratios = [s * np.abs(x).max() / thr
              for x, thr in zip((u, np.cross(ctx.p, u)), thresholds(ctx, t))]
    return factor * np.asarray(u) / max(ratios), int(np.argmax(ratios))


SHIFTS = [np.array([0.3, -0.2, 0.8]), np.cross([0.3, -0.2, 0.8], [0.0, 1.0, 0.0])]


def test_imaginary_expectation_is_rejected_per_row():
    ctx = DiracContext(p=np.array([0.3, -0.2, 0.8]), hbar=1e3)
    psi = SuperpositionSpec(0.6, (1, 3)).state_vector(ctx)
    ts = at_phases(ctx, [0.5, 1.0, 2.0, 3.0, 4.0])
    want = wobble_expectations(ctx, psi, ts)
    for u, binding in zip(SHIFTS, (0, 1)):
        for row, t in enumerate(ts):
            y, which = shift_at(ctx, t, u, 1.0 - 1e-4)
            assert which == binding
            got = wobble_expectations(with_p_shift(ctx, y), psi, [t])
            assert np.abs(got[:, 0] - want[:, row]).max() <= 1e-15 * ctx.wobble_scale
            with pytest.raises(ValueError, match="complex"):
                wobble_expectations(with_p_shift(ctx, shift_at(ctx, t, u, 1.0 + 1e-4)[0]),
                                    psi, [t])
    # phi = pi: the largest norm, and s = 0, so the shift leaves that row
    # real; the quiet row fails against its own scale, not the loud row's
    quiet, loud = at_phases(ctx, [0.5, np.pi])
    y, _ = shift_at(ctx, quiet, SHIFTS[0], 1.01)
    assert abs(np.sin(0.5) / ctx.energy) * np.abs(y).max() < thresholds(ctx, loud)[0]
    with pytest.raises(ValueError, match="complex"):
        wobble_expectations(with_p_shift(ctx, y), psi, [loud, quiet])


def test_a_zero_expectation_is_held_to_its_operators_size():
    # pure (1,3) has no position wobble, and (1,3) no spin wobble: zero
    # expectations of operators with norms in the hundreds
    ctx = DiracContext(p=np.array([0.3, -0.2, 0.8]), hbar=1e3)
    t = at_phases(ctx, [2.0])[0]
    assert min(thresholds(ctx, t)) > 1e-8
    for spin, spec in ((0, SuperpositionSpec(0.0, (1, 3))), (1, SuperpositionSpec(0.6, (1, 3)))):
        shifted = with_p_shift(ctx, shift_at(ctx, t, SHIFTS[spin], 1.0 - 1e-4)[0])
        vals = wobble_expectations(shifted, spec.state_vector(ctx), [t])[spin]
        assert np.abs(vals).max() <= 1e-14 * ctx.wobble_scale


def test_constants_and_caches_are_read_only():
    assert all(type(m) is np.ndarray for m in (ALPHA, BETA, SIGMA))
    assert ALPHA.shape == SIGMA.shape == (3, 4, 4) and BETA.shape == (4, 4)
    ctx = DiracContext(p=np.array([0.2, -0.1, 0.7]))
    assert ctx.states is ctx.states and ctx.position_prefactor is ctx.position_prefactor
    assert ctx.wobble_basis is ctx.wobble_basis and ctx.wobble_basis.shape == (2, 3, 4, 4)
    for arr in (ALPHA, BETA, SIGMA, ctx.hmat, ctx.wobble_basis,
                ctx.phat, ctx.position_prefactor, ctx.states, ctx.states[0],
                helicity_operator(ctx), *projectors(ctx)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # H^2 = E_p^2, which the position operators rest on
    esq = ctx.energy ** 2
    assert np.abs(ctx.hmat @ ctx.hmat - esq * np.eye(4)).max() <= 1e-12 * esq


def same_bits(a, b) -> bool:
    """a and b hold the same shape and the same bytes (so -0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def stacked_momenta(rng, trials):
    """Momenta as the zitter suite draws them; row 0 lies on +z, so it has
    exact zeros, as the default momentum does."""
    p = rng.uniform(-1.0, 1.0, (trials, 3))
    p[:, 2] = abs(p[:, 2]) + 0.2
    p[0, :2] = 0.0
    return p


@pytest.mark.parametrize("units", [{}, {"hbar": 0.5, "c": 2.0}, {"mass": 1.7}])
@pytest.mark.parametrize("trials", (1, 2, 7))
def test_stacked_context_gives_each_trial_its_own_bits(trials, units):
    rng = np.random.default_rng(trials)
    p = stacked_momenta(rng, trials)
    stack = DiracContext(p=p, **units)
    assert stack.p.shape == (trials, 3) and stack.hmat.shape == (trials, 4, 4)
    for t in range(trials):
        one = DiracContext(p=p[t], **units)
        for name in ("pnorm", "energy", "u_plus", "u_minus", "p_plus", "p_minus",
                     "phat", "hmat", "position_prefactor", "wobble_basis", "norm_plus_pz"):
            assert same_bits(getattr(stack, name)[t], getattr(one, name)), name
        assert stack.states.shape == (4, trials, 4)
        for got, want in zip(stack.states, one.states):
            assert same_bits(got[t], want)
        assert same_bits(helicity_operator(stack)[t], helicity_operator(one))
        for got, want in zip(projectors(stack), projectors(one)):
            assert same_bits(got[t], want)


@pytest.mark.parametrize("units", [{}, {"hbar": 0.5, "c": 2.0}])
@pytest.mark.parametrize("trials", (1, 2, 7))
def test_stacked_operators_and_expectations_equal_one_trial_calls(trials, units):
    rng = np.random.default_rng(10 + trials)
    p = stacked_momenta(rng, trials)
    theta = rng.uniform(0.0, np.pi / 2.0, trials)
    ts = rng.uniform(-2.0, 6.0, trials)
    stack = DiracContext(p=p, **units)
    assert stack.wobble_basis.shape == (trials, 2, 3, 4, 4)
    # the last split has no negative-energy part, so its doublet norm is 0
    specs = [dict(pair=(1, 3)), dict(pair=(1, 4)), dict(pair=(2, 3)),
             dict(coefficients=(0.6, 0.8j, 0.3, -0.1)), dict(coefficients=(0.6, 0.8, 0.0, 0.0))]
    specs = [{"theta": theta, **kw} for kw in specs] + [{"theta": 0.0, "pair": (1, 3)}]

    def spec(kw):  # a state pair, or a general split of the two doublets
        return (DoubletSpec if "coefficients" in kw else SuperpositionSpec)(**kw)

    psis = np.stack([spec(kw).state_vector(stack) for kw in specs])

    def at_trial(kw, t):  # trial t's spec: its own angle, or the shared one
        return {**kw, "theta": kw["theta"][t]} if np.ndim(kw["theta"]) else kw

    # every state in one call, one time per trial
    vals = [wobble(stack, psis, ts, spin=spin) for spin in (False, True)]
    assert vals[0].shape == vals[1].shape == (len(specs), trials, 3)
    position = position_closed_form(theta, stack, ts)
    spin = spin_closed_form(theta, stack, ts)
    for t in range(trials):
        one = DiracContext(p=p[t], **units)
        psis1 = [spec(at_trial(kw, t)).state_vector(one) for kw in specs]
        for psi, psi1 in zip(psis, psis1):
            assert same_bits(psi[t], psi1)
        for got, is_spin in zip(vals, (False, True)):
            for row, psi1 in zip(got, psis1):
                want = wobble(one, psi1, [ts[t]], spin=is_spin)
                assert same_bits(row[t], want[0])
        assert same_bits(position[t], position_closed_form(theta[t], one, ts[t]))
        assert same_bits(spin[t], spin_closed_form(theta[t], one, ts[t]))


@pytest.mark.parametrize("bad", [np.zeros((2, 4)), np.zeros((2, 3, 1)), np.zeros((0, 3)),
                                 np.zeros((3, 2)), 0.8,
                                 [[0.0, 0.0, 0.8], [np.nan, 0.0, 0.8]],
                                 [[0.0, 0.0, 0.8], [0.0, 0.0, np.inf]]])
def test_stacked_context_rejects_bad_momenta(bad):
    with pytest.raises(ValueError, match=r"^p must be a finite real 3-vector$"):
        DiracContext(p=bad)


@pytest.mark.parametrize("row", [[0.0, 0.0, -0.7], [0.0, 0.0, 0.0], [0.0, 0.0, 1e-160],
                                 [0.0, 0.0, 1e-170], [0.0, 0.0, 1e120], [1e200, 0.0, 1e200],
                                 [1e-6, 0.0, -1.0]])
def test_polar_and_small_momentum_checks_apply_to_each_trial(row):
    with np.errstate(over="ignore"), pytest.raises(PolarSingularity) as one:
        DiracContext(p=np.array(row)).states
    good = [0.3, -0.2, 0.8]
    for p in ([good, row], [row, good, good], [good, row, row]):
        with np.errstate(over="ignore"), pytest.raises(PolarSingularity) as stacked:
            DiracContext(p=np.array(p)).states
        assert str(stacked.value) == str(one.value)


def test_small_momentum_message_names_the_first_offending_trial():
    stack = DiracContext(p=np.array([[0.3, -0.2, 0.8], [0.0, 0.0, 5e-3], [0.0, 0.0, 1e-158],
                                     [0.0, 0.0, 1e-160]]))
    with pytest.raises(PolarSingularity, match=r"^\|p\| = 1e-158 is too small"):
        stack.states


def test_stacked_squares_keep_the_one_trial_bits():
    # numpy's x * x and Python's x ** 2 differ in the last bit on about
    # one value in a thousand; a stack must square as one context does, so
    # it holds the momenta where |p|, p_x or p_y squares differently
    rng = np.random.default_rng(41)
    p = stacked_momenta(rng, 20_000)
    pn = np.sqrt(np.einsum("ti,ti->t", p, p))
    differ = [x * x != np.array([v ** 2 for v in x.tolist()]) for x in (pn, p[:, 0], p[:, 1])]
    p = p[np.any(differ, axis=0)]
    assert len(p) > 20
    theta = rng.uniform(0.0, np.pi / 2.0, len(p))
    ts = rng.uniform(0.0, 6.0, len(p))
    stack = DiracContext(p=p)
    spin = spin_closed_form(theta, stack, ts)
    for t in range(len(p)):
        one = DiracContext(p=p[t])
        assert same_bits(stack.energy[t], one.energy)
        assert same_bits(spin[t], spin_closed_form(theta[t], one, ts[t]))


def test_an_empty_stack_has_no_expectations():
    ctx = DiracContext(p=np.array([0.3, -0.2, 0.8]))
    psi = SuperpositionSpec(np.pi / 4.0, (1, 3)).state_vector(ctx)
    assert wobble_expectations(ctx, psi, []).shape == (2, 0, 3)
