import numpy as np
import pytest

from amwave.algebra import frobenius_norms, make_generators, numeric_lift, operator_norm
from amwave.fields import (
    SolutionFamily,
    WaveContext,
    build_potentials,
    random_family,
    xz_family,
)
from amwave.poynting import amw_flux, flux_averages, flux_quadrature
from amwave.relativity import (
    METRIC,
    NonUnitary,
    SuperluminalBoost,
    assemble_tensor,
    boost_axis,
    boost_columns,
    boost_matrix,
    boost_tensor,
    boost_wavevector,
    boosted_residuals,
    gauge_conjugate,
    harmonic_tensors,
    null_defect,
    tensor_equation_defects,
    unitary_exponential,
)
from amwave.residuals import (
    Terms,
    equation_fields,
    equation_residuals,
    field_scale,
    named_residuals,
)

SPIN_HALF = make_generators("su2_spin_half")


def _norm(f: np.ndarray) -> float:
    """Largest component Frobenius norm of a (4, 4, d, d) tensor."""
    return float(frobenius_norms(f).max())


def _antisymmetry_defect(f: np.ndarray) -> float:
    return float(frobenius_norms(f + f.swapaxes(0, 1)).max())


def _fields_of(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, E) read back from the tensor slots that assemble_tensor fills."""
    return (np.stack([f[3, 2], f[1, 3], f[2, 1]]),
            np.stack([f[1, 0], f[2, 0], f[3, 0]]))


def test_assemble_pure_electric():
    e = numeric_lift([1.0, 0, 0], 1)
    b = np.zeros((3, 1, 1), dtype=complex)
    f = assemble_tensor(b, e)
    np.testing.assert_allclose(f[0, 1], [[-1.0]])
    np.testing.assert_allclose(f[1, 0], [[1.0]])
    for mu, nu in ((3, 2), (1, 3), (2, 1)):
        assert np.abs(f[mu, nu]).max() == 0.0
    assert _antisymmetry_defect(f) <= 1e-15


def test_assemble_zero_and_roundtrip():
    b = np.zeros((3, 2, 2), dtype=complex)
    e = np.zeros((3, 2, 2), dtype=complex)
    assert _norm(assemble_tensor(b, e)) == 0.0
    rng = np.random.default_rng(3)
    b = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    e = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    bb, ee = _fields_of(assemble_tensor(b, e))
    assert operator_norm(bb - b) <= 1e-15 and operator_norm(ee - e) <= 1e-15


def test_assemble_xz_first_harmonic():
    # first harmonic of the xz family: B = yhat * i k S_x, so the B_y slot
    # F^{13} holds i k S_x and the B_z slot F^{21} stays empty
    fam = xz_family(SPIN_HALF)
    _, f = harmonic_tensors(fam)[0], harmonic_tensors(fam)[0][1]
    sx = SPIN_HALF.generators[0]
    np.testing.assert_allclose(f[1, 3], 1j * sx, atol=1e-15)
    assert np.abs(f[2, 1]).max() <= 1e-15
    np.testing.assert_allclose(f[1, 0], 1j * sx, atol=1e-15)  # E_x


def test_boost_identity_and_inverse():
    b = boost_matrix(0.0)
    np.testing.assert_allclose(b, np.eye(4))
    # the inverse of a boost is the boost at the opposite velocity
    for v in (0.4, 0.6):
        fwd, back = boost_matrix(v), boost_matrix(-v)
        np.testing.assert_allclose(fwd @ back, np.eye(4), atol=1e-14)


def test_velocity_addition():
    v1, v2 = 0.35, 0.6
    vsum = (v1 + v2) / (1.0 + v1 * v2)
    lhs = boost_matrix(v1) @ boost_matrix(v2)
    np.testing.assert_allclose(lhs, boost_matrix(vsum), atol=1e-12)


def test_interval_invariance():
    rng = np.random.default_rng(5)
    for axis in ("x", "y", "z"):
        b = boost_matrix(rng.uniform(-0.95, 0.95), axis=axis)
        for _ in range(5):
            x = rng.uniform(-3, 3, 4)
            xp = b @ x
            assert abs(xp @ METRIC @ xp - x @ METRIC @ x) <= 1e-12 * (x @ x)


@pytest.mark.parametrize("axis", [1.0, 2.5, True, False, "w", None, [1], 3, -1, "X", "2"])
def test_boost_axis_rejects_non_axes(axis):
    # 1.0 == 1 and True == 1, so a membership test alone lets them through
    with pytest.raises(ValueError, match="axis must be"):
        boost_matrix(0.5, axis=axis)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_boost_matrix_is_the_axis_boost_written_out(axis):
    v = 0.6
    gamma = 1.0 / np.sqrt(1.0 - v * v)
    i = 1 + axis
    want = np.eye(4)
    want[0, 0] = want[i, i] = gamma
    want[0, i] = want[i, 0] = -gamma * v
    for name in (axis, "xyz"[axis], np.int64(axis)):
        assert boost_axis(name) == axis and type(boost_axis(name)) is int
        got = boost_matrix(v, axis=name)
        assert np.array_equal(got, want) and not got.flags.writeable


def test_superluminal_raises():
    with pytest.raises(SuperluminalBoost):
        boost_matrix(1.0)
    with pytest.raises(SuperluminalBoost):
        boost_matrix(-2.0, c=1.5)


def test_boost_tensor_pure_ex():
    e = numeric_lift([1.0, 0, 0], 1)
    f = assemble_tensor(np.zeros((3, 1, 1), dtype=complex), e)
    v = 0.5
    fp = boost_tensor(f, boost_matrix(v))
    gamma = 1.0 / np.sqrt(1 - v * v)
    bp, ep = _fields_of(fp)
    np.testing.assert_allclose(ep[0], [[gamma]], atol=1e-14)
    np.testing.assert_allclose(bp[1], [[-gamma * v]], atol=1e-14)
    assert _antisymmetry_defect(fp) <= 1e-14


def test_double_boost_roundtrip():
    rng = np.random.default_rng(7)
    comps = rng.normal(size=(4, 4, 2, 2))
    f = (comps - np.transpose(comps, (1, 0, 2, 3))).astype(complex)
    out = boost_tensor(boost_tensor(f, boost_matrix(0.7)), boost_matrix(-0.7))
    assert float(np.abs(out - f).max()) <= 1e-12


def test_boost_wavevector_doppler():
    kmu = np.array([1.0, 0.0, 0.0, 1.0])
    v = 0.5
    kp = boost_wavevector(kmu, boost_matrix(v))
    gamma = 1.0 / np.sqrt(1 - v * v)
    assert kp[0] == pytest.approx(gamma * (1 - v))
    assert kp[0] == pytest.approx(np.sqrt((1 - v) / (1 + v)))  # parallel Doppler
    assert kp[3] == pytest.approx(gamma * (1.0 - v * 1.0))
    assert null_defect(kp) <= 1e-12
    assert np.allclose(boost_wavevector(kmu, boost_matrix(0.0)), kmu)


def test_boosted_residuals_xz():
    fam = xz_family(SPIN_HALF)
    base = boosted_residuals(fam, 0.0)
    assert all(r <= tol for _, r, tol in base)
    cols = boosted_residuals(fam, 0.5)
    assert all(r <= tol for _, r, tol in cols)
    assert all(r <= 1e-10 for _, r, _ in cols)


@pytest.mark.parametrize("velocity", [0.3, -0.3, 0.9, -0.9])
def test_boosted_residuals_random_families(velocity):
    rng = np.random.default_rng(abs(hash(velocity)) % 2 ** 31)
    for kind in ("su2_spin_half", "su2_spin_one", "su3_gellmann"):
        for _ in range(3):
            fam = random_family(make_generators(kind), rng)
            cols = boosted_residuals(fam, velocity, axis="z")
            assert all(r <= tol for _, r, tol in cols), (kind, velocity, cols)


def test_boosted_residuals_superluminal():
    with pytest.raises(SuperluminalBoost):
        boosted_residuals(xz_family(SPIN_HALF), 1.2)


def _mixed_batches(kind: str, c: float, g: float):
    """(singles, stack) pairs: random families with k off every axis and
    a zero-R family among them, and one family alone."""
    gens = make_generators(kind)
    rng = np.random.default_rng(17)
    fams = [random_family(gens, rng, k=rng.normal(size=3), c=c, g=g) for _ in range(4)]
    zero = SolutionFamily(ctx=WaveContext(generators=gens, k=np.array([0.2, -0.9, 0.4]),
                                          c=c, g=g),
                          R=(np.zeros(3),) * gens.n_coeffs)
    fams.insert(2, zero)
    return [(fams, SolutionFamily.stack(fams)), (fams[:1], SolutionFamily.stack(fams[:1]))]


@pytest.mark.parametrize("kind, c, g", [("su2_spin_half", 1.0, 0.1),
                                        ("su2_spin_one", 2.5, 0.0),
                                        ("su3_gellmann", 0.3, -1.7)])
@pytest.mark.parametrize("axis", ["x", "y", 2])
def test_batch_columns_equal_single_family_bits(kind, c, g, axis):
    speed = 0.93
    for singles, batch in _mixed_batches(kind, c, g):
        cols = boost_columns(batch, (speed, -speed), axis=axis, tol=1e-10)
        assert [name for name, _, _ in cols] == [
            f"v={v:+g}c/{item}" for v in (speed, -speed)
            for item in ("tensor_divergence", "bianchi_cycle", "null_wavevector",
                         "tensor_antisymmetry")]
        for t, fam in enumerate(singles):
            single = [(float(r), tol) for v in (speed, -speed)
                      for _, r, tol in boosted_residuals(fam, v * c, axis=axis, tol=1e-10)]
            assert [(float(r[t]), tol) for _, r, tol in cols] == single
        # the zero-R trial has no harmonics: every residual is exactly zero
        # but the null defect of its four-vector
        if len(singles) > 1:
            assert all(r[2] == 0.0 for name, r, _ in cols if "null" not in name)


def test_defects_match_the_whole_contraction_bits():
    """The divergence and the cyclic sum, formed one first index at a time
    on a batch, give the bits of the plain per-family contraction."""
    singles, batch = _mixed_batches("su2_spin_one", 1.0, 0.1)[0]
    kmu = np.concatenate([(batch.ctx.omega / batch.ctx.c)[:, None], batch.ctx.k], axis=1)
    div, cyc = tensor_equation_defects(harmonic_tensors(batch), kmu)
    g = np.diag(METRIC)
    for t, fam in enumerate(singles):
        u = kmu[t] * np.array([-1.0, 1.0, 1.0, 1.0])
        want_div = want_cyc = 0.0
        for m, f in harmonic_tensors(fam):
            dive = 1j * m * np.einsum("m,mnab->nab", u, f)
            want_div = max(want_div, float(frobenius_norms(dive).max()))
            low = np.einsum("m,n,mnab->mnab", g, g, f)
            whole = abs(m) * (np.einsum("m,ngab->mngab", u, low)
                              + np.einsum("n,gmab->mngab", u, low)
                              + np.einsum("g,mnab->mngab", u, low))
            want_cyc = max(want_cyc, float(frobenius_norms(whole).max()))
        assert (div[t], cyc[t]) == (want_div, want_cyc)


def test_batch_superluminal_raises():
    _, batch = _mixed_batches("su2_spin_half", 1.0, 0.1)[0]
    with pytest.raises(SuperluminalBoost):
        boost_columns(batch, (0.5, 1.0))
    with pytest.raises(SuperluminalBoost):
        boost_columns(batch, (-1.3,), axis="x")


def test_gauge_conjugate_identity():
    fam = xz_family(SPIN_HALF)
    a, phi = build_potentials(fam)
    u = np.eye(2, dtype=complex)
    assert (gauge_conjugate(a, u) - a).norm <= 1e-15
    assert (gauge_conjugate(phi, u) - phi).norm <= 1e-15


def test_gauge_conjugate_preserves_residual_norms():
    fam = xz_family(SPIN_HALF)
    a, phi = build_potentials(fam)
    u = unitary_exponential(SPIN_HALF.generators[2], angle=1.3)
    before = equation_residuals("full", Terms(a, phi, fam.ctx))
    after = equation_residuals("full", Terms(gauge_conjugate(a, u), gauge_conjugate(phi, u),
                                             fam.ctx))
    assert [name for name, _ in before] == [name for name, _ in after]
    for (_, x), (_, y) in zip(before, after):
        assert abs(x - y) <= 1e-12


def test_gauge_conjugate_solution_still_solves():
    rng = np.random.default_rng(11)
    fam = random_family(make_generators("su2_spin_one"), rng)
    a, phi = build_potentials(fam)
    herm = sum((float(c) * g for c, g in zip(rng.uniform(-1, 1, 3),
                                             fam.ctx.generators.generators)),
               start=0.0 * fam.ctx.generators.identity)
    u = unitary_exponential(herm)
    fields = equation_fields("wca", Terms(gauge_conjugate(a, u),
                                          gauge_conjugate(phi, u), fam.ctx))
    cols = named_residuals(fields, field_scale(a))
    assert len(cols) == 6 and all(r <= 1e-12 for _, r in cols)


def test_gauge_conjugate_tensor_antisymmetry():
    fam = xz_family(SPIN_HALF)
    _, f = harmonic_tensors(fam)[1]
    u = unitary_exponential(SPIN_HALF.generators[0], angle=0.4)
    fc = gauge_conjugate(f, u)
    assert _antisymmetry_defect(fc) <= 1e-14
    assert abs(_norm(fc) - _norm(f)) <= 1e-12  # unitary invariance


def test_unitary_exponential_is_exp_i_angle_h():
    # exp(i a s) = cos(a) 1 + i sin(a) s for each Pauli matrix s, since s^2 = 1
    pauli = 2.0 * SPIN_HALF.generators
    angles = np.array([0.3, -1.1, 2.5])
    want = (np.cos(angles)[:, None, None] * np.eye(2)
            + 1j * np.sin(angles)[:, None, None] * pauli)
    for a, s, w in zip(angles, pauli, want):
        assert float(np.abs(unitary_exponential(s, a) - w).max()) <= 1e-14
    # a stack of generators at one angle: each its own exponential
    stack = unitary_exponential(pauli, 0.3)
    assert float(np.abs(stack - (np.cos(0.3) * np.eye(2) + 1j * np.sin(0.3) * pauli)).max()) \
        <= 1e-14


def test_nonunitary_rejected():
    with pytest.raises(NonUnitary):
        gauge_conjugate(np.eye(2), np.array([[1.0, 0.3], [0.0, 1.0]]))


def test_api_edge_returns_plain_arrays():
    """Tensors, unitaries and fluxes are plain ndarrays of the documented
    shapes; gauge_conjugate on a (3, d, d) array conjugates each component."""
    fam = random_family(make_generators("su2_spin_one"), np.random.default_rng(4))
    d = fam.ctx.dim
    tensors = harmonic_tensors(fam)
    assert [m for m, _ in tensors] == [1, 2]
    shaped = [f for _, f in tensors] + [boost_tensor(tensors[0][1], boost_matrix(0.3, axis="x"))]
    b = np.zeros((3, d, d), dtype=complex)
    shaped.append(assemble_tensor(b, b))
    for f in shaped:
        assert type(f) is np.ndarray and f.shape == (4, 4, d, d)
        assert not f.flags.writeable
    herm = fam.ctx.generators.generators[0]
    u = unitary_exponential(herm, 0.7)
    assert type(u) is np.ndarray and u.shape == (d, d)
    us = unitary_exponential(np.stack([herm, 2.0 * herm]))
    assert type(us) is np.ndarray and us.shape == (2, d, d)
    tau = fam.tau
    conj = gauge_conjugate(tau, u)
    assert type(conj) is np.ndarray and conj.shape == (3, d, d)
    for i in range(3):
        np.testing.assert_array_equal(conj[i], gauge_conjugate(tau[i], u))
        np.testing.assert_allclose(conj[i], u @ tau[i] @ u.conj().T, atol=1e-15)
    flux = amw_flux(fam)
    assert type(flux) is np.ndarray and flux.shape == (3, d, d)
    quad = flux_quadrature(fam, samples=5)
    assert type(quad) is np.ndarray and quad.shape == (3, d, d)
    blocks = flux_averages(fam, 5, (None,))[0]
    assert sorted(blocks) == ["first", "mixed", "second", "total"]
    for val in blocks.values():
        assert type(val) is np.ndarray and val.shape == (3, d, d)
