import itertools

import numpy as np
import pytest

from amwave.algebra import frobenius_norms, make_generators, operator_norm
from amwave.fields import (
    HarmonicField,
    SolutionFamily,
    WaveContext,
    build_fields,
    build_potentials,
    field,
    random_families,
    random_family,
)
from amwave.poynting import amw_flux, flux_averages, flux_quadrature
from amwave.relativity import (
    NonUnitary,
    SuperluminalBoost,
    boost_axis,
    boost_columns,
    boost_matrix,
    boost_wavevector,
    boosted_fields,
    boosted_residuals,
    gauge_conjugate,
    unitary_exponential,
)
from amwave.residuals import (
    Terms,
    equation_columns,
    equation_fields,
    field_scale,
    relative,
)

from support import equation_residuals, numeric_lift, residuals_of, stack_families, xz_family

SPIN_HALF = make_generators("su2_spin_half")


METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
MAXWELL = ("div_E", "faraday", "div_B", "ampere")


def _norm(f: np.ndarray) -> float:
    """Largest component Frobenius norm of a (4, 4, d, d) tensor."""
    return float(frobenius_norms(f).max())


def _antisymmetry_defect(f: np.ndarray) -> float:
    return float(frobenius_norms(f + f.swapaxes(0, 1)).max())


def _tensor(b: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The contravariant field-strength tensor (..., 4, 4, d, d) of field
    amplitudes (..., 3, d, d): F^{i0} = E_i and (F^{32}, F^{13}, F^{21}) = B,
    antisymmetric."""
    f = np.zeros(b.shape[:-3] + (4, 4) + b.shape[-2:], dtype=complex)
    for i, (mu, nu) in enumerate(((3, 2), (1, 3), (2, 1))):
        f[..., 1 + i, 0, :, :], f[..., 0, 1 + i, :, :] = e[..., i, :, :], -e[..., i, :, :]
        f[..., mu, nu, :, :], f[..., nu, mu, :, :] = b[..., i, :, :], -b[..., i, :, :]
    return f


def _fields_of(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, E) read back from the tensor slots that _tensor fills."""
    return (np.stack([f[..., 3, 2, :, :], f[..., 1, 3, :, :], f[..., 2, 1, :, :]], axis=-3),
            np.stack([f[..., 1, 0, :, :], f[..., 2, 0, :, :], f[..., 3, 0, :, :]], axis=-3))


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


def test_boosted_fields_pure_ex():
    # E = x along z at v: E'_x = gamma and B'_y = -gamma v (n x E = y)
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0.0, 0.0, 1.0]))
    one = np.eye(2)
    e = field(ctx, {1: numeric_lift([1.0, 0.0, 0.0], 2)})
    b = field(ctx, {1: 0.0 * numeric_lift([1.0, 0.0, 0.0], 2)})
    assert b.orders == ()
    v = 0.5
    gamma = 1.0 / np.sqrt(1 - v * v)
    bp, ep = boosted_fields(b, e, v)
    np.testing.assert_allclose(ep.amplitude(1)[0], gamma * one, atol=1e-15)
    np.testing.assert_allclose(bp.amplitude(1)[1], -gamma * v * one, atol=1e-15)
    assert operator_norm(ep.amplitude(1)[1:]) == operator_norm(bp.amplitude(1)[::2]) == 0.0


def test_boosted_fields_xz_first_harmonic():
    # k, and the boost, along z: both harmonics are transverse, so every
    # amplitude and k itself shrink by the Doppler factor gamma (1 - v)
    fam = xz_family(SPIN_HALF)
    b, e = build_fields(fam)
    for v in (0.6, -0.6):
        doppler = np.sqrt((1 - v) / (1 + v))
        bp, ep = boosted_fields(b, e, v, axis="z")
        assert bp.orders == ep.orders == (1, 2)
        for rest, moved in ((b, bp), (e, ep)):
            assert operator_norm(moved.amps - doppler * rest.amps) <= 1e-15
        np.testing.assert_allclose(bp.ctx.k, [0.0, 0.0, doppler], rtol=1e-15)
        assert bp.ctx is ep.ctx and bp.ctx.omega == bp.ctx.knorm


@pytest.mark.parametrize("kind", ["su2_spin_half", "su2_spin_one"])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("velocity", [0.6, -0.6])
def test_boosted_fields_equal_the_boosted_field_strength_tensor(kind, axis, velocity):
    """The covariance oracle: per harmonic, the boosted fields are the
    slots of C F C^T, with F assembled from the rest frame's E and B, and
    the boosted wave vector is the spatial part of C (|k|, k)."""
    gens = make_generators(kind)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(31).spawn(6)]
    for c, g in ((1.0, 0.3), (1.7, 0.0)):
        fams = random_families(gens, rngs, c=c, g=g)
        b, e = build_fields(fams)
        bp, ep = boosted_fields(b, e, velocity * c, axis)
        boost = boost_matrix(velocity, axis=axis)
        for m in (1, 2):
            want_b, want_e = _fields_of(np.einsum("ma,nb,...abij->...mnij", boost, boost,
                                                  _tensor(b.amplitude(m), e.amplitude(m))))
            # each boosted entry is at most three products with gamma or
            # gamma |v| (1.25 and 0.75 here): a few roundings of the
            # largest rest-frame amplitude; the worst over 20 seeds per
            # kind was 1.9e-16 of it
            bound = 1e-15 * np.maximum(b.norm, e.norm)
            for got, want in ((bp.amplitude(m), want_b), (ep.amplitude(m), want_e)):
                assert (frobenius_norms(got - want).max(axis=-1) <= bound).all(), (m, c, g)
        kmu = np.concatenate([fams.ctx.knorm[:, None], fams.ctx.k], axis=1)
        np.testing.assert_array_equal(bp.ctx.k, boost_wavevector(kmu, boost)[:, 1:])
        assert bp.ctx.c == c and bp.ctx.g == g


def test_double_boost_roundtrip():
    fams = random_families(make_generators("su2_spin_one"),
                           [np.random.default_rng(s) for s in range(4)])
    b, e = build_fields(fams)
    for axis in (0, 1, 2):
        back = boosted_fields(*boosted_fields(b, e, 0.7, axis), -0.7, axis)
        for rest, twice in zip((b, e), back):
            assert twice.orders == rest.orders
            # amps hold the trial axis last: each trial's largest norm
            assert (frobenius_norms(np.moveaxis(twice.amps - rest.amps, -1, 1)).max(axis=(0, -1))
                    <= 1e-14 * np.maximum(1.0, rest.norm)).all()
        assert float(np.abs(back[0].ctx.k - fams.ctx.k).max()) <= 1e-15


def test_boost_wavevector_doppler():
    kmu = np.array([1.0, 0.0, 0.0, 1.0])
    v = 0.5
    kp = boost_wavevector(kmu, boost_matrix(v))
    gamma = 1.0 / np.sqrt(1 - v * v)
    assert kp[0] == pytest.approx(gamma * (1 - v))
    assert kp[0] == pytest.approx(np.sqrt((1 - v) / (1 + v)))  # parallel Doppler
    assert kp[3] == pytest.approx(gamma * (1.0 - v * 1.0))
    assert abs(kp @ METRIC @ kp) <= 1e-12 * kp[0] ** 2  # still null
    assert np.allclose(boost_wavevector(kmu, boost_matrix(0.0)), kmu)


def test_boosted_residuals_xz():
    fam = xz_family(SPIN_HALF)
    for v in (0.0, 0.5):
        cols = residuals_of(boosted_residuals(fam, v))
        assert [name for name, _ in cols] == list(MAXWELL)
        assert all(r <= 1e-15 for _, r in cols)
    # at rest, the row the zca suite reads, norms and scales bit for bit
    assert boosted_residuals(fam, 0.0) == equation_columns("maxwell", Terms.of(fam))


@pytest.mark.parametrize("velocity", [0.3, -0.3, 0.9, -0.9])
def test_boosted_residuals_random_families(velocity):
    rng = np.random.default_rng(abs(hash(velocity)) % 2 ** 31)
    for kind in ("su2_spin_half", "su2_spin_one", "su3_gellmann"):
        for _ in range(3):
            for axis in ("x", "y", "z"):
                fam = random_family(make_generators(kind), rng)
                cols = residuals_of(boosted_residuals(fam, velocity, axis=axis))
                # the worst of 720 such boosts was 1.2e-15
                assert all(r <= 1e-14 for _, r in cols), (kind, velocity, cols)


def test_boosted_residuals_superluminal():
    with pytest.raises(SuperluminalBoost):
        boosted_residuals(xz_family(SPIN_HALF), 1.2)


def _mixed_batches(kind: str, c: float, g: float):
    """(singles, stack) pairs: random families with k off every axis and
    a zero-R family among them, one family alone, and as many families as
    the matrices have rows (2 or 3), so that a per-trial factor broadcast
    along a matrix axis cannot pass."""
    gens = make_generators(kind)
    rng = np.random.default_rng(17)
    fams = [random_family(gens, rng, k=rng.normal(size=3), c=c, g=g) for _ in range(4)]
    zero = SolutionFamily(ctx=WaveContext(generators=gens, k=np.array([0.2, -0.9, 0.4]),
                                          c=c, g=g),
                          R=(np.zeros(3),) * gens.n_coeffs)
    fams.insert(2, zero)
    return [(part, stack_families(part)) for part in (fams, fams[:1], fams[:gens.dim])]


@pytest.mark.parametrize("kind, c, g", [("su2_spin_half", 1.0, 0.1),
                                        ("su2_spin_one", 2.5, 0.0),
                                        ("su3_gellmann", 0.3, -1.7)])
@pytest.mark.parametrize("axis", ["x", "y", 2])
def test_batch_columns_equal_single_family_bits(kind, c, g, axis):
    """Every speed of the one boosted stack, and every trial of it, gets
    the bits of that family boosted alone at that speed."""
    for speeds, (singles, batch) in itertools.product(
            [(0.0,), (0.93, -0.93), (0.93, -0.93, 0.999999999)], _mixed_batches(kind, c, g)):
        cols = residuals_of(boost_columns(batch, speeds, axis=axis))
        assert [name for name, _ in cols] == [
            f"v={v:+}c/{item}" for v in speeds for item in MAXWELL]
        for t, fam in enumerate(singles):
            single = [float(r) for v in speeds
                      for _, r in residuals_of(boosted_residuals(fam, v * c, axis=axis))]
            assert [float(r[t]) for _, r in cols] == single
        # the zero-R trial has no harmonics: every residual is exactly zero
        if len(singles) > 2:
            assert all(r[2] == 0.0 for _, r in cols)


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
    u = unitary_exponential(1.3 * SPIN_HALF.generators[2])
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
    cols = [(name, relative(f.norm, field_scale(a))) for name, f in fields]
    assert len(cols) == 6 and all(r <= 1e-12 for _, r in cols)


def test_gauge_conjugate_tensor_antisymmetry():
    b, e = build_fields(xz_family(SPIN_HALF))
    f = _tensor(b.amplitude(2), e.amplitude(2))
    u = unitary_exponential(0.4 * SPIN_HALF.generators[0])
    fc = _tensor(gauge_conjugate(b, u).amplitude(2), gauge_conjugate(e, u).amplitude(2))
    assert _antisymmetry_defect(fc) <= 1e-14
    assert abs(_norm(fc) - _norm(f)) <= 1e-12  # unitary invariance


def test_unitary_exponential_is_exp_i_angle_h():
    # exp(i a s) = cos(a) 1 + i sin(a) s for each Pauli matrix s, since s^2 = 1
    pauli = 2.0 * SPIN_HALF.generators
    angles = np.array([0.3, -1.1, 2.5])
    want = (np.cos(angles)[:, None, None] * np.eye(2)
            + 1j * np.sin(angles)[:, None, None] * pauli)
    for a, s, w in zip(angles, pauli, want):
        assert float(np.abs(unitary_exponential(a * s) - w).max()) <= 1e-14
    # a stack of generators at one angle: each its own exponential
    stack = unitary_exponential(0.3 * pauli)
    assert float(np.abs(stack - (np.cos(0.3) * np.eye(2) + 1j * np.sin(0.3) * pauli)).max()) \
        <= 1e-14


def test_nonunitary_rejected():
    a, _ = build_potentials(xz_family(SPIN_HALF))
    with pytest.raises(NonUnitary):
        gauge_conjugate(a, np.array([[1.0, 0.3], [0.0, 1.0]]))


def test_api_edge_returns_plain_arrays():
    """Unitaries and fluxes are plain ndarrays of the documented shapes,
    boosted fields are read-only fields on one boosted wave, and
    gauge_conjugate conjugates each component of a field's amplitudes."""
    fam = random_family(make_generators("su2_spin_one"), np.random.default_rng(4))
    d = fam.ctx.dim
    bp, ep = boosted_fields(*build_fields(fam), 0.3, axis="x")
    assert bp.ctx is ep.ctx and bp.ctx.k.shape == (3,) and type(bp.ctx.omega) is float
    for f in (bp, ep):
        assert f.orders == (1, 2) and f.amps.shape == (2, 3, d, d)
        assert type(f.amps) is np.ndarray and not f.amps.flags.writeable
    herm = fam.ctx.generators.generators[0]
    u = unitary_exponential(0.7 * herm)
    assert type(u) is np.ndarray and u.shape == (d, d)
    us = unitary_exponential(np.stack([herm, 2.0 * herm]))
    assert type(us) is np.ndarray and us.shape == (2, d, d)
    tau = fam.tau
    conj = gauge_conjugate(build_potentials(fam)[0], u)
    assert type(conj) is HarmonicField and conj.orders == (1,)
    assert type(conj.amps) is np.ndarray and conj.amps.shape == (1, 3, d, d)
    for i in range(3):
        np.testing.assert_allclose(conj.amps[0, i], u @ tau[i] @ u.conj().T, atol=1e-15)
    flux = amw_flux(fam)
    assert type(flux) is np.ndarray and flux.shape == (3, d, d)
    quad = flux_quadrature(fam, samples=5)
    assert type(quad) is np.ndarray and quad.shape == (3, d, d)
    blocks = flux_averages(fam, 5, [(None, b) for b in ("first", "mixed", "second", "total")])
    assert len(blocks) == 4
    for val in blocks:
        assert type(val) is np.ndarray and val.shape == (3, d, d)
