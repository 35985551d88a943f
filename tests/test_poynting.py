import itertools

import numpy as np
import pytest
import yaml

from amwave.algebra import cross, make_generators, operator_norm
import amwave.fields
from amwave.cli import EXIT_PASS, RunConfig, main, poynting_timeseries, run_suite
from amwave.fields import (
    SolutionFamily,
    WaveContext,
    build_fields,
    field,
    random_family,
)
from amwave.poynting import (
    NonTransverseAmplitude,
    _flux_form,
    _trig,
    _trig_pair,
    amw_flux,
    em_flux,
    flux_averages,
    flux_quadrature,
)

from support import diagonal_family, flux_blocks, identity_set, numeric_lift, xz_family

SPIN_HALF = make_generators("su2_spin_half")


def identity_ctx(knorm=1.0, c=1.0):
    return WaveContext(generators=identity_set(),
                       k=np.array([0.0, 0.0, knorm]), c=c, g=0.0)


def along_k(fam, vector):
    """The (d, d) magnitude khat . S of a flux vector S."""
    return np.einsum("i,iab->ab", fam.ctx.khat, vector)


def test_em_flux_unit_wave():
    res = em_flux(np.array([1.0, 0.0, 0.0]), identity_ctx())
    assert res.shape == (3, 1, 1)
    np.testing.assert_allclose(res[:, 0, 0], [0, 0, 1.0 / (8.0 * np.pi)], rtol=1e-15)


def test_em_flux_zero_amplitude():
    res = em_flux(np.zeros(3), identity_ctx())
    assert not res.any()


def test_em_flux_rejects_longitudinal():
    with pytest.raises(NonTransverseAmplitude):
        em_flux(np.array([0.0, 0.0, 0.5]), identity_ctx())


def test_em_flux_quadrature_oracle():
    ctx = identity_ctx(knorm=1.7, c=1.0)
    a01 = np.array([0.6, -0.3, 0.0])
    zero = np.zeros(3)
    r0 = a01  # transverse, so tau = A01 * identity reproduces the wave
    fam = SolutionFamily(ctx=ctx, R=(r0,))
    quad = flux_quadrature(fam, samples=10_000)
    closed = em_flux(a01, ctx)
    assert operator_norm(quad - closed) <= 1e-10


def test_amw_flux_xz_closed_form():
    fam = xz_family(SPIN_HALF, g=0.1)
    sx, sy = SPIN_HALF.generators[0], SPIN_HALF.generators[1]
    want = (1.0 / (8 * np.pi)) * (sx @ sx + 0.01 * sy @ sy)
    got = amw_flux(fam)
    assert np.abs(got[2] - want).max() <= 1e-14 and not got[:2].any()


@pytest.mark.parametrize("kind", ("su2_spin_half", "su2_spin_one", "su3_gellmann"))
def test_amw_quadrature_matches_closed_form(kind):
    rng = np.random.default_rng(5)
    fam = random_family(make_generators(kind), rng, g=0.3)
    closed = amw_flux(fam)
    quad, = flux_averages(fam, 10_000, ((rng.uniform(-1, 1, 3), "total"),))
    assert operator_norm(quad - closed) <= 1e-8


def test_amw_flux_abelian_reduces_to_em():
    rng = np.random.default_rng(7)
    gens = SPIN_HALF
    ctx = WaveContext(generators=gens, k=np.array([0.2, 0.5, 1.0]), g=0.0)
    r0 = rng.uniform(-1, 1, 3)
    zero = np.zeros(3)
    fam = SolutionFamily(ctx=ctx, R=(r0, zero, zero, zero))
    a01 = -np.cross(ctx.khat, np.cross(ctx.khat, r0))
    amw = amw_flux(fam)
    em = em_flux(a01, ctx)
    assert operator_norm(amw - em) <= 1e-10


def test_mixed_block_averages_to_zero():
    rng = np.random.default_rng(9)
    fam = random_family(SPIN_HALF, rng, g=0.5)
    blocks = flux_blocks(fam, 10_000, (None,))[0]
    assert operator_norm(blocks["mixed"]) <= 1e-10
    closed = amw_flux(fam)
    assert operator_norm(blocks["total"] - closed) <= 1e-8
    # each squared block reproduces its closed-form piece
    from amwave.algebra import cross, dot
    tau = fam.tau
    c8pi = fam.ctx.c / (8 * np.pi)
    kxt = cross(numeric_lift(fam.ctx.k, fam.ctx.dim), tau)
    first_closed = c8pi * dot(kxt, kxt)
    second_closed = -c8pi * fam.ctx.g ** 2 * dot(cross(tau, tau), cross(tau, tau))
    khat = fam.ctx.khat
    first_vec = np.einsum("i,ab->iab", khat, first_closed)
    second_vec = np.einsum("i,ab->iab", khat, second_closed)
    assert np.abs(blocks["first"] - first_vec).max() <= 1e-10
    assert np.abs(blocks["second"] - second_vec).max() <= 1e-10


def test_flux_operator_hermitian_psd():
    rng = np.random.default_rng(11)
    for kind in ("su2_spin_half", "su3_gellmann"):
        fam = random_family(make_generators(kind), rng, g=0.4)
        op = along_k(fam, amw_flux(fam))
        assert operator_norm(op - op.conj().T) <= 1e-12
        assert np.linalg.eigvalsh(op).min() >= -1e-12


def test_flux_direction_purely_along_k():
    rng = np.random.default_rng(13)
    fam = random_family(make_generators("su2_spin_one"), rng, g=0.2)
    quad = flux_quadrature(fam, samples=8_000)
    khat = fam.ctx.khat
    along = np.einsum("i,iab->ab", khat, quad)
    perp = quad - np.einsum("i,ab->iab", khat, along)
    assert np.abs(perp).max() <= 1e-12


KINDS = ("su2_spin_half", "su2_spin_one", "su3_gellmann")


def hermitian_part(v):
    """Componentwise Hermitian part of a (3, d, d) operator vector."""
    return 0.5 * (v + np.conj(np.swapaxes(v, 1, 2)))


def loop_flux(e, b, ts, r):
    """Reference: (c/4 pi) Re E x Re B evaluated sample by sample, (T, 3, d, d)."""
    coeff = e.ctx.c / (4.0 * np.pi)
    return np.stack([coeff * cross(hermitian_part(e.eval_at(r, t)),
                                   hermitian_part(b.eval_at(r, t)))
                     for t in ts])


def loop_blocks(fam, ts, r):
    """Reference per-sample flux of each harmonic block, from one-harmonic fields."""
    b, e = build_fields(fam)
    (e1, b1), (e2, b2) = [[field(fam.ctx, {m: f.amplitude(m)}) for f in (e, b)]
                          for m in (1, 2)]
    return {"first": loop_flux(e1, b1, ts, r), "second": loop_flux(e2, b2, ts, r),
            "mixed": loop_flux(e1, b2, ts, r) + loop_flux(e2, b1, ts, r),
            "total": loop_flux(e, b, ts, r)}


# 3 samples alias the degree-4 integrand, so there the nodes (and r) matter
@pytest.mark.parametrize("samples", (3, 5, 7, 64))
@pytest.mark.parametrize("kind", KINDS)
def test_contraction_matches_sample_loop(kind, samples):
    rng = np.random.default_rng(17)
    fam = random_family(make_generators(kind), rng, g=0.4)
    r = rng.uniform(-1, 1, 3)
    ts = np.linspace(0.0, fam.ctx.period, samples + 1)[:-1]
    want = {key: val.mean(axis=0) for key, val in loop_blocks(fam, ts, r).items()}
    scale = np.abs(want["total"]).max()
    blocks = flux_blocks(fam, samples, (r,))[0]
    quad = blocks["total"]
    assert blocks.keys() == want.keys()
    for key, val in want.items():
        assert np.abs(blocks[key] - val).max() <= 1e-13 * scale, key
    parts = sum(blocks[key] for key in ("first", "mixed", "second"))
    assert np.abs(parts - quad).max() <= 1e-15 * scale


@pytest.mark.parametrize("kind", KINDS)
def test_timeseries_matches_sample_loop(kind):
    rng = np.random.default_rng(19)
    fam = random_family(make_generators(kind), rng, g=0.4)
    cfg = RunConfig(suite="poynting", steps=33, samples=5)
    (header, columns, blank), _ = poynting_timeseries(cfg, fam)
    got = dict(zip(header, columns))
    assert blank == 0
    ts = np.linspace(0.0, fam.ctx.period, cfg.steps, endpoint=False)
    khat, d = fam.ctx.khat, fam.ctx.dim
    want = {key: np.einsum("i,tiaa->t", khat, val).real / d
            for key, val in loop_blocks(fam, ts, np.zeros(3)).items()}
    want["running_avg"] = np.cumsum(want.pop("total")) / np.arange(1, len(ts) + 1)
    scale = max(np.abs(val).max() for val in want.values())
    np.testing.assert_array_equal(got["t"], ts)
    for key, val in want.items():
        assert np.abs(got[key] - val).max() <= 1e-13 * scale, key


@pytest.mark.parametrize("kind", KINDS)
def test_five_samples_match_closed_form(kind):
    rng = np.random.default_rng(23)
    fam = random_family(make_generators(kind), rng, g=0.3)
    closed = amw_flux(fam)
    quad, = flux_averages(fam, 5, ((rng.uniform(-1, 1, 3), "total"),))
    assert operator_norm(quad - closed) / max(1.0, operator_norm(closed)) <= 1e-14


def test_quadrature_of_an_empty_field_is_zero():
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0.0, 0.0, 1.0]), g=0.1)
    fam = SolutionFamily(ctx=ctx, R=tuple(np.zeros(3) for _ in range(4)))
    assert operator_norm(flux_quadrature(fam, samples=5)) == 0.0
    assert all(operator_norm(v) == 0.0 for v in flux_blocks(fam, 5, (None,))[0].values())
    series, _ = poynting_timeseries(RunConfig(suite="poynting", steps=3), fam)
    assert [col.tolist() for col in series.columns[1:]] == [[0.0] * 3] * 4


@pytest.mark.parametrize("steps", (5, 6, 33, 128))
@pytest.mark.parametrize("kind", KINDS)
def test_last_running_average_is_the_closed_form(kind, steps):
    rng = np.random.default_rng(29)
    fam = random_family(make_generators(kind), rng, g=0.4)
    series, _ = poynting_timeseries(RunConfig(suite="poynting", steps=steps), fam)
    last = [col[-1] for col in series.columns]
    closed = amw_flux(fam)
    want = np.einsum("i,iaa->", fam.ctx.khat, closed).real / fam.ctx.dim
    assert last[-1] == pytest.approx(want, rel=1e-13, abs=0.0)
    assert last[0] < fam.ctx.period


@pytest.mark.parametrize("samples", (0, -1))
def test_bad_sample_counts_raise(samples):
    fam = xz_family()
    with pytest.raises(ValueError, match="samples"):
        flux_quadrature(fam, samples=samples)
    with pytest.raises(ValueError, match="samples"):
        flux_averages(fam, samples, ((None, "total"),))


def test_averages_at_several_positions_match_single_calls():
    rng = np.random.default_rng(31)
    fam = random_family(make_generators("su2_spin_one"), rng, g=0.4)
    r = rng.uniform(-1, 1, 3)
    at_r, at_origin = flux_blocks(fam, 7, (r, None))
    for got, pos in ((at_r, r), (at_origin, None)):
        blocks = flux_blocks(fam, 7, (pos,))[0]
        assert got.keys() == blocks.keys()
        for key, val in blocks.items():
            np.testing.assert_array_equal(got[key], val)
    np.testing.assert_array_equal(at_origin["total"], flux_quadrature(fam, 7))


def two_table_averages(fam, samples, r):
    """Reference ``flux_averages`` blocks at one position, with c_E and c_B
    built as two separate cos/sin tables."""
    ctx = fam.ctx
    table, orders_e, orders_b, masks = _flux_form(fam)
    wt = ctx.omega * np.linspace(0.0, ctx.period, samples + 1)[:-1]
    phase = ctx.k @ (np.zeros(3) if r is None else r) - wt
    w = _trig(orders_e, phase).T @ _trig(orders_b, phase) / samples
    return {name: np.einsum("pq,pqiab->iab", w * mask, table) for name, mask in masks.items()}


@pytest.mark.parametrize("samples", (5, 200, 10_000))
@pytest.mark.parametrize("kind", KINDS)
def test_shared_table_averages_equal_two_tables(kind, samples):
    # E and B share one table here; x.T @ x would take numpy's symmetric
    # product and change the bits, so B must read a distinct copy
    rng = np.random.default_rng(37)
    gens = make_generators(kind)
    fams = [random_family(gens, rng, g=0.4) for _ in range(2)]
    fams += [random_family(gens, rng, k=(0.0, 0.6, -0.8), g=0.4) for _ in range(2)]
    for fam in fams:
        _, orders_e, orders_b, _ = _flux_form(fam)
        assert orders_e == orders_b == (1, 2)
        rs = (rng.uniform(-1, 1, 3), None)
        for pos, got in zip(rs, flux_blocks(fam, samples, rs)):
            want = two_table_averages(fam, samples, pos)
            assert got.keys() == want.keys()
            for key, val in want.items():
                assert got[key].tobytes() == val.tobytes(), (key, pos is None)


@pytest.mark.parametrize("orders", [(1,), (1, 2), (2, 1, 3)])
def test_trig_table_has_the_bits_of_its_cos_and_sin_arrays_side_by_side(orders):
    # the table is built in one array on contiguous rows, and must hold the
    # bits of cos and sin taken on the (N, H) array of m phase
    rng = np.random.default_rng(43)
    for n in (1, 5, 128, 10_000):
        phase = rng.uniform(-1e4, 1e4, n)
        phase[0] = -0.0
        mphi = np.multiply.outer(phase, np.asarray(orders, dtype=float))
        want = np.concatenate([np.cos(mphi), np.sin(mphi)], axis=1)
        got = _trig(orders, phase)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_a_call_builds_each_distinct_table_once(monkeypatch):
    # the two fixed-k families share omega, hence their origin table
    rng = np.random.default_rng(41)
    gens = make_generators("su2_spin_one")
    fams = SolutionFamily.stack(random_family(gens, rng, k=(0.0, 0.6, -0.8), g=0.4)
                                for _ in range(2))
    built = []
    monkeypatch.setattr("amwave.poynting._trig_pair",
                        lambda *args, pair=_trig_pair: built.append(1) or pair(*args))
    flux_averages(fams, 7, ((rng.uniform(-1, 1, (2, 3)), "total"), (None, "total"),
                            (None, "mixed")))
    assert len(built) == 3


def test_only_the_requested_blocks_are_contracted(monkeypatch):
    # the quadrature reads the total at the origin, the suite the total at
    # r and the mixed block at the origin: each is one contraction of the
    # basis table, per generator group
    specs, einsum = [], np.einsum
    monkeypatch.setattr(np, "einsum", lambda spec, *ops, **kw: specs.append(spec)
                        or einsum(spec, *ops, **kw))
    flux_quadrature(xz_family(), samples=7)
    assert specs.count("...pq,pqiab...->...iab") == 1
    specs.clear()
    run_suite(RunConfig(suite="poynting", trials=3, samples=7))
    assert specs.count("...pq,pqiab...->...iab") == 2 * 2


def test_a_family_crosses_tau_once_for_its_fields_and_its_flux(monkeypatch):
    fam = random_family(SPIN_HALF, np.random.default_rng(47), g=0.4)
    calls = []

    def counted(name):
        kernel = getattr(amwave.fields, name)

        def run(u, v, *rest):
            if v is fam.tau:
                calls.append(name)
            return kernel(u, v, *rest)
        return run
    for name in ("cross", "real_cross"):
        monkeypatch.setattr(f"amwave.fields.{name}", counted(name))
    amw_flux(fam)
    b, _ = build_fields(fam)
    fam.eta
    assert sorted(calls) == ["cross", "real_cross"]
    assert b.amplitude(1).tobytes() == (fam.k_cross_tau * 1j).tobytes()
    assert b.amplitude(2).tobytes() == (fam.tau_cross_tau * (-1j * fam.ctx.g)).tobytes()


def mixed_stack(kind, seed, trials=3):
    """[generic, diagonal, generic] families of one generator kind, the
    first ``trials`` of them: the diagonal family's tau x tau is an exact
    zero, so alone it has no second harmonic while the stack holds that
    slot, zeroed for it."""
    rng = np.random.default_rng(seed)
    gens = make_generators(kind)
    fams = [random_family(gens, rng, g=0.4), diagonal_family(gens, rng, g=0.4),
            random_family(gens, rng, g=0.4)][:trials]
    assert build_fields(fams[1])[0].orders == (1,)
    stack = SolutionFamily.stack(fams)
    assert build_fields(stack)[0].orders == (1, 2)
    return fams, stack, rng


@pytest.mark.parametrize("samples", (5, 200))
@pytest.mark.parametrize("kind", KINDS)
def test_stacked_fluxes_give_each_trial_its_own_bytes(kind, samples):
    # 3 trials, and as many as the matrices have rows (2 or 3), so that a
    # per-trial factor broadcast along a matrix axis cannot pass
    for seed, trials in itertools.product(range(4), {3, make_generators(kind).dim}):
        fams, stack, rng = mixed_stack(kind, seed, trials)
        r = rng.uniform(-1, 1, (trials, 3))
        at_r, at_origin = flux_blocks(stack, samples, (r, None))
        closed = amw_flux(stack)
        r0 = rng.uniform(-1, 1, (trials, 3))
        a01 = -np.cross(stack.ctx.khat, np.cross(stack.ctx.khat, r0))
        em = em_flux(a01, stack.ctx)
        for t, fam in enumerate(fams):
            for got, pos in ((at_r, r[t]), (at_origin, None)):
                want = flux_blocks(fam, samples, (pos,))[0]
                assert got.keys() == want.keys()
                for key, val in want.items():
                    assert got[key][t].tobytes() == val.tobytes(), (seed, t, key, pos is None)
            assert closed[t].tobytes() == amw_flux(fam).tobytes(), (seed, t)
            assert em[t].tobytes() == em_flux(a01[t], fam.ctx).tobytes(), (seed, t)


def test_stacked_em_flux_refuses_a_longitudinal_trial():
    fams, stack, _ = mixed_stack("su2_spin_half", 43)
    khat = stack.ctx.khat
    a01 = -np.cross(khat, np.cross(khat, [1.0, 0.0, 0.0]))
    em_flux(a01, stack.ctx)
    a01[1] = khat[1]
    with pytest.raises(NonTransverseAmplitude):
        em_flux(a01, stack.ctx)


# k along z and the three generator vectors parallel, across k: B keeps a
# second harmonic of rounding size along k, and E's cancels
UNEQUAL_ORDERS_R = [[0.2, 0.1, 0.5], [0.6, 0.8, 0.0], [0.3, 0.4, 0.0], [-0.9, -1.2, 0.0]]


def test_a_wave_whose_e_and_b_hold_other_orders_passes_the_suite_and_the_export(tmp_path):
    ctx = WaveContext(generators=SPIN_HALF, k=np.array([0.0, 0.0, 1.0]), g=0.1)
    fam = SolutionFamily(ctx=ctx, R=tuple(np.array(r) for r in UNEQUAL_ORDERS_R))
    _, orders_e, orders_b, _ = _flux_form(fam)
    assert (orders_e, orders_b) == ((1,), (1, 2))
    closed = amw_flux(fam)
    assert operator_norm(flux_quadrature(fam) - closed) / max(1.0, operator_norm(closed)) <= 1e-14
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump({"family": {
        "generator": "su2_spin_half", "k": [0.0, 0.0, 1.0], "R": UNEQUAL_ORDERS_R}}))
    for argv in (["verify", "poynting", "--trials", "4"], ["poynting", "--steps", "16"]):
        assert main([*argv, "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_PASS
