"""Acceptance criteria, one test per criterion, each printing a
[PASS]/[FAIL] line.  Tolerances are pinned here and nowhere else; run with
``pytest tests/test_acceptance.py -s`` to see the lines as they go."""

import json
import time

import numpy as np

from amwave.algebra import make_generators, operator_norm, structure_constants
from amwave.cli import EXIT_PASS, main
from amwave.fields import (
    build_fields,
    build_potentials,
    curl,
    div,
    dt,
    random_family,
)
from amwave.poynting import amw_flux, em_flux, flux_averages
from amwave.relativity import boost_matrix, boosted_residuals
from amwave.residuals import Terms
from amwave.zitter import (
    DiracContext,
    SuperpositionSpec,
    amplitude_frequency_si,
    compton_wavelength_si,
    position_closed_form,
    spin_closed_form,
    spin_closed_form_z,
    wobble_expectations,
    zitter_position_expectation,
)

from support import abelian_family, equation_residuals, fd_curl, fd_div, fd_dt, residuals_of

SEED = 20240801


def _families(n=100, coupling=0.1):
    """n coplanar families alternating between the two spin representations."""
    rngs = np.random.SeedSequence(SEED).spawn(n)
    fams = []
    for i, ss in enumerate(rngs):
        kind = "su2_spin_half" if i % 2 == 0 else "su2_spin_one"
        fams.append(random_family(make_generators(kind),
                                  np.random.default_rng(ss), g=coupling))
    return fams


def _line(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_wca_soundness():
    start = time.perf_counter()
    fams = _families(100)
    worst = 0.0
    for fam in fams:
        cols = equation_residuals("wca", Terms.of(fam))
        worst = max(worst, max(r for _, r in cols))
        assert all(r <= 1e-12 for _, r in cols)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _line(1, ok, f"six conditions on 100 SU(2) families, worst residual "
                 f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_zca_soundness():
    worst = 0.0
    for fam in _families(100):
        terms = Terms.of(fam)
        cols = equation_residuals("zca", terms) + equation_residuals("maxwell", terms)
        worst = max(worst, max(r for _, r in cols))
        assert all(r <= 1e-12 for _, r in cols)
    _line(2, worst <= 1e-12,
          f"six spatial conditions + four field equations, worst {worst:.2e}")


def test_criterion_03_exactness_boundary():
    nonzero = 0
    for fam in _families(100):
        by = {name.split("_")[0]: r for name, r in equation_residuals("exact", Terms.of(fam))}
        if by["exact3"] > 1e-6 and by["exact8"] > 1e-6:
            nonzero += 1
    rng = np.random.default_rng(SEED)
    abelian_ok = True
    for kind in ("su2_spin_half", "su2_spin_one"):
        for _ in range(10):
            fam = abelian_family(make_generators(kind), rng)
            abelian_ok = abelian_ok and all(
                r <= 1e-12 for _, r in equation_residuals("exact", Terms.of(fam)))
    ok = nonzero >= 95 and abelian_ok
    _line(3, ok, f"coupling-squared brackets nonzero on {nonzero}/100 generic "
                 f"families; parallel-coefficient subfamily exact: {abelian_ok}")


def test_criterion_04_w_terms_vanish():
    worst = 0.0
    for fam in _families(100):
        cols = equation_residuals("w", Terms.of(fam))
        worst = max(worst, max(r for _, r in cols))
        assert all(r <= 1e-12 for _, r in cols)
    _line(4, worst <= 1e-12, f"W1..W4 vanish on all families, worst {worst:.2e}")


def test_criterion_05_property_battery():
    worst = 0.0
    for fam in _families(100):
        cols = equation_residuals("battery", Terms.of(fam))
        worst = max(worst, max(r for _, r in cols))
        assert all(r <= 1e-12 for _, r in cols)
    _line(5, worst <= 1e-12,
          f"transversality/orthogonality battery, worst {worst:.2e}")


def test_criterion_06_derivative_oracle():
    rng = np.random.default_rng(SEED + 6)
    fam = random_family(make_generators("su2_spin_one"), rng, g=0.3)
    b, _ = build_fields(fam)
    a, phi = build_potentials(fam)
    h = 1e-3 * 2.0 * np.pi / fam.ctx.knorm
    worst_rel = 0.0
    orders = []
    for _ in range(10):
        r, t = rng.uniform(-2, 2, 3), rng.uniform(0, 5)
        for est, exact_field in ((fd_div(b, r, t, h), div(b)),
                                 (fd_curl(b, r, t, h), curl(b)),
                                 (fd_dt(b, r, t, h), dt(b)),
                                 (fd_div(a, r, t, h), div(a))):
            exact = exact_field.eval_at(r, t)
            scale = max(1.0, operator_norm(exact))
            worst_rel = max(worst_rel, operator_norm(est.extrapolated - exact) / scale)
            err_h = operator_norm(est.at_h - exact)
            err_half = operator_norm(est.at_half - exact)
            if err_half > 1e-13 * scale:
                orders.append(np.log2(err_h / err_half))
    orders = np.array(orders)
    order_ok = bool(np.all(np.abs(orders - 2.0) <= 0.25))
    ok = worst_rel <= 1e-6 and order_ok
    _line(6, ok, f"oracle agreement {worst_rel:.2e} (<= 1e-6), measured order "
                 f"{orders.mean():.3f} +- {orders.std():.3f}")


def test_criterion_07_su3():
    f, _ = structure_constants(make_generators("su3_gellmann"))
    targets = {
        (1, 2, 3): 1.0,
        (1, 4, 7): 0.5, (2, 4, 6): 0.5, (2, 5, 7): 0.5, (3, 4, 5): 0.5,
        (1, 5, 6): -0.5, (3, 6, 7): -0.5,
        (4, 5, 8): np.sqrt(3) / 2, (6, 7, 8): np.sqrt(3) / 2,
    }
    worst_f = max(abs(f[a - 1, b - 1, c - 1] - v)
                  for (a, b, c), v in targets.items())
    rng = np.random.default_rng(SEED + 7)
    worst_zca = 0.0
    for _ in range(10):
        fam = random_family(make_generators("su3_gellmann"), rng)
        cols = equation_residuals("zca", Terms.of(fam))
        worst_zca = max(worst_zca, max(r for _, r in cols))
        assert all(r <= 1e-12 for _, r in cols)
    ok = worst_f <= 1e-12 and worst_zca <= 1e-12
    _line(7, ok, f"nine structure constants to {worst_f:.2e}; SU(3) family "
                 f"conditions to {worst_zca:.2e}")


def test_criterion_08_lorentz():
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    for vmag in (0.3, 0.9):
        for sign in (1.0, -1.0):
            for kind in ("su2_spin_half", "su2_spin_one"):
                fam = random_family(make_generators(kind), rng)
                cols = residuals_of(boosted_residuals(fam, sign * vmag))
                assert [name for name, _ in cols] == ["div_E", "faraday", "div_B", "ampere"]
                worst = max(worst, *(r for _, r in cols))
    v1, v2 = 0.3, 0.9
    vsum = (v1 + v2) / (1 + v1 * v2)
    comp = np.abs(boost_matrix(v1) @ boost_matrix(v2)
                  - boost_matrix(vsum)).max()
    ok = worst <= 1e-10 and comp <= 1e-12
    _line(8, ok, f"boosted Maxwell equations {worst:.2e}, velocity addition {comp:.2e}")


def spin_expectation(spec, ctx, t):
    """<Psi| Z_s(t) |Psi> at one time."""
    return wobble_expectations(ctx, spec.state_vector(ctx), [t])[1, 0]


def test_criterion_09_zitter_closed_forms():
    rng = np.random.default_rng(SEED + 9)
    worst = 0.0
    worst_zero = 0.0
    for _ in range(20):
        p = rng.uniform(-1, 1, 3)
        p[2] = abs(p[2]) + 0.2
        ctx = DiracContext(p=p)
        theta = rng.uniform(0, np.pi / 2)
        t = rng.uniform(0, 8.0)
        zr = zitter_position_expectation(SuperpositionSpec(theta, (1, 3)), ctx, t)
        worst = max(worst, float(np.abs(zr - position_closed_form(theta, ctx, t)).max()))
        zs = spin_expectation(SuperpositionSpec(theta, (1, 4)), ctx, t)
        worst = max(worst, float(np.abs(zs - spin_closed_form(theta, ctx, t)).max()))
        zero1 = zitter_position_expectation(SuperpositionSpec(0.0, (1, 3)), ctx, t)
        zero2 = spin_expectation(SuperpositionSpec(theta, (1, 3)), ctx, t)
        worst_zero = max(worst_zero, float(np.abs(zero1).max()),
                         float(np.abs(zero2).max()))
    ctxz = DiracContext(p=np.array([0, 0, 0.8]))
    zz = spin_expectation(SuperpositionSpec(0.5, (1, 4)), ctxz, 1.1)
    worst = max(worst, float(np.abs(zz - spin_closed_form_z(0.5, ctxz, 1.1)).max()))
    ok = worst <= 1e-12 and worst_zero <= 1e-14
    _line(9, ok, f"matrix vs closed forms {worst:.2e}; forbidden mixes "
                 f"{worst_zero:.2e}")


def test_criterion_10_si_constants():
    lam = compton_wavelength_si()
    a_max, omega_min = amplitude_frequency_si(theta=np.pi / 4, p_si=0.0)
    rel_lam = abs(lam - 2.42631e-12) / 2.42631e-12
    rel_a = abs(a_max - 1.9308e-13) / 1.9308e-13
    rel_om = abs(omega_min - 1.55269e21) / 1.55269e21
    ok = rel_a <= 5e-4 and rel_lam <= 5e-6 and rel_om <= 5e-5
    _line(10, ok, f"A_max rel {rel_a:.2e}, lambda_e rel {rel_lam:.2e}, "
                  f"omega_min rel {rel_om:.2e}")


def test_criterion_11_poynting():
    rng = np.random.default_rng(SEED + 11)
    worst_quad = worst_mixed = 0.0
    for kind in ("su2_spin_half", "su2_spin_one", "su3_gellmann"):
        fam = random_family(make_generators(kind), rng, g=0.3)
        closed = amw_flux(fam)
        scale = max(1.0, operator_norm(closed))
        quad, = flux_averages(fam, 10_000, ((rng.uniform(-1, 1, 3), "total"),))
        worst_quad = max(worst_quad, operator_norm(quad - closed) / scale)
        mixed, = flux_averages(fam, 10_000, ((None, "mixed"),))
        worst_mixed = max(worst_mixed, operator_norm(mixed) / scale)
    from amwave.fields import SolutionFamily, WaveContext
    gens = make_generators("su2_spin_half")
    ctx0 = WaveContext(generators=gens, k=np.array([0.1, -0.4, 1.0]), g=0.0)
    r0 = rng.uniform(-1, 1, 3)
    zero = np.zeros(3)
    fam0 = SolutionFamily(ctx=ctx0, R=(r0, zero, zero, zero))
    a01 = -np.cross(ctx0.khat, np.cross(ctx0.khat, r0))
    abelian = operator_norm(amw_flux(fam0) - em_flux(a01, ctx0))
    ok = worst_quad <= 1e-8 and abelian <= 1e-10 and worst_mixed <= 1e-10
    _line(11, ok, f"quadrature vs closed {worst_quad:.2e}, Abelian match "
                  f"{abelian:.2e}, mixed block {worst_mixed:.2e}")


def test_criterion_12_reproducibility(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "wca", "--trials", "10", "--seed", "424242"]
    assert main(args + ["--out", str(a)]) == EXIT_PASS
    assert main(args + ["--out", str(b)]) == EXIT_PASS
    identical = a.read_bytes() == b.read_bytes()
    body = json.loads(a.read_text())
    _line(12, identical and body["summary"]["overall_pass"],
          f"two runs, {body['summary']['total']} items, byte-identical: "
          f"{identical}")
