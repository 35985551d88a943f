"""Mutation score of the tier-1 tests.

Each mutant is one textual edit of the package, ``(name, file, old,
new)``: ``old`` occurs exactly once in ``src/amwave/<file>`` and is
replaced by ``new``.  For each mutant the tool copies ``src/`` to a
temporary directory, applies the edit there, runs the tier-1 tests
against the copy with ``-x -q`` and prints whether they killed it (any
failure, error or timeout; the first failing test is named) or it
survived.  The score comes last.

    python tools/mutants.py

It exits 1 if a mutant survives that ``EQUIVALENT`` does not list with
the reason no test can tell it apart, and 2 if the unmutated copy fails
its tests.  One tier-1 run per mutant makes it slow, minutes in all, so
it is not part of tier-1; ``tests/test_tools.py`` only checks that every
``old`` still occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # under src/amwave
    old: str
    new: str


MUTANTS = (
    # the equation table: a sign, an operand, a factor or a dropped term
    Mutant("ym_div_E", "residuals.py",
           '"ym_div_E": lambda w: div(w.ep) + w.ig',
           '"ym_div_E": lambda w: div(w.ep) - w.ig'),
    Mutant("w3", "residuals.py", '"w3": lambda w: (-w.ig) * div(w.m)',
           '"w3": lambda w: (-w.ig) * div(w.n)'),
    Mutant("phi_n_bracket", "residuals.py", "(comm_sv(w.phi, w.n) + vcross(w.a, w.m)",
           "(comm_sv(w.phi, w.n) - vcross(w.a, w.m)"),
    Mutant("ExB_perpendicular_part", "residuals.py", "perpendicular_part(vcross(w.e, w.b)",
           "perpendicular_part(vcross(w.e, w.e)"),
    Mutant("scalar_wave", "residuals.py", '"scalar_wave": lambda w: (1j * w.kn)',
           '"scalar_wave": lambda w: (-1j * w.kn)'),
    Mutant("a_n_bracket", "residuals.py", "vdot(w.a, w.n) - vdot(w.n, w.a)",
           "vdot(w.a, w.n) + vdot(w.n, w.a)"),
    Mutant("induction", "residuals.py", "2.0 * w.kn * w.m", "1.0 * w.kn * w.m"),
    Mutant("div_m", "residuals.py", '"div_m": lambda w: div(w.m)',
           '"div_m": lambda w: div(w.n)'),
    Mutant("vector_wave", "residuals.py", "\n                              - (1j * w.kn) * w.gp)",
           ")"),
    Mutant("ampere_bracket", "residuals.py", "+ curl(w.m)\n" + " " * 33 + "+ comm_sv(w.phi, w.gp)",
           "+ curl(w.m)\n" + " " * 33 + "- comm_sv(w.phi, w.gp)"),
    Mutant("n_curl_m", "residuals.py", "(2j * w.kn) * w.n + curl(w.m)",
           "(1j * w.kn) * w.n + curl(w.m)"),
    Mutant("faraday", "residuals.py", "curl(w.e) + w.inv_c * dt(w.b)",
           "curl(w.e) - w.inv_c * dt(w.b)"),
    Mutant("ampere", "residuals.py", "curl(w.b) - w.inv_c * dt(w.e)",
           "curl(w.b) + w.inv_c * dt(w.e)"),
    Mutant("E_minus_B_cross_khat", "residuals.py", "w.e + ncross(w.ctx.khat, w.b)",
           "w.e - ncross(w.ctx.khat, w.b)"),
    Mutant("bp", "residuals.py", "w.ca - w.ig * w.m", "w.ca + w.ig * w.m"),
    Mutant("ep", "residuals.py", "-w.at - w.gp - w.ig * w.n", "-w.at - w.gp + w.ig * w.n"),
    # the power of |k| a bracket carries, which |k| = 1 cannot show
    Mutant("vector_wave_k2", "residuals.py", "- square(w.kn) * w.a", "- w.kn * w.a"),
    Mutant("induction_k", "residuals.py", "2.0 * w.kn * w.m", "2.0 * w.m"),
    Mutant("ampere_bracket_k", "residuals.py", "(1j * w.kn) * w.n - vcross(w.a, w.ca)",
           "1j * w.n - vcross(w.a, w.ca)"),
    # the array rules that algebra holds for every module
    Mutant("sup_norms", "algebra.py", ".reshape(batch + (blocks,)).max(axis=-1, initial=0.0)",
           ".reshape(batch + (blocks,)).min(axis=-1, initial=np.inf)"),
    Mutant("dots", "algebra.py", "(a[..., None, :] @ b[..., :, None])",
           "(a[..., None, :] @ a[..., :, None])"),
    Mutant("square", "algebra.py", "return np.array([v ** 2 for v in np.asarray(x).tolist()])",
           "return np.square(np.asarray(x, dtype=float))"),
    Mutant("diag", "algebra.py", "out[..., ::n + 1] = x", "out[..., ::n] = x"),
    Mutant("series_block", "algebra.py", "SERIES_BLOCK = 128", "SERIES_BLOCK = 127"),
    # a real 3-vector acting on an operator vector, and the overflow guard
    # that lets a field take its norms only when they are read
    Mutant("real_cross_sign", "algebra.py", "return n[i] * v[j] - n[j] * v[i]",
           "return (n[i] * v[j] - n[j] * v[i]) * _lift([1.0, 1.0, -1.0], batch)"),
    Mutant("real_dot_term", "algebra.py", " + n[c[2]] * v[c[2]]", ""),
    # a per-trial factor of a stacked field on its last matrix axis instead
    # of its trailing trial axis: only a stack of d trials broadcasts it
    # (the stacks of 2 spin-1/2 and 3 spin-1 or su3 trials in
    # test_residuals.py, test_relativity.py and test_poynting.py)
    Mutant("per_trial_axis", "fields.py", "(1,) * (amps.ndim - x.ndim) + x.shape[1:])",
           "(1,) * (amps.ndim - x.ndim - 1) + x.shape[1:] + (1,))"),
    Mutant("overflow_guard", "fields.py", "limit = SQRT_MAX / (2 * ctx.dim)", "limit = np.inf"),
    # a sum of two fields with the same orders that skips _field, so a slot
    # that cancels stays and an overflow passes
    # (test_fields.py::test_term_merging, first in the run order, and
    # test_fields.py::test_a_same_order_sum_has_the_bits_of_the_merge)
    Mutant("same_order_unchecked", "fields.py",
           "return _field(self.ctx, self.orders, self.amps + other.amps)",
           "return HarmonicField(self.ctx, self.orders, readonly(self.amps + other.amps))"),
    # a sum of a scalar and a vector field, or of fields on two contexts
    # (test_fields.py::test_sums_take_fields_of_one_kind_on_one_context)
    Mutant("require_kind_and_context", "fields.py",
           "if other.is_vector != self.is_vector or not _compatible",
           "if other.is_vector != self.is_vector and not _compatible"),
    # the boost as a plain matrix
    Mutant("boost_matrix", "relativity.py", "m[..., 0, i] = m[..., i, 0] = -gamma * beta",
           "m[..., 0, i] = m[..., i, 0] = gamma * beta"),
    Mutant("boost_axis", "relativity.py", "or axis not in (0, 1, 2)):",
           "or axis not in (0, 1, 2, 3)):"),
    Mutant("boost_names", "relativity.py", 'f"v={s:+}c/{name}"', 'f"v={s:+g}c/{name}"'),
    Mutant("unitary_exponential", "relativity.py", "diag(np.exp(1j * w))",
           "diag(np.exp(-1j * w))"),
    # the boosted fields and wave of the boost suite
    Mutant("boost_e_sign", "relativity.py", "+ gamma_beta * ncross(n, b)",
           "- gamma_beta * ncross(n, b)"),
    Mutant("boost_b_gamma", "relativity.py", "b + (gamma - 1.0) * perpendicular_part(b, n)",
           "b + gamma * perpendicular_part(b, n)"),
    Mutant("boost_e_perp", "relativity.py", "e + (gamma - 1.0) * perpendicular_part(e, n) + ",
           "e + "),
    Mutant("boost_wave", "relativity.py", "boost_wavevector(kmu, boost)[..., 1:]",
           "boost_wavevector(kmu, boost @ boost)[..., 1:]"),
    # each suite's variants on one stack: the speed blocks of the boost
    # stack swapped as its columns are split
    # (test_relativity.py::test_batch_columns_equal_single_family_bits),
    # and the gauge suite's wca read from the unrotated half
    # (test_cli.py::test_batched_suites_equal_a_loop_over_single_families)
    Mutant("boost_frame_split", "relativity.py", "np.reshape(x, (s,) + ctx.batch_shape)[j]",
           "np.reshape(x, (s,) + ctx.batch_shape)[s - 1 - j]"),
    Mutant("gauge_rotated_half", "relativity.py", "[norm[n:] for", "[norm[:n] for"),
    # the trial table: each generator group's rows written at the other
    # group's offset, which an odd trial count cannot hold and an even one
    # fills with the other kind's residuals
    # (test_cli.py::test_numeric_boost_axis_writes_the_letter_report, first
    # in the run order, and test_batched_suites_equal_a_loop_over_single_families),
    # and a group whose columns differ from the first group's taken unchecked
    # (test_cli.py::test_a_group_with_other_columns_fails_loudly_and_writes_no_report)
    Mutant("group_rows_offset", "cli.py",
           "norms[j, first::step], scales[j, first::step] = norm, scale",
           "norms[j, step - 1 - first::step], scales[j, step - 1 - first::step] = norm, scale"),
    Mutant("group_columns_unchecked", "cli.py", "elif got != heads:", "elif False:"),
    # a fixed family's group built from the wrong rows, R_0 and R_1 swapped
    # (test_cli.py::test_bad_family_config_is_config_error, first in the run
    # order, and test_a_fixed_family_group_holds_the_config_family_in_every_trial)
    Mutant("fixed_family_rows", "cli.py", "R=tuple([r] * len(rngs) for r in cfg.R))",
           "R=tuple([r] * len(rngs) for r in (cfg.R[1], cfg.R[0], *cfg.R[2:])))"),
    # the Dirac kernel every zitter check and export runs through: the
    # phase at half its frequency, the evolution run backwards in time,
    # H^-1 taken as H / E_p in the series' coefficient a, and the spin
    # wobble crossed with -p
    # (test_acceptance.py::test_criterion_09_zitter_closed_forms, first in
    # the run order, and the direct-path and spectral oracles of test_zitter.py)
    Mutant("wobble_phase", "zitter.py", "phi = 2.0 * ep * ts / ctx.hbar",
           "phi = ep * ts / ctx.hbar"),
    Mutant("wobble_sin_sign", "zitter.py", "return a * e_ph.real + s * e_p.imag",
           "return a * e_ph.real - s * e_p.imag"),
    Mutant("hinv_energy", "zitter.py", "a, s = (np.cos(phi) - 1.0) / esq,",
           "a, s = (np.cos(phi) - 1.0) / ep,"),
    Mutant("spin_cross", "zitter.py", "np.cross(p[..., None, :], e)",
           "np.cross(-p[..., None, :], e)"),
    # the exact norm of Z(t) that scales the kernel's Hermitian check: the
    # weights of its two basis terms swapped, and the position and spin
    # Gram entries swapped
    # (test_zitter.py::test_imaginary_expectation_is_rejected_per_row)
    Mutant("wobble_norm_weights", "zitter.py", "(a * a * esq + s * s)", "(s * s * esq + a * a)"),
    Mutant("wobble_gram_swap", "zitter.py",
           '{"position": (square(ctx.mass * ctx.c ** 2) + ctx.c ** 2 * q) / esq, "spin": q}',
           '{"spin": (square(ctx.mass * ctx.c ** 2) + ctx.c ** 2 * q) / esq, "position": q}'),
    # the pair table: the opposite-helicity pair (2,3) exported as a
    # position wobble
    # (test_cli.py::test_zitter_export_rows_equal_a_per_time_evaluation_bitwise)
    Mutant("pair_wobble", "zitter.py", '(2, 3): ("spin", None)', '(2, 3): ("position", None)'),
    # |p| + p_z taken as written below the xy plane, where it cancels
    # (test_zitter.py::test_polar_singularity)
    Mutant("norm_plus_pz_cancels", "zitter.py", "np.where(pz < 0.0,", "np.where(pz < -np.inf,"),
    # u_minus as sqrt(E_p - m c^2), which cancels at small |p|
    # (test_zitter.py::test_polar_singularity)
    Mutant("u_minus_cancels", "zitter.py", "_value(self.c * self.pnorm / self.u_plus)",
           "_value(np.sqrt(self.energy - self.mass * self.c ** 2))"),
    # the frequency checks: a wave whose period 2 pi / omega overflows, and
    # a Dirac context whose wobble frequency 2 E_p / hbar does, let through
    # (test_cli.py::test_bad_family_config_is_config_error, a zero k, first
    # in the run order, and test_a_frequency_whose_period_overflows_is_config_error;
    # test_cli.py::test_a_wobble_frequency_that_overflows_is_config_error)
    Mutant("period_check", "fields.py", "if not np.isfinite(2.0 * np.pi / omega).all():",
           "if False:"),
    Mutant("wobble_frequency_check", "zitter.py",
           "if not np.isfinite(2.0 * self.energy / self.hbar).all():", "if False:"),
    # the wobble's time ranges at a large hbar: the suite's 4 pi hbar / E_p
    # and the export's default window pi hbar / E_p let through to the
    # kernel, which then raises a plain ValueError
    # (test_cli.py::test_cli_inputs_never_crash, its explicit examples first,
    # and test_a_wobble_time_range_that_overflows_is_config_error)
    Mutant("time_range_check", "zitter.py", "if not np.isfinite(span).all():", "if False:"),
    Mutant("export_window_check", "zitter.py", "if not np.isfinite(window):", "if False:"),
    # a square past the float range left to Python's float power, whose
    # OverflowError names no value
    # (test_cli.py::test_a_square_that_overflows_is_named)
    Mutant("overflow_unnamed", "algebra.py", "if np.any(np.abs(x) > SQRT_MAX):", "if False:"),
    # a refusal no longer an input error: main lets a polar momentum's
    # PolarSingularity escape as a traceback
    # (test_cli.py::test_bad_flag_values_are_config_errors, first in the run order)
    Mutant("polar_singularity_parent", "zitter.py", "class PolarSingularity(InputError):",
           "class PolarSingularity(ValueError):"),
    # the trial streams: a seeding hash constant one bit off
    # (test_seeding.py::test_spawned_streams_equal_numpys_children_word_for_word_and_draw_for_draw),
    # and the zitter draw's angle read from the time's column
    # (test_cli.py::test_zitter_group_columns_equal_a_trial_by_trial_loop)
    Mutant("seeding_constant", "seeding.py", "INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875",
           "INIT_A, MULT_A = 0x43B0D7E5, 0x931E8874"),
    Mutant("zitter_draw_columns", "zitter.py", "theta = _uniform(0.0, np.pi / 2.0, u[:, 3])",
           "theta = _uniform(0.0, np.pi / 2.0, u[:, 4])"),
    # the CSV encoder: the blank cells that end a row one short, and each
    # block's last row left unended
    # (test_cli.py::test_timeseries_bytes_are_csv_writers, first in the run
    # order, and test_timeseries_encoder_writes_csv_writers_bytes_in_any_block)
    Mutant("blank_suffix_short", "cli.py", 'end = "," * blank + "\\r\\n"',
           'end = "," * (blank - 1) + "\\r\\n"'),
    Mutant("block_end_dropped", "cli.py", 'fh.write(end.join(map(",".join, zip(*texts))) + end)',
           'fh.write(end.join(map(",".join, zip(*texts))))'),
    # the Poynting residuals' scales
    Mutant("abelian_scale", "poynting.py", '("abelian_equals_em", abelian, scale0, 1e-10)',
           '("abelian_equals_em", abelian, 1.0, 1e-10)'),
    # the floor below which every residual is absolute, raised
    # (test_residuals.py::test_relative_is_absolute_below_a_scale_of_one_and_relative_above,
    # and, first in the run order, the suite tests whose scales lie below 2)
    Mutant("relative_floor", "residuals.py", "return norm / np.maximum(1.0, scale)",
           "return norm / np.maximum(2.0, scale)"),
    # the judge: its guard on the scale, which a flux's overflowing norm
    # trips (test_cli.py::test_a_flux_whose_norm_overflows_is_config_error),
    # and a pass rule that compares the norm, not norm / scale
    # (test_cli.py::test_judge_holds_the_residual_magnitude_to_the_tolerance)
    Mutant("flux_norm_check", "cli.py", "if not np.isfinite(scale).all():", "if False:"),
    Mutant("judge_unscaled", "cli.py", "np.abs(res) <= tol, tol)",
           "np.abs(np.broadcast_to(norm, res.shape)) <= tol, tol)"),
    # the generator-set checks at any hbar: the pair test on the unscaled
    # generators, and the old SU(2) bound, which grows as hbar, not hbar^2
    # (test_algebra.py::test_su2_sets_build_with_every_pair_noncommuting_at_any_hbar)
    Mutant("pairs_unscaled", "algebra.py",
           "gs = self.generators / (np.abs(self.generators).max(initial=0.0) or 1.0)",
           "gs = self.generators"),
    Mutant("su2_old_bound", "algebra.py",
           "sx, sy, sz = gs.generators / gs.hbar\n"
           "    for (a, b, c) in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):\n"
           "        defect = operator_norm(commutator(a, b) - 1j * c)\n"
           "        if not defect <= HERMITICITY_TOL:",
           "sx, sy, sz = gs.generators\n"
           "    for (a, b, c) in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):\n"
           "        defect = operator_norm(commutator(a, b) - 1j * gs.hbar * c)\n"
           "        if defect > HERMITICITY_TOL * max(1.0, gs.hbar):"),
)

# name -> why no test can tell the mutant from the program
EQUIVALENT = {
    "series_block": "the block length sets only the size of a time series' temporaries; "
                    "every row gets the same bits in any block",
}


def apply(mutant: Mutant, src: Path):
    """Edit the package under ``src`` (a copy of SRC) in place."""
    path = src / "amwave" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"mutant {mutant.name}: its text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def tier1(mutant: Mutant | None) -> str | None:
    """None if tier-1 passes on a copy of the package, mutated unless None;
    else the first failing test, or what stopped the run."""
    with tempfile.TemporaryDirectory(prefix="amwave-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            apply(mutant, src)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import amwave; print(amwave.__file__)"],
                               env=env, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).is_relative_to(src):
            raise SystemExit(f"the tests would import {where.stdout.strip()}, not the copy")
        try:
            run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                                  "-p", "no:cacheprovider", str(TESTS)],
                                 cwd=ROOT, env=env, capture_output=True, text=True,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"
        if run.returncode == 0:
            return None
        failures = [line.split(" - ")[0] for line in run.stdout.splitlines()
                    if line.startswith(("FAILED ", "ERROR "))]
        return failures[0] if failures else f"pytest exit code {run.returncode}"


def main() -> int:
    if (failure := tier1(None)) is not None:
        print(f"tier-1 fails on the unmutated copy ({failure}); no score", file=sys.stderr)
        return 2
    survivors = []
    for m in MUTANTS:
        if (failure := tier1(m)) is not None:
            print(f"killed    {m.name}  by {failure}", flush=True)
            continue
        note = f"  (equivalent: {EQUIVALENT[m.name]})" if m.name in EQUIVALENT else ""
        print(f"survived  {m.name}{note}", flush=True)
        survivors.append(m.name)
    killed = len(MUTANTS) - len(survivors)
    print(f"score: {killed} of {len(MUTANTS)} killed, "
          f"{sum(n in EQUIVALENT for n in survivors)} survivor(s) listed as equivalent")
    return 1 if set(survivors) - set(EQUIVALENT) else 0


if __name__ == "__main__":
    sys.exit(main())
