"""Determinism gate: sha256 of the report and CSV bodies for a fixed set of runs.

Prints one line per hashed body, ``<sha256>  <label>``: 107 lines for
96 runs, each export run hashed twice, its CSV and its verdict:

- 21 report bodies: all nine suites at seeds 1 and 42 with 25 trials
  (poynting: 3 trials, 200 samples), plus wca/zca/exact at seed 7 with
  the su3_gellmann generator.
- 45 report bodies of edge cases for the condition suites (wca, zca,
  exact, full, gauge) and boost: a fixed spin-1/2 family with k = z; an
  all-zero R, whose fields are empty; a family with every R along x, so
  phi = 0; zero coupling (also su3); the su2_spin_one generator alone;
  and the alternating generator at 1 and 3 trials, where one generator
  group holds a single trial (also su3).
- 2 boost report bodies at seed 3 along the x and the y axis; every
  other boost run uses the default z axis.
- 6 report bodies away from hbar = c = 1: wca, zca, gauge, boost and
  zitter at seed 13 with 10 trials, and poynting (3 trials, 200
  samples), all at hbar = 0.5 and c = 2.
- 1 zitter report body at seed 13 with 10 trials and hbar = 1000, the
  only run whose wobble scale hbar c / 2 E_p exceeds 1, so its residuals
  are divided by that scale.
- 3 report bodies for generators no other run gives these suites: gauge
  at seed 7 with su3_gellmann (10 trials), and poynting at seed 7 with
  su2_spin_one and with su3_gellmann (3 trials, 200 samples).
- 7 report bodies of edge cases for zitter and poynting: both at seed 11
  with 1 and with 3 trials, where one generator group holds a single
  trial (poynting at 200 samples), and poynting at 200 samples: at seed 3
  with the fixed spin-1/2 family (4 trials), at seed 5 with 25 trials
  (generator groups of 13 and 12) and at seed 5 with zero coupling (10
  trials), where every trial drops its second harmonic.
- 8 ``amwave zitter`` CSV bodies: pairs (1,3), (1,4), (2,3) and (2,4),
  each at the default momentum 0,0,0.8 (exact zeros in p) and at the
  off-axis momentum 0.3,-0.4,0.9.
- 3 ``amwave poynting --seed 2`` CSV bodies: the default generator,
  su3_gellmann and su2_spin_one.
- 11 verdict lines, one for each of the 11 exports above, labelled as
  its CSV with `` verdict`` appended.

Every hashed body is the bytes the program writes: a report as
``write_report`` writes it for ``amwave verify --out``, a CSV as the
command writes it with ``--out``, and a verdict as the export prints it
on stderr.  A refactor that promises
byte-identical output compares the old and the new source tree in one
command:

    python tools/report_hashes.py --against /path/to/old/checkout/src

It runs every configuration above under the ``src/`` beside this tool
and under the old tree, each in its own interpreter, prints the label
of each configuration whose hash differs (or that one tree did not
run), and exits 1 on any difference or failed run, 0 when all 107 agree.
Without ``--against`` it prints the hash lines of the tree on
PYTHONPATH:

    PYTHONPATH=src python tools/report_hashes.py > new.txt

A change that moves report bits on purpose compares what the reports
say, not their bytes:

    python tools/report_hashes.py --compare /path/to/old/checkout/src

It runs the 96 runs above under both trees, each in its own interpreter,
and then two sets that no hash line holds: the 10 plain runs of the
defects on record (``defect_configs``), whose failing items a fix would
flip, and 19 bad-input runs (``bad_inputs``), each of which must exit 2
with one ``config error:`` line and write no file.  It reads each report
configuration's items, and each export's verdict item, the one ``judge``
gives it (``abs_dev`` or ``quadrature_vs_closed``), so a PASS/FAIL flip
of a verdict is a changed pass flag.  It prints one line for each run
whose items differ: how many pass flags changed, whether an item or a
tolerance changed, and for each item name (the trial prefix dropped)
the largest drop of the margin log10(tol / |residual|) over its trials,
negative where every trial's margin grew.  Each changed pass flag follows
on a line of its own.  A residual below eps = 2.2e-16, the rounding of a
relative residual of order one, counts as eps, so an exact zero in one
tree and rounding in the other is no drop.  For the bad-input runs it
prints each run whose exit code, stderr lines or written file differ
between the trees, old then new.  It exits 1 on a failed run, a changed
pass flag, item or tolerance, a drop of more than one decade, or a
bad-input run that the new tree does not refuse as one config error;
else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

NEW_SRC = Path(__file__).resolve().parent.parent / "src"

ZITTER_PAIRS = ("1,3", "1,4", "2,3", "2,4")
ZITTER_MOMENTA = ("0,0,0.8", "0.3,-0.4,0.9")


# Edge-case families, each with k = z and the spin-1/2 generator.
FIXED_R = {
    "fixed R": ((0.3, -0.2, 0.5), (1.0, 0.0, 0.0), (0.0, 0.0, -0.7), (0.4, 0.0, 1.0)),
    "zero R": ((0.0, 0.0, 0.0),) * 4,
    "R along x (phi=0)": ((0.6, 0.0, 0.0), (1.0, 0.0, 0.0), (-0.3, 0.0, 0.0), (0.8, 0.0, 0.0)),
}
CONDITION_SUITES = ("wca", "zca", "exact", "full", "gauge")


def configs():
    from amwave.cli import SUITES, RunConfig
    for seed in (1, 42):
        for suite in SUITES:
            if suite == "poynting":
                yield f"{suite} seed={seed}", RunConfig(
                    suite=suite, seed=seed, trials=3, samples=200)
            else:
                yield f"{suite} seed={seed}", RunConfig(suite=suite, seed=seed, trials=25)
    for suite in ("wca", "zca", "exact"):
        yield f"{suite} seed=7 su3_gellmann", RunConfig(
            suite=suite, seed=7, trials=25, generator="su3_gellmann")
    for name, R in FIXED_R.items():
        for suite in CONDITION_SUITES + ("boost",):
            yield f"{suite} seed=3 {name}", RunConfig(
                suite=suite, seed=3, trials=4, generator="su2_spin_half",
                k=(0.0, 0.0, 1.0), R=R)
    for suite in CONDITION_SUITES + ("su3", "boost"):
        yield f"{suite} seed=5 coupling=0", RunConfig(
            suite=suite, seed=5, trials=10, coupling=0.0)
    for suite in CONDITION_SUITES + ("boost",):
        yield f"{suite} seed=9 su2_spin_one", RunConfig(
            suite=suite, seed=9, trials=10, generator="su2_spin_one")
    for trials in (1, 3):
        for suite in CONDITION_SUITES + ("su3", "boost"):
            yield f"{suite} seed=11 trials={trials}", RunConfig(
                suite=suite, seed=11, trials=trials)
    for axis in ("x", "y"):
        yield f"boost seed=3 axis={axis}", RunConfig(
            suite="boost", seed=3, trials=10, boost_axis=axis)
    for suite in ("wca", "zca", "gauge", "boost", "zitter"):
        yield f"{suite} seed=13 hbar=0.5 c=2", RunConfig(
            suite=suite, seed=13, trials=10, hbar=0.5, c=2.0)
    yield "poynting seed=13 hbar=0.5 c=2", RunConfig(
        suite="poynting", seed=13, trials=3, samples=200, hbar=0.5, c=2.0)
    yield "zitter seed=13 hbar=1000", RunConfig(suite="zitter", seed=13, trials=10, hbar=1000.0)
    yield "gauge seed=7 su3_gellmann", RunConfig(
        suite="gauge", seed=7, trials=10, generator="su3_gellmann")
    for generator in ("su2_spin_one", "su3_gellmann"):
        yield f"poynting seed=7 {generator}", RunConfig(
            suite="poynting", seed=7, trials=3, samples=200, generator=generator)
    for trials in (1, 3):
        yield f"zitter seed=11 trials={trials}", RunConfig(
            suite="zitter", seed=11, trials=trials)
        yield f"poynting seed=11 trials={trials}", RunConfig(
            suite="poynting", seed=11, trials=trials, samples=200)
    yield "poynting seed=3 fixed R", RunConfig(
        suite="poynting", seed=3, trials=4, samples=200, generator="su2_spin_half",
        k=(0.0, 0.0, 1.0), R=FIXED_R["fixed R"])
    yield "poynting seed=5 trials=25", RunConfig(
        suite="poynting", seed=5, trials=25, samples=200)
    yield "poynting seed=5 coupling=0", RunConfig(
        suite="poynting", seed=5, trials=10, samples=200, coupling=0.0)


def defect_configs():
    """The defects on record, as plain runs: true families that fail at
    |k| = 1000 and at hbar = 1000 (exact fails there only as the paper
    predicts), a boost a step below c, the flux quadrature at |k| = 1e6,
    and the zitter suite at hbar = 1e-13, where its residuals cannot tell
    a closed form from twice it.  ``--compare`` runs them after the hashed
    runs; no hash line holds them."""
    from amwave.cli import RunConfig
    for suite in ("wca", "zca", "gauge"):
        yield f"defect {suite} seed=3 k=1000", RunConfig(
            suite=suite, seed=3, trials=4, k=(0.0, 600.0, 800.0))
    for suite in ("zca", "full", "gauge", "exact"):
        yield f"defect {suite} seed=42 hbar=1000", RunConfig(
            suite=suite, seed=42, trials=4, hbar=1e3)
    yield "defect boost seed=3 velocity=0.9999999999999999", RunConfig(
        suite="boost", seed=3, trials=2, velocity=0.9999999999999999)
    yield "defect poynting seed=42 k=1e6", RunConfig(
        suite="poynting", seed=42, trials=4, samples=5, k=(0.0, 0.0, 1e6))
    yield "defect zitter seed=42 hbar=1e-13", RunConfig(
        suite="zitter", seed=42, trials=20, hbar=1e-13)


def bad_inputs():
    """The bad-input runs, as (label, argv, family section of a config
    file): one command for each rule the flags of
    ``test_bad_flag_values_are_config_errors`` break, and units so large
    or small that a run meets an overflow, an underflow or a generator set
    that loses its digits."""
    for argv in (["verify", "boost", "--velocity=1"], ["zitter", "--pair=1,2"],
                 ["zitter", "--momentum=0,0,-0.8"], ["zitter", "--momentum=0,0,1e-160"],
                 ["zitter", "--momentum=0,0,1e120"], ["zitter", "--momentum=1e200,0,1e200"],
                 ["zitter", "--momentum=nan,0,0.8"], ["zitter", "--theta=inf"],
                 ["verify", "poynting", "--samples=4"], ["verify", "wca", f"--trials={10**29}"],
                 ["zitter", f"--steps={2**63}"]):
        yield f"bad {' '.join(argv)}", argv, {}
    for argv, family in ((["verify", "zitter"], {"hbar": 2.0e307}),
                         (["zitter"], {"hbar": 1.0e308}),
                         (["verify", "wca"], {"hbar": 1.0e-320}),
                         (["verify", "zca"], {"c": 1.0e-320}),
                         (["zitter"], {"c": 1.0e-200}),
                         (["verify", "zitter"], {"c": 1.0e300}),
                         (["zitter"], {"c": 1.0e300}),
                         (["zitter"], {"hbar": 2.0e307})):
        yield f"bad {' '.join(argv)} " + " ".join(f"{k}={v!r}" for k, v in family.items()), \
            argv, family


def exports():
    for pair in ZITTER_PAIRS:
        for momentum in ZITTER_MOMENTA:
            yield (f"zitter csv pair={pair} momentum={momentum}",
                   ["zitter", "--pair", pair, f"--momentum={momentum}"])
    yield "poynting csv seed=2", ["poynting", "--seed", "2"]
    for generator in ("su3_gellmann", "su2_spin_one"):
        yield (f"poynting csv seed=2 {generator}",
               ["poynting", "--seed", "2", "--generator", generator])


def written(write) -> bytes:
    """The bytes ``write(path)`` puts in a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        write(path)
        with open(path, "rb") as fh:
            return fh.read()


def report_body(cfg: RunConfig) -> bytes:
    """The bytes ``amwave verify --out FILE`` writes for ``cfg``."""
    from amwave.cli import run_suite, write_report
    return written(lambda path: write_report(run_suite(cfg), path))


def export_bodies(argv: list[str]) -> tuple[bytes, bytes]:
    """The bytes ``amwave <argv> --out FILE`` writes, and the verdict it
    prints on stderr."""
    from amwave.cli import main as cli_main
    verdict = io.StringIO()

    def write(path):
        with contextlib.redirect_stderr(verdict):
            cli_main([*argv, "--out", path])
    return written(write), verdict.getvalue().encode()


def refusal(argv: list[str], family: dict) -> dict:
    """What ``amwave <argv> --config FILE --out PATH`` does, FILE holding
    ``family`` as its family section: its exit code, or the type of the
    exception it raised, its stderr lines, and whether it wrote PATH."""
    import yaml
    from amwave.cli import main as cli_main
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "cfg.yaml"), os.path.join(tmp, "out")
        with open(config, "w") as fh:
            yaml.safe_dump({"family": family}, fh)
        try:
            with contextlib.redirect_stderr(err):
                code = cli_main([*argv, "--config", config, "--out", out])
        except Exception as exc:  # a crash is an outcome to compare too
            code = f"raised {type(exc).__name__}"
            err.write(f"{exc}\n")
        return {"exit": code, "stderr": err.getvalue().splitlines(), "wrote": os.path.exists(out)}


def under_both(old_src: str, args: list[str]) -> tuple[list[str], bool]:
    """This tool's stdout with ``args`` under ``old_src`` and under
    NEW_SRC, each run in its own interpreter, and whether either failed."""
    runs = [subprocess.Popen([sys.executable, __file__, *args], stdout=subprocess.PIPE,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)})
            for src in (old_src, NEW_SRC)]
    outs, failed = [], False
    for src, proc in zip((old_src, NEW_SRC), runs):
        outs.append(proc.communicate()[0])
        if proc.returncode:
            print(f"run under {src} failed with exit code {proc.returncode}")
            failed = True
    return outs, failed


def against(old_src: str) -> int:
    """Print the labels whose hashes differ between ``old_src`` and
    NEW_SRC; 1 on any difference or failed run."""
    outs, failed = under_both(old_src, [])
    old, new = ({label: digest for digest, label in
                 (line.split("  ", 1) for line in out.splitlines())} for out in outs)
    labels = {**old, **new}
    differ = [label for label in labels if old.get(label) != new.get(label)]
    for label in differ:
        print(label)
    print(f"{len(differ)} of {len(labels)} differ", file=sys.stderr)
    return 1 if differ or failed else 0


def as_items(judged) -> list[dict]:
    """What ``judge`` returns, as item dicts: older trees return the list
    of them, newer ones a judged column (name, residuals, pass flags,
    tolerance), one item per residual."""
    if isinstance(judged, list):
        return judged
    name, residual, passed, tol = judged
    return [{"name": name, "residual": r, "tolerance": tol, "pass": ok}
            for r, ok in zip(residual.tolist(), passed.tolist())]


def export_items(argv: list[str]) -> list[dict]:
    """The items ``judge`` makes for the verdict of ``amwave <argv>`` while the export runs."""
    from amwave import cli
    judged, judge = [], cli.judge
    cli.judge = lambda *args: judged.extend(as_items(result := judge(*args))) or result
    try:
        export_bodies(argv)
    finally:
        cli.judge = judge
    return judged


def print_items(labels: list[str]):
    """Print (label, items) of each run in ``labels``, or of every one, as
    a JSON line; an item is (name, residual, tolerance, pass), read from
    the report body, so any tree's report API serves."""
    runs = [(label, lambda cfg=cfg: json.loads(report_body(cfg))["items"])
            for label, cfg in itertools.chain(configs(), defect_configs())]
    runs += [(label, lambda argv=argv: export_items(argv)) for label, argv in exports()]
    runs += [(label, lambda argv=argv, family=family: refusal(argv, family))
             for label, argv, family in bad_inputs()]
    for label, items in runs:
        if not labels or label in labels:
            got = items()
            print(json.dumps([label, got if isinstance(got, dict) else [
                [it["name"], it["residual"], it["tolerance"], it["pass"]] for it in got]]))


EPS = sys.float_info.epsilon


def margin(residual: float, tol: float) -> float:
    """log10(tol / |residual|), the residual taken as at least EPS; -inf
    for a residual that is not finite."""
    if not math.isfinite(residual):
        return -math.inf
    return math.log10(tol / max(abs(residual), EPS))


def compare(old_src: str, labels: list[str] | None = None) -> int:
    """Print how the items of each run (in ``labels``, or every one)
    differ between ``old_src`` and NEW_SRC, as the module doc says."""
    outs, failed = under_both(old_src, ["--items", *(labels or [])])
    runs = [dict(map(json.loads, out.splitlines())) for out in outs]
    old, new = ({label: {name: rest for name, *rest in items} for label, items in run.items()
                 if not isinstance(items, dict)} for run in runs)
    refused = compare_refusals(*({label: got for label, got in run.items() if isinstance(got, dict)}
                                 for run in runs))
    changed = flips = tols = 0
    worst = 0.0
    for label in {**old, **new}:
        a, b = old.get(label, {}), new.get(label, {})
        if a == b:
            continue
        changed += 1
        common = a.keys() & b.keys()
        flipped = sorted((name, a[name][2], b[name][2]) for name in common
                         if a[name][2] != b[name][2])
        moved = a.keys() != b.keys() or any(a[name][1] != b[name][1] for name in common)
        drops = {}
        for name in common:
            key = re.sub(r"^trial\d+/", "", name)
            was, now = margin(*a[name][:2]), margin(*b[name][:2])
            drops[key] = max(drops.get(key, -math.inf), 0.0 if was == now else was - now)
        flips += len(flipped)
        tols += moved
        worst = max([worst, *drops.values()])
        print(f"{label}: {len(flipped)} pass flags changed, items and tolerances "
              f"{'changed' if moved else 'unchanged'}; largest margin drop per item: "
              + ", ".join(f"{key} {drop:+.2f}" for key, drop in sorted(drops.items())))
        for name, was, now in flipped:
            print(f"  {name}: pass {was} -> {now}")
    print(f"{changed} of {len(old | new)} runs differ; {flips} pass flags changed; "
          f"items or tolerances changed in {tols}; largest margin drop {worst:.2f} decades",
          file=sys.stderr)
    return 1 if failed or flips or tols or worst > 1.0 or not refused else 0


def compare_refusals(old: dict, new: dict) -> bool:
    """Print each bad-input run whose outcome differs between the trees,
    and a summary; whether the new tree refused every one as a config error."""
    differ = [label for label in {**old, **new} if old.get(label) != new.get(label)]
    for label in differ:
        print(f"{label}: {old.get(label)} -> {new.get(label)}")
    missed = [label for label, got in new.items() if got["exit"] != 2 or got["wrote"]
              or len(got["stderr"]) != 1 or not got["stderr"][0].startswith("config error: ")]
    missed += [label for label in old.keys() - new.keys()]
    print(f"{len(differ)} of {len(old | new)} bad-input runs differ; "
          f"{len(missed)} not refused as one config error by the new tree", file=sys.stderr)
    return not missed


def main() -> int:
    args = sys.argv[1:]
    if args[:1] in (["--against"], ["--compare"]) and len(args) == 2:
        return (against if args[0] == "--against" else compare)(args[1])
    if args[:1] == ["--items"]:
        print_items(args[1:])
        return 0
    if args:
        print("usage: report_hashes.py [--against OLD_SRC | --compare OLD_SRC]", file=sys.stderr)
        return 2
    import amwave
    print(f"# amwave from {amwave.__file__}", file=sys.stderr)
    for label, cfg in configs():
        print(f"{hashlib.sha256(report_body(cfg)).hexdigest()}  {label}")
    for label, argv in exports():
        csv, verdict = export_bodies(argv)
        print(f"{hashlib.sha256(csv).hexdigest()}  {label}")
        print(f"{hashlib.sha256(verdict).hexdigest()}  {label} verdict")
    return 0


if __name__ == "__main__":
    sys.exit(main())
