"""amwave benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload conditions --seed 1 --seconds 30 --trace 0

Run it from anywhere; it uses the amwave sources in ``src/`` next to this
directory and nothing installed.  It drives ``amwave.cli.main`` in-process
with the argv of the workload's rounds (see workloads.py): a closed loop
with one client, where each invocation starts when the previous returns.
Every ``amwave verify`` runs twice, with the program's default worker
count and with ``AMWAVE_THREADS=1``, and the oracle checks both reports and
that their bytes agree.  Rounds repeat while the next one is expected to end
within ``--seconds``; there is always at least one.

End-to-end times and rates are scaled to a reference machine speed with a
fixed kernel timed around every invocation (see refspeed.py); the machine
this was built on drifted by up to a factor of two over minutes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one round
at one worker untraced, then again under the outside-in tracer, and prints
the per-layer metrics, the layer probes and the tracing overhead.

Reports, CSVs and set-up scratch go to ``.perfbench_tmp/``, which is removed
at the end; the traced run's spans are written to
``.perfbench_out/trace-<workload>.npz``.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import refspeed
import workloads
from probes import run_probes
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
EPS = 2.0 ** -52
SETUP_SAMPLES = 7

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import amwave, amwave.cli
rc = amwave.cli.main(["verify", "wca", "--trials", "1", "--out", sys.argv[1]])
t1 = time.perf_counter()
print(repr(t1 - t0), rc, amwave.__file__)
"""


class Runner:
    """Runs invocations against one amwave import and keeps the tallies."""

    def __init__(self, cli, speed: refspeed.Speed):
        self.cli = cli
        self.speed = speed
        self.attempted = 0
        self.failures: list[str] = []
        self.stderr = ""
        self.tracer: Tracer | None = None
        # kernel times, keyed by whether they ran on all CPUs
        self.kernels: dict[bool, list[float]] = {False: [], True: []}

    def call(self, inv: workloads.Invocation, out: Path, threads: int | None):
        """Run one invocation between two reference-kernel timings; returns
        (exit code, wall seconds, whether the kernel ran on all CPUs,
        output bytes)."""
        if out.exists():
            out.unlink()
        # only a verify at the default worker count can use more than one CPU
        all_cpus = inv.kind == "verify" and threads is None
        self.kernels[all_cpus].append(self.speed.kernel(all_cpus))
        if threads is None:
            os.environ.pop("AMWAVE_THREADS", None)
        else:
            os.environ["AMWAVE_THREADS"] = str(threads)
        if self.tracer is not None:
            self.tracer.invocation = self.attempted
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.main(list(inv.argv) + ["--out", str(out)])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an amwave crash is an oracle failure, not ours
            rc = f"exception {exc!r}"
        seconds = time.perf_counter() - t0
        self.kernels[all_cpus].append(self.speed.kernel(all_cpus))
        os.environ.pop("AMWAVE_THREADS", None)
        self.stderr = err.getvalue().strip()
        body = out.read_bytes() if out.exists() else None
        return rc, seconds, all_cpus, body

    def judge(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems) + f" [stderr: {self.stderr[-300:]}]")


def run_round(runner: Runner, calls, tag: str, threads: tuple,
              reference: list | None = None) -> dict:
    """One pass over a round's invocations.

    ``threads`` lists the worker settings each verify runs at (None is the
    program's default); exports run once, at the first setting.  Every
    output must equal the first setting's, and ``reference[k]`` when given.

    Times are at the reference speed, except ``verify_raw_s``.  Each is
    scaled by the mean of the round's kernel timings of the same kind: one
    kernel timing is noisy, and the machine's speed drifts more slowly
    than a round lasts.
    """
    marks = {mode: len(samples) for mode, samples in runner.kernels.items()}
    timed = []  # (invocation, worker setting, wall seconds, all-CPU kernel?)
    stats = {"trials": 0, "verify_s": {t: 0.0 for t in threads}, "verify_1t_each": {},
             "rows": 0, "export_s": 0.0, "worst": {}, "outputs": [], "total_s": 0.0,
             "verify_raw_s": {t: 0.0 for t in threads}}
    for k, inv in enumerate(calls):
        settings = threads if inv.kind == "verify" else threads[:1]
        suffix = "json" if inv.kind == "verify" else "csv"
        for i, t in enumerate(settings):
            rc, raw, all_cpus, body = runner.call(inv, TMP / f"{tag}-{k}-{i}.{suffix}", t)
            timed.append((inv, t, raw, all_cpus))
            if inv.kind == "verify":
                problems = oracle.check_verify(inv.suite, inv.trials, rc, body)
            else:
                problems = oracle.check_export(inv.kind, inv.rows, rc, body)
            if i == 0:
                first = body
            else:
                problems += oracle.check_identical(
                    f"{' '.join(inv.argv[:2])} at AMWAVE_THREADS={t}", first, body)
            if reference is not None:
                problems += oracle.check_identical(
                    f"{' '.join(inv.argv[:2])} traced", reference[k], body)
            runner.judge(problems)
        stats["outputs"].append(first)
        if inv.kind != "verify":
            stats["rows"] += inv.rows
            continue
        stats["trials"] += inv.trials
        if first is not None:
            with contextlib.suppress(ValueError, KeyError, TypeError):
                worst = oracle.trial_worst_residuals(json.loads(first))
                stats["worst"].setdefault(inv.suite, []).extend(worst)

    factor = {mode: refspeed.REF_KERNEL_S / statistics.mean(samples[marks[mode]:])
              for mode, samples in runner.kernels.items() if len(samples) > marks[mode]}
    for inv, t, raw, all_cpus in timed:
        sec = raw * factor[all_cpus]
        stats["total_s"] += sec
        if inv.kind != "verify":
            stats["export_s"] += sec
            continue
        stats["verify_s"][t] += sec
        stats["verify_raw_s"][t] += raw
        if t == 1:
            stats["verify_1t_each"].setdefault(inv.suite, []).append(sec)
    return stats


def measure_setup(speed: refspeed.Speed, samples: int) -> list[float]:
    """Import plus a first tiny invocation, each in a fresh interpreter, at
    the reference speed.  The interpreter may land on any CPU, so it is
    bracketed by the all-CPU kernel."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("AMWAVE_THREADS", None)
    times = []
    for i in range(samples):
        out = TMP / f"setup-{i}.json"
        kernel_before = speed.kernel(all_cpus=True)
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(out)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        kernel_after = speed.kernel(all_cpus=True)
        fields = proc.stdout.split()
        if (proc.returncode != 0 or len(fields) != 3 or fields[1] != "0"
                or not Path(fields[2]).resolve().is_relative_to(SRC)):
            raise RuntimeError(f"set-up probe failed: {proc.stdout!r} {proc.stderr!r}")
        times.append(refspeed.scale(float(fields[0]), kernel_before, kernel_after))
    return times


def pooled_median(rounds, key: str) -> tuple[float, int]:
    """Per suite, the median of the values pooled over all rounds; then the
    median of those over the suites.  Returns it with the sample count."""
    pooled: dict[str, list[float]] = {}
    for r in rounds:
        for suite, values in r[key].items():
            pooled.setdefault(suite, []).extend(values)
    return (statistics.median(statistics.median(v) for v in pooled.values()),
            sum(len(v) for v in pooled.values()))


def warm_up(cli, speed: refspeed.Speed, name: str, seed: int):
    """One untimed tiny round, so lazy set-up inside numpy and amwave is not
    charged to the first timed invocation (setup_s measures that cost)."""
    run_round(Runner(cli, speed), workloads.workload_round(name, seed, 0, "tiny"), "warm",
              (None, 1))


def timed_run(cli, speed: refspeed.Speed, name: str, seed: int, seconds: float,
              size: str) -> tuple[dict, Runner]:
    warm_up(cli, speed, name, seed)
    runner = Runner(cli, speed)
    # set-up samples are split around the timed rounds, so that they see
    # more than one moment of a machine whose speed drifts
    setup = measure_setup(speed, SETUP_SAMPLES // 2)
    rounds = []
    t_start = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - t_start + last <= seconds:
        t0 = time.perf_counter()
        calls = workloads.workload_round(name, seed, len(rounds), size)
        rounds.append(run_round(runner, calls, f"r{len(rounds)}", (None, 1)))
        del rounds[-1]["outputs"]
        last = time.perf_counter() - t0
    setup += measure_setup(speed, SETUP_SAMPLES - len(setup))
    verify_p50, n_verify = pooled_median(rounds, "verify_1t_each")
    worst, _ = pooled_median(rounds, "worst")

    # rates are total work over total time, summed over all rounds
    trials = sum(r["trials"] for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "trials_per_s": (trials / sum(r["verify_s"][None] for r in rounds), "trials/s"),
        "trials_per_s_1t": (trials / sum(r["verify_s"][1] for r in rounds), "trials/s"),
        "verify_p50_s": (verify_p50, "s"),
        "timeseries_rows_per_s": (sum(r["rows"] for r in rounds)
                                  / sum(r["export_s"] for r in rounds), "rows/s"),
        "worst_residual_eps": (worst / EPS, "eps"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"verify_p50_s": f"n={n_verify}", "setup_s": f"n={len(setup)}",
             "setup_samples_s": setup,
             "kernel_s_median": statistics.median(runner.kernels[False]),
             "rounds": [{"trials_per_s": r["trials"] / r["verify_s"][None],
                         "trials_per_s_1t": r["trials"] / r["verify_s"][1],
                         "verify_1t_s": r["verify_1t_each"],
                         "rows_per_s": r["rows"] / r["export_s"],
                         "unscaled_trials_per_s": r["trials"] / r["verify_raw_s"][None],
                         "unscaled_trials_per_s_1t": r["trials"] / r["verify_raw_s"][1]}
                        for r in rounds]}
    return {"metrics": metrics, "notes": notes}, runner


def traced_run(cli, speed: refspeed.Speed, name: str, seed: int,
               size: str) -> tuple[dict, Runner]:
    warm_up(cli, speed, name, seed)
    runner = Runner(cli, speed)
    calls = workloads.workload_round(name, seed, 0, size)
    plain = run_round(runner, calls, "plain", (1,))
    tracer = runner.tracer = Tracer()
    first_traced = runner.attempted
    tracer.install()
    try:
        traced = run_round(runner, calls, "traced", (1,), reference=plain["outputs"])
    finally:
        tracer.uninstall()
    plain_s, traced_s = plain["total_s"], traced["total_s"]
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{name}.npz")

    # every per-layer metric named "<span>.<calls|s|self_s>" in BENCHMARK.json;
    # the others are computed below
    totals = tracer.totals()
    field = {"calls": 0, "s": 1, "self_s": 2}
    metrics = {}
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        span, _, kind = m["name"].rpartition(".")
        if kind in field:
            metrics[m["name"]] = (totals.get(span, (0, 0.0, 0.0))[field[kind]], m["unit"])
    first_verify = next(c for c in calls if c.kind == "verify")
    metrics["cli.workers"] = (default_workers(cli, first_verify.trials) or 1, "count")
    default_samples = cli.RunConfig(suite="poynting").samples
    per_call = [int(c.argv[c.argv.index("--samples") + 1]) if "--samples" in c.argv
                else default_samples for c in calls]
    quad_calls = tracer.calls_by_invocation(("poynting.flux_quadrature",
                                             "poynting.flux_quadrature_blocks"))
    metrics["poynting.samples"] = (sum(n * per_call[inv - first_traced]
                                       for inv, n in quad_calls.items()), "count")
    for probe, value in run_probes().items():
        metrics[probe] = (value, probe.rpartition("_")[2])
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    notes = {"spans": tracer.span_count(), "untraced_s": plain_s, "traced_s": traced_s,
             "missing_targets": tracer.missing,
             "all_spans": {k: list(v) for k, v in sorted(totals.items())},
             "poynting.samples": "computed: quadrature calls x samples per invocation"}
    return {"metrics": metrics, "notes": notes}, runner


def default_workers(cli, trials: int) -> int | None:
    """The worker count amwave resolves with AMWAVE_THREADS unset."""
    if not hasattr(cli, "_worker_count"):
        return None
    saved = os.environ.pop("AMWAVE_THREADS", None)
    try:
        return cli._worker_count(trials)
    finally:
        if saved is not None:
            os.environ["AMWAVE_THREADS"] = saved


def provenance(cli, name: str, seed: int) -> dict:
    blas = {}
    with contextlib.suppress(Exception):  # the layout of numpy's build record varies
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(), "AMWAVE_THREADS": os.environ.get("AMWAVE_THREADS"),
        "default_workers": default_workers(cli, 10 ** 6), "workload": name, "seed": seed,
        "git_commit": git_commit(), "src_lines": src_lines,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def import_amwave():
    """amwave.cli from this checkout's src/, never from site-packages."""
    if not (SRC / "amwave" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no amwave sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import amwave.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported amwave from {cli.__file__}, not {SRC}")
    return cli


def run(name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> tuple[dict, dict]:
    """Run one workload; returns (result line, everything printed before it)."""
    cli = import_amwave()
    record = provenance(cli, name, seed)
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir()
    # helper processes for the all-CPU kernel, one per CPU amwave's
    # default pool may use, capped to keep the process count small
    speed = refspeed.Speed(min(record["default_workers"] or 1, 8))
    try:
        if trace:
            out, runner = traced_run(cli, speed, name, seed, size)
        else:
            out, runner = timed_run(cli, speed, name, seed, seconds, size)
    finally:
        speed.close()
        shutil.rmtree(TMP, ignore_errors=True)
        if record["AMWAVE_THREADS"] is not None:
            os.environ["AMWAVE_THREADS"] = record["AMWAVE_THREADS"]
    failed = len(runner.failures)
    out["notes"]["failed_frac"] = failed / runner.attempted
    out["notes"]["failures"] = runner.failures[:20]
    out["provenance"] = record
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    return result, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exception, so the helpers are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    result, out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, (value, unit) in out["metrics"].items():
        note = out["notes"].get(metric, "")
        print(f"{metric} = {value} {unit} {note}".rstrip())
    print(f"failed_frac = {out['notes']['failed_frac']} ratio "
          f"({result['failed']}/{result['attempted']} invocations)")
    print("notes: " + json.dumps({k: v for k, v in out["notes"].items()
                                  if k not in out["metrics"]}))
    print("provenance: " + json.dumps(out["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
