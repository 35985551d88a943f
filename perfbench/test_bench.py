"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They cover the benchmark's own parts (metric output, oracle, tracer and
reference-speed helpers) on tiny inputs; amwave's tests live in ``tests/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import oracle
import refspeed
import run
import workloads
from tracer import FUNCTIONS, METHODS, Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
cli = run.import_amwave()


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, section):
    result, _ = run.run(name, seed=3, seconds=0.0, trace=bool(trace), size="tiny")
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units(section)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_rounds_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.workload_round(name, 5, 1) == workloads.workload_round(name, 5, 1)
        assert workloads.workload_round(name, 5, 1) != workloads.workload_round(name, 6, 1)


def _report(tmp_path: Path, suite: str, trials: int = 2) -> tuple[int, bytes]:
    out = tmp_path / f"{suite}.json"
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["verify", suite, "--trials", str(trials), "--seed", "9",
                       "--out", str(out)])
    return rc, out.read_bytes()


@pytest.mark.parametrize("suite", ["wca", "exact", "full", "su3"])
def test_oracle_accepts_untampered_reports(tmp_path, suite):
    rc, body = _report(tmp_path, suite)
    assert oracle.check_verify(suite, 2, rc, body) == []


def _tampered(body: bytes, edit) -> bytes:
    report = json.loads(body)
    edit(report)
    return json.dumps(report, indent=2).encode()


def test_oracle_flags_flipped_pass(tmp_path):
    rc, body = _report(tmp_path, "wca")

    def flip(report):
        report["items"][3]["pass"] = False
    assert oracle.check_verify("wca", 2, rc, _tampered(body, flip))

    rc, body = _report(tmp_path, "exact")

    def hide_expected_failure(report):
        item = next(it for it in report["items"] if not it["pass"])
        item["pass"] = True
        report["summary"]["failed"] -= 1
    assert oracle.check_verify("exact", 2, rc, _tampered(body, hide_expected_failure))


def test_oracle_flags_dropped_item(tmp_path):
    rc, body = _report(tmp_path, "wca")

    def drop(report):
        report["items"].pop()
        report["summary"]["total"] -= 1
    assert oracle.check_verify("wca", 2, rc, _tampered(body, drop))


def test_oracle_flags_wrong_exit_code(tmp_path):
    rc, body = _report(tmp_path, "wca")
    assert oracle.check_verify("wca", 2, 1, body)
    rc, body = _report(tmp_path, "exact")
    assert rc == 1
    assert oracle.check_verify("exact", 2, 0, body)


def test_oracle_flags_bytes_that_differ(tmp_path):
    _, body = _report(tmp_path, "zca")
    assert oracle.check_identical("zca", body, body) == []
    assert oracle.check_identical("zca", body, body.replace(b'"zca"', b'"zca" ', 1))
    assert oracle.check_identical("zca", body, None)


def test_oracle_flags_short_export(tmp_path):
    out = tmp_path / "z.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["zitter", "--pair", "1,3", "--steps", "10", "--out", str(out)])
    body = out.read_bytes()
    assert oracle.check_export("zitter", 10, rc, body) == []
    assert oracle.check_export("zitter", 11, rc, body)
    assert oracle.check_export("zitter", 10, 1, body)


def _attributes() -> dict:
    """Every attribute of amwave's modules and traced classes, by identity."""
    owners = [m for n, m in sys.modules.items() if n == "amwave" or n.startswith("amwave.")]
    owners += [getattr(sys.modules[f"amwave.{layer}"], cls) for layer, cls, _, _ in METHODS]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_attribute_and_counts_repeat(tmp_path):
    before = _attributes()
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert cli.wca_conditions is not before[(id(cli), "wca_conditions")]
            _report(tmp_path, "wca")
        finally:
            tracer.uninstall()
        after = _attributes()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
        assert tracer.missing == []
        counts.append({k: v[0] for k, v in tracer.totals().items()})
    assert counts[0] == counts[1]
    assert counts[0]["residuals.wca_conditions"] == 2
    assert set(counts[0]) >= {f"{layer}.{f}" for layer, fs in FUNCTIONS.items() for f in fs}


def test_speed_helpers_stop_on_close():
    speed = refspeed.Speed(2)
    helpers = list(speed._helpers)
    try:
        assert len(helpers) == 2
        assert speed.kernel(all_cpus=True) > 0.0
        assert speed.kernel(all_cpus=False) > 0.0
    finally:
        speed.close()
    assert all(h.returncode is not None for h in helpers)
