import csv
import json
import os

import numpy as np
import pytest

from amwave.cli import (
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    SUITES,
    ConfigError,
    RunConfig,
    config_from_file,
    main,
    run_suite,
    zitter_timeseries,
)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_run_config_validation(capsys):
    with pytest.raises(ConfigError):
        RunConfig(suite="bogus")
    with pytest.raises(ConfigError):
        RunConfig(suite="wca", trials=0)
    with pytest.raises(ConfigError):
        RunConfig(suite="wca", tolerance=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            RunConfig(suite="wca", tolerance=bad)
    with pytest.raises(ConfigError):
        RunConfig(suite="wca", seed=-1)
    for flags in (["--seed", "-1"], ["--tol", "nan"]):
        capsys.readouterr()
        assert main(["verify", "wca", "--trials", "1", *flags]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
    cfg = RunConfig(suite="boost")
    assert cfg.tol == 1e-10  # suite default


def test_wca_suite_all_pass():
    cfg = RunConfig(suite="wca", trials=6, seed=3)
    report = run_suite(cfg)
    assert report["summary"] == {"total": 36, "failed": 0, "overall_pass": True}
    names = {it["name"].split("/")[1] for it in report["items"]}
    assert len(names) == 6


def test_wca_hundred_trials_six_hundred_entries():
    report = run_suite(RunConfig(suite="wca", trials=100, seed=42))
    assert report["summary"] == {"total": 600, "failed": 0, "overall_pass": True}


def test_exact_suite_flags_g2_items():
    cfg = RunConfig(suite="exact", trials=4, seed=3)
    report = run_suite(cfg)
    failed = {it["name"].split("/")[1] for it in report["items"] if not it["pass"]}
    assert failed == {"exact3_a_n_bracket", "exact8_phi_n_bracket"}
    assert report["summary"]["failed"] == 8


def test_verify_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "wca", "--trials", "3", "--seed", "1",
                 "--out", str(out)])
    assert code == EXIT_PASS
    assert read_json(out)["summary"]["overall_pass"]
    code = main(["verify", "exact", "--trials", "2", "--seed", "1",
                 "--out", str(out)])
    assert code == EXIT_FAIL
    assert not read_json(out)["summary"]["overall_pass"]


def test_reports_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify", "zca", "--trials", "4", "--seed", "99",
                     "--out", str(path)]) == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("suite", SUITES)
def test_thread_cap_does_not_change_results(tmp_path, monkeypatch, suite):
    size = ["--trials", "6"]
    if suite == "poynting":
        size = ["--trials", "2", "--samples", "64"]
    bodies = []
    for threads in ("1", "4"):
        monkeypatch.setenv("AMWAVE_THREADS", threads)
        out = tmp_path / f"{threads}.json"
        main(["verify", suite, *size, "--seed", "5", "--out", str(out)])
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]


def test_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "suite: zca\n"
        "trials: 3\n"
        "seed: 11\n"
        "family:\n"
        "  generator: su2_spin_one\n"
        "  coupling: 0.25\n"
        "output:\n"
        f"  report: {tmp_path / 'rep.json'}\n")
    cfg = config_from_file(str(cfg_path))
    assert cfg.generator == "su2_spin_one"
    assert cfg.coupling == 0.25
    assert main(["verify", "zca", "--config", str(cfg_path)]) == EXIT_PASS
    assert read_json(tmp_path / "rep.json")["config"]["coupling"] == 0.25


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("suite: wca\nnot_a_key: 3\n")
    assert main(["verify", "wca", "--config", str(bad)]) == EXIT_USAGE
    missing = tmp_path / "nope.yaml"
    assert main(["verify", "wca", "--config", str(missing)]) == EXIT_USAGE
    clash = tmp_path / "clash.yaml"
    clash.write_text("suite: zca\n")
    assert main(["verify", "wca", "--config", str(clash)]) == EXIT_USAGE


def test_unwritable_report_path():
    assert main(["verify", "wca", "--trials", "1",
                 "--out", "/nonexistent-dir/report.json"]) == EXIT_USAGE


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    assert main(["verify", "wca", "--trials", "1", "--out", str(target)]) == EXIT_USAGE
    assert main(["zitter", "--steps", "4", "--out", str(target)]) == EXIT_USAGE
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []


def test_written_report_has_default_file_mode(tmp_path):
    plain, report = tmp_path / "plain", tmp_path / "r.json"
    plain.write_text("")
    assert main(["verify", "wca", "--trials", "1", "--out", str(report)]) == EXIT_PASS
    assert report.stat().st_mode == plain.stat().st_mode


def test_zitter_timeseries_zero_theta(tmp_path):
    out = tmp_path / "z.csv"
    code = main(["zitter", "--theta", "0", "--pair", "1,4",
                 "--momentum", "0,0,0.8", "--steps", "64", "--out", str(out)])
    assert code == EXIT_PASS
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "num_x", "num_y", "num_z",
                       "closed_x", "closed_y", "closed_z", "abs_dev"]
    vals = np.array([[float(x) for x in row[1:4]] for row in rows[1:]])
    assert np.abs(vals).max() <= 1e-14


def test_zitter_timeseries_matches_closed_form():
    cfg = RunConfig(suite="zitter", theta=0.7, pair=(1, 4),
                    momentum=(0.0, 0.0, 0.8), steps=200)
    _, rows = zitter_timeseries(cfg)
    devs = [row[-1] for row in rows]
    assert max(devs) <= 1e-12


def test_zitter_header_only_when_steps_zero(tmp_path):
    out = tmp_path / "z.csv"
    assert main(["zitter", "--steps", "0", "--out", str(out)]) == EXIT_PASS
    rows = list(csv.reader(out.open()))
    assert len(rows) == 1


def test_poynting_export(tmp_path):
    out = tmp_path / "p.csv"
    code = main(["poynting", "--steps", "128", "--samples", "4096",
                 "--seed", "2", "--out", str(out)])
    assert code == EXIT_PASS
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "first", "mixed", "second", "running_avg"]
    assert len(rows) == 129
    mixed = np.array([float(r[2]) for r in rows[1:]])
    # the pointwise mixed block oscillates but its running average decays
    assert abs(np.mean(mixed[:-1])) <= 1e-3


def test_boost_and_su3_commands(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["boost", "--trials", "2", "--seed", "4", "--velocity", "0.9",
                 "--out", str(out)]) == EXIT_PASS
    rep = read_json(out)
    assert rep["summary"]["overall_pass"]
    assert main(["su3-constants", "--trials", "1", "--out", str(out)]) == EXIT_PASS
    rep = read_json(out)
    names = {it["name"] for it in rep["items"]}
    assert "f123" in names and "f458" in names
    # the aliases print the same verdict line as verify
    assert capsys.readouterr().err.splitlines() == ["PASS boost: 16 items",
                                                    "PASS su3: 17 items"]


def test_zitter_suite_and_poynting_suite():
    rep = run_suite(RunConfig(suite="zitter", trials=5, seed=21))
    assert rep["summary"]["overall_pass"]
    rep = run_suite(RunConfig(suite="poynting", trials=3, seed=21, samples=6000))
    assert rep["summary"]["overall_pass"]
    rep = run_suite(RunConfig(suite="gauge", trials=5, seed=21))
    assert rep["summary"]["overall_pass"]
    rep = run_suite(RunConfig(suite="full", trials=2, seed=21))
    assert not rep["summary"]["overall_pass"]  # generic families keep g^2 terms
