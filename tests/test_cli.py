import argparse
import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import amwave
from amwave.algebra import (
    SERIES_BLOCK,
    DimMismatch,
    GeneratorSet,
    InputError,
    NonFiniteValue,
    UnsupportedGenerator,
    make_generators,
    operator_norm,
)
from amwave.cli import (
    SUITE_TABLE,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    OPTIONS,
    SUITES,
    ConfigError,
    Judged,
    RunConfig,
    Series,
    _failed_names,
    _group_families,
    build_parser,
    config_from_file,
    judge,
    main,
    run_suite,
    write_report,
    write_timeseries,
    zitter_timeseries,
)
from amwave.fields import SolutionFamily, WaveContext, random_family
from amwave.poynting import amw_flux, em_flux, flux_averages
from amwave.relativity import SuperluminalBoost, gauge_conjugate, unitary_exponential
from amwave.residuals import Terms, equation_fields, relative
from amwave.zitter import (
    DiracContext,
    PolarSingularity,
    SuperpositionSpec,
    position_closed_form,
    spin_closed_form,
    wobble_expectations,
    zitter_position_expectation,
)

from support import equation_residuals, judged_items, materialized, report_items


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
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="^t_max must be a real number"):
            RunConfig(suite="zitter", t_max=bad)
    for samples in (4, 2):
        with pytest.raises(ConfigError, match="samples must be >= 5"):
            RunConfig(suite="poynting", samples=samples)
    for flags in (["--seed", "-1"], ["--tol", "nan"]):
        capsys.readouterr()
        assert main(["verify", "wca", "--trials", "1", *flags]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
    cfg = RunConfig(suite="boost")
    assert cfg.tol == 1e-10  # suite default
    for bad in ({"k": 5}, {"momentum": 0.8}, {"pair": 3}, {"R": [1, 2, 3, 4]}):
        with pytest.raises(ConfigError, match="^malformed k, momentum, pair or R"):
            RunConfig(suite="wca", **bad)


def run_main(argv):
    """Exit code and stderr lines of one ``main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def assert_one_config_error(code, err):
    assert code == EXIT_USAGE
    assert len(err) == 1 and err[0].startswith("config error:"), err


@pytest.mark.parametrize("command", [["zitter", "--steps", "4"],
                                     ["verify", "zitter", "--trials", "1"],
                                     ["verify", "boost", "--trials", "1"]])
@pytest.mark.parametrize("flag", ["--velocity=1", "--velocity=-1.5", "--pair=1,2",
                                  "--pair=3,4", "--momentum=0,0,0",
                                  "--momentum=0,0,-0.8", "--momentum=0,0,-1e-12",
                                  "--momentum=0,0,1e-160", "--momentum=0,0,1e120",
                                  "--momentum=1e200,0,1e200",
                                  "--momentum=nan,0,0.8", "--theta=inf",
                                  "--samples=4", f"--trials={10**29}", f"--steps={2**63}",
                                  f"--samples={10**23}"])
def test_bad_flag_values_are_config_errors(tmp_path, command, flag):
    code, err = run_main([*command, flag, "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["zitter", "--steps", str(10**15)],
                                  ["poynting", "--steps", str(10**15)],
                                  ["verify", "poynting", "--trials", "1",
                                   "--samples", str(10**15)],
                                  ["verify", "wca", "--trials", str(10**15)]])
def test_a_size_too_large_to_allocate_is_a_config_error(tmp_path, argv):
    # each fails at its first allocation of the size, which asks for petabytes
    code, err = run_main([*argv, "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert err[0].startswith("config error: out of memory: Unable to allocate"), err
    assert not (tmp_path / "out").exists()


def test_the_shared_parser_leaks_nothing_between_calls():
    """Each call of main in one process gives the stdout, exit code and
    stderr of the same argv parsed by a newly built parser."""
    sequence = [["verify", "wca", "--tol", "1e-3"], ["verify", "wca"],
                ["zitter", "--steps", "50"], ["verify", "wca", "--steps", "5"],
                ["verify", "wca", "--trials", "0"],
                ["verify", "poynting", "--trials", "2", "--samples", "20"]]
    sequence.append(sequence[0])

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, err = run_main(argv)
        return out.getvalue(), code, err

    shared = [run(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for _, code, _ in shared] == [EXIT_PASS, EXIT_PASS, EXIT_PASS, EXIT_USAGE,
                                               EXIT_USAGE, EXIT_PASS, EXIT_PASS]
    tols = {it["tolerance"] for k in (0, 1) for it in json.loads(shared[k][0])["items"]}
    assert tols == {1e-3, 1e-12}  # the second call's --tol is the default again


def test_momentum_errors_name_their_cause(tmp_path):
    for flag, cause in (("--momentum=0,0,1e-160", "is too small"),
                        ("--momentum=0,0,1e-170", "underflows to zero"),
                        ("--momentum=1e200,0,1e200", "overflowed"),
                        # from about |p| = 2.83e102 along +z
                        ("--momentum=0,0,1e120",
                         "the states' normalisation 4 E_p |p| (|p| + p_z) overflows")):
        code, err = run_main(["zitter", "--steps", "4", flag])
        assert_one_config_error(code, err)
        assert cause in err[0], err
    # small momenta build: u_minus = c |p| / sqrt(E_p + m c^2) does not cancel
    for momentum in ("0,0,1e100", "0,0,1e-3", "0,0,7e-34", "0,0,1e-150"):
        code, err = run_main(["zitter", "--steps", "4", f"--momentum={momentum}",
                              "--out", str(tmp_path / "z.csv")])
        assert code == EXIT_PASS, err


def test_the_momentum_and_t_max_are_checked_only_where_they_are_read(tmp_path):
    # a momentum on the -z ray, and a t_max whose phase overflows: RunConfig
    # holds each to its kind alone, and only the zitter export, which reads
    # them, refuses them
    for values in ({"momentum": [0.0, 0.0, -1.0]}, {"t_max": 1e308}):
        for suite in SUITES:
            RunConfig(suite=suite, **values)
        config = config_file(tmp_path / "cfg.yaml", values)
        for argv in (["verify", "wca"], ["verify", "zitter"]):
            code, err = run_main([*argv, "--trials", "2", "--config", config,
                                  "--out", str(tmp_path / "r.json")])
            assert code == EXIT_PASS, err
        code, err = run_main(["zitter", "--config", config, "--out", str(tmp_path / "z.csv")])
        assert_one_config_error(code, err)
        assert not (tmp_path / "z.csv").exists()
    # at c = 1e160 the default momentum's E_p overflows, and at 1e-160 its
    # states underflow: the zitter export refuses them, wca never reads them
    for c, why in ((1e160, "a value overflowed"), (1e-160, "|p| = 0.8 is too small")):
        config = config_file(tmp_path / "cfg.yaml", {"c": c})
        code, err = run_main(["verify", "wca", "--trials", "2", "--config", config,
                              "--out", str(tmp_path / "r.json")])
        assert code == EXIT_PASS, err
        code, err = run_main(["zitter", "--config", config, "--out", str(tmp_path / "z.csv")])
        assert_one_config_error(code, err)
        assert why in err[0], err


@pytest.mark.parametrize("theta", [9e307, -9e307, 1.7976931348623157e308])
def test_a_theta_whose_double_overflows_is_a_config_error(tmp_path, theta):
    # sin(2 theta) needs 2 theta finite: |theta| <= 8.988e307
    config = config_file(tmp_path / "cfg.yaml", {"theta": theta})
    for argv in ([f"--theta={theta!r}"], ["--config", config]):
        code, err = run_main(["zitter", "--steps", "3", *argv, "--out", str(tmp_path / "z.csv")])
        assert_one_config_error(code, err)
        assert err[0] == "config error: theta must be finite, and so must 2 theta", err
    assert not (tmp_path / "z.csv").exists()
    code, err = run_main(["zitter", "--steps", "3", "--theta", "8.9e307",
                          "--out", str(tmp_path / "z.csv")])
    assert code == EXIT_PASS, err


@pytest.mark.parametrize("argv", [["zitter", "--pair", "1"],
                                  ["verify", "wca", "--trials", "x"],
                                  ["poynting", "--samples", "x"]])
def test_command_line_errors_are_config_errors(tmp_path, argv):
    code, err = run_main([*argv, "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert err[0].startswith("config error: argument ")
    assert not (tmp_path / "out").exists()


# R_1 x R_2 along k, with |R_l|^2 beyond the float range
LARGE_R = [[0, 0, 0], [1e160, 0, 0], [0, 1e160, 0], [0, 0, 0]]


@pytest.mark.parametrize("family", [
    {"R": [[0, 0, 0], [1, 0, 0], [0, 0, 1]]},                # one vector short
    {"R": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},     # R_1 x R_2 along k
    {"k": [0, 0, 0]},
    {"k": [0, 0, 0], "R": [[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 1]]},
    {"generator": "su3_gellmann", "R": [[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 1]]},
    {"k": [0, 0, "x"]},
    {"hbar": float("nan")},
    {"R": LARGE_R},
])
def test_bad_family_config_is_config_error(tmp_path, family):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"family": family}))
    # the export reads no --trials, which it would refuse before it built the family
    for argv in (["verify", "wca", "--trials", "2"], ["verify", "boost", "--trials", "2"],
                 ["poynting", "--steps", "2"]):
        code, err = run_main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
        assert_one_config_error(code, err)
        # none of these families may get as far as an overflow
        assert "overflowed" not in err[0]
        if family.get("R") is LARGE_R:
            assert "R_1, R_2 are not coplanar with k" in err[0]


def test_fixed_family_config_runs(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"family": {
        "k": [0, 0, 2.0], "R": [[0.3, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 1]]}}))
    out = tmp_path / "r.json"
    assert run_main(["verify", "zca", "--trials", "2", "--config", str(path),
                     "--out", str(out)]) == (EXIT_PASS, ["PASS zca: 36 items"])
    assert read_json(out)["config"]["k"] == [0.0, 0.0, 2.0]


@pytest.mark.parametrize("argv", [["verify", "full", "--coupling", "nan"],
                                  ["verify", "gauge", "--coupling", "inf"],
                                  ["poynting", "--steps", "2", "--coupling", "nan"]])
def test_non_finite_coupling_is_config_error(tmp_path, argv):
    code, err = run_main([*argv, "--trials", "1", "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suite, R", [
    ("gauge", [[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0]]),   # phi = khat.tau = 0
    ("zca", [[0, 0, 0]] * 4),                                  # every field empty
    ("full", [[0, 0, 0]] * 4),
    ("boost", [[0, 0, 0]] * 4),                                # no harmonics to boost
])
def test_fixed_family_with_empty_fields_runs(tmp_path, suite, R):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"family": {"generator": "su2_spin_half", "R": R}}))
    code, err = run_main(["verify", suite, "--trials", "2", "--config", str(path),
                          "--out", str(tmp_path / "r.json")])
    assert code == EXIT_PASS and err[0].startswith(f"PASS {suite}:"), err


_FLOAT = st.floats(-1.5, 1.5, allow_nan=False)
_VEC = st.one_of(st.tuples(_FLOAT, _FLOAT, _FLOAT),
                 st.sampled_from([(0.0, 0.0, 0.0), (0.0, 0.0, -0.7), (0.0, 0.0, 1.0)]))
_R = st.one_of(
    st.sampled_from([[[0.2, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 1]],
                     [[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0]],
                     [[0, 0, 0]] * 4]),
    st.lists(st.lists(_FLOAT, min_size=3, max_size=3), min_size=3, max_size=5))


# counts, and values for them: small integers, and floats and bools,
# which are no counts
_COUNTS = ("samples", "seed", "steps", "trials")
_COUNT = st.one_of(st.integers(0, 3), st.floats(-1.0, 50.0, allow_nan=False), st.booleans())
# boost.axis values: the axis names and ints, and values equal to an int
# (1.0, True) or none at all, which are no axis
_AXES = ("x", "y", "z", 0, 1, 2)
_AXIS = st.sampled_from(_AXES + (1.0, 2.5, True, "w"))
# c and hbar, which no flag sets: ordinary, and so small or large that
# their squares, E_p, the wobble's time range or a spin generator set
# underflow, overflow or lose their digits
_UNIT = [0.5, 2.0, 1.0e-200, 1.0e-320, 1.0e200]
EXTREME_HBAR = (1.0e-320, 1.0e-300, 2.0e307, 1.0e308, 1.7e308)
EXTREME_C = (1.0e-320, 1.0e-200, 1.0e300)
_BY_FLAG = {o.flag[0]: name for name, o in OPTIONS.items() if o.flag}


def flag_values(tmp_path):
    """A valid value for every flag; the paths are in tmp_path."""
    return {"--config": config_file(tmp_path / "empty.yaml", {}), "--trials": "1",
            "--seed": "3", "--tol": "1e-9", "--out": str(tmp_path / "out"),
            "--generator": "su2_spin_one", "--coupling": "0.2", "--velocity": "0.3",
            "--theta": "0.4", "--pair": "1,3", "--momentum": "0,0,0.8", "--steps": "3",
            "--samples": "7", "--timeseries": str(tmp_path / "series.csv")}


def reader(command):
    """The name the options table's ``reads`` column gives a command."""
    return {"boost": "verify boost", "su3-constants": "verify su3"}.get(command[0],
                                                                         " ".join(command))


def as_flag(name, val):
    text = ",".join(map(repr, val)) if isinstance(val, list) else repr(val)
    return f"{OPTIONS[name].flag[0]}={text}"


def config_file(path, values: dict):
    """A YAML config holding each value under its option's section and key."""
    config = {}
    for name, val in values.items():
        opt = OPTIONS[name]
        (config.setdefault(opt.section, {}) if opt.section else config)[opt.key or name] = val
    path.write_text(yaml.safe_dump(config))
    return str(path)


# plain values for every drawn argument but the command and the units
_PLAIN = {"velocity": 0.5, "pair": (1, 4), "momentum": (0.0, 0.0, 0.8), "k": None, "R": None,
          "coupling": 0.1, "samples": 5, "in_yaml": True, "count": None, "axis": None,
          "unread": None, "c": None}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# the zitter commands at an hbar whose wobble time range overflows, which
# crashed them with a ValueError traceback
@example(command=["verify", "zitter"], hbar=2.0e307, **_PLAIN)
@example(command=["zitter"], hbar=1.0e308, **_PLAIN)
@example(command=["zitter"], hbar=1.7e308, **_PLAIN)
@given(command=st.sampled_from([["verify", s] for s in SUITES]
                               + [["zitter"], ["poynting"], ["boost"]]),
       velocity=_FLOAT,
       pair=st.sampled_from([(1, 3), (1, 4), (2, 3), (2, 4)])
       | st.tuples(st.integers(0, 5), st.integers(0, 5)),
       momentum=_VEC, k=st.none() | _VEC, R=st.none() | _R,
       coupling=st.sampled_from([0.1, 0.0, -2.0, float("nan"), float("inf")]),
       samples=st.integers(1, 48), in_yaml=st.booleans(),
       count=st.none() | st.tuples(st.sampled_from(_COUNTS), _COUNT),
       axis=st.none() | _AXIS, unread=st.none() | st.sampled_from(sorted(_BY_FLAG)),
       c=st.none() | st.sampled_from(sorted({*_UNIT, *EXTREME_C})),
       hbar=st.none() | st.sampled_from(sorted({*_UNIT, *EXTREME_HBAR})))
def test_cli_inputs_never_crash(tmp_path, command, velocity, pair, momentum, k, R,
                                coupling, samples, in_yaml, count, axis, unread, c, hbar):
    # each command gets only the flags it reads; the other values go in the
    # config file, which takes every key
    in_file = {name: val for name, val in (("k", k), ("R", R), ("boost_axis", axis),
                                           ("c", c), ("hbar", hbar)) if val is not None}
    flagged = {"trials": 1, "samples": samples, "steps": 4, "coupling": coupling}
    (in_file if in_yaml else flagged).update(
        velocity=velocity, pair=list(pair), momentum=list(momentum))
    if count is not None:  # given in the config file, so no flag overrides it
        name, val = count
        flagged.pop(name, None)
        in_file[name] = val
    for name in list(flagged):
        if reader(command) not in OPTIONS[name].reads:
            in_file[name] = flagged.pop(name)
    flags = [as_flag(name, val) for name, val in flagged.items()]
    # and, where drawn, one flag the command does not read, but not the
    # count's, whose config-file value it would override
    if unread is not None and (reader(command) in OPTIONS[_BY_FLAG[unread]].reads
                               or count is not None and _BY_FLAG[unread] == count[0]):
        unread = None
    if unread is not None:
        flags.append(f"{unread}={flag_values(tmp_path)[unread]}")
    out, series = tmp_path / "out", tmp_path / "series.csv"
    out.unlink(missing_ok=True)
    config = config_file(tmp_path / "cfg.yaml", in_file)
    code, err = run_main([*command, *flags, "--config", config, "--out", str(out)])
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE)
    assert not any("Traceback" in line for line in err)
    valid_axis = axis is None or (axis in _AXES and type(axis) in (int, str))
    if code == EXIT_USAGE or not valid_axis:
        assert_one_config_error(code, err)
    if count is not None and type(count[1]) is not int:
        assert_one_config_error(code, err)
        # a non-finite coupling, and a bad axis, whose row comes before
        # theirs, are refused before steps or samples is checked
        assert (f"{count[0]} must be an integer" in err[0]
                or not np.isfinite(coupling) and "coupling must be a real number" in err[0]
                or not valid_axis and "axis must be" in err[0])
    if unread is not None:
        assert_one_config_error(code, err)
        assert not out.exists() and not series.exists()


# every command by the name the reads column gives it, and a changed value
# for each option, valid for every command that does not read it
_READERS = [["verify", s] for s in SUITES] + [["zitter"], ["poynting"]]
_CHANGED = {"trials": 3, "seed": 8, "generator": "su2_spin_one", "hbar": 0.5,
            "coupling": 0.3, "k": [0.0, 0.6, 0.8],
            "R": [[0.2, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 1]],
            "velocity": 0.3, "boost_axis": "x", "theta": 0.3, "pair": [2, 3],
            "momentum": [0.3, -0.4, 0.9], "steps": 7, "t_max": 2.0, "samples": 7}


@pytest.mark.parametrize("command", _READERS, ids=" ".join)
def test_an_option_a_command_does_not_read_leaves_its_output_unchanged(tmp_path, command):
    # so a flag refused as unread could never have mattered
    out, series = tmp_path / "out", tmp_path / "series.csv"
    changed = {**_CHANGED, "timeseries": str(series)}

    def output(values):
        code, err = run_main([*command, "--config", config_file(tmp_path / "cfg.yaml", values),
                              "--out", str(out)])
        assert code != EXIT_USAGE, err
        if command[0] != "verify":
            return code, err, out.read_bytes()
        report = read_json(out)
        return code, err, report["items"], report["summary"]

    base = {"trials": 2, "steps": 4, "samples": 6}
    want = output(base)
    unread = [name for name, opt in OPTIONS.items() if reader(command) not in opt.reads]
    assert unread
    for name in unread:
        assert output({**base, name: changed[name]}) == want, name
    assert not series.exists()


@pytest.mark.parametrize("c", [1.0e-200, 1.0e-320])
def test_a_tiny_c_never_crashes_a_command(tmp_path, c):
    # E_p underflows to zero, and at 1e-320 the period 2 pi / omega overflows
    config = config_file(tmp_path / "cfg.yaml", {"c": c})
    for command in _READERS:
        code, err = run_main([*command, "--config", config, "--out", str(tmp_path / "out")])
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE) and len(err) == 1, (command, err)
        if command[-1] == "zitter":
            assert_one_config_error(code, err)
            assert "E_p = sqrt(p^2 c^2 + m^2 c^4) underflows to zero" in err[0]
        if command[-1] == "poynting":
            assert "nan" not in err[0].lower(), err


# omega = c |k| = 0.3 c underflows to 0 at c = 5e-324, where every time
# derivative vanished; a boost near c takes omega = 1e-307 below 3.5e-308
# while the run builds the boosted wave
@pytest.mark.parametrize("argv, family", [
    (["verify", "zca"], {"c": 5.0e-324, "k": [0, 0, 0.3]}),
    (["verify", "boost"], {"c": 5.0e-324, "k": [0, 0, 0.3]}),
    (["verify", "boost", "--velocity", "0.9999999999999999"], {"k": [0, 0, 1.0e-307]}),
])
def test_a_frequency_whose_period_overflows_is_config_error(tmp_path, argv, family):
    config = config_file(tmp_path / "cfg.yaml", family)
    code, err = run_main([*argv, "--trials", "2", "--config", config,
                          "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert err[0].endswith("the period 2 pi / omega is not finite: omega = c*|k| must be "
                           "positive, above about 3.5e-308"), err
    assert not (tmp_path / "out").exists()


# at hbar = 1e-320 the wobble frequency 2 E_p / hbar overflows, and every
# closed form read sin(inf * t) = NaN; at 1e-300 it is finite
@pytest.mark.parametrize("argv", [["verify", "zitter", "--trials", "4"],
                                  ["zitter", "--steps", "5"]])
def test_a_wobble_frequency_that_overflows_is_config_error(tmp_path, argv):
    out = str(tmp_path / "out")
    config = config_file(tmp_path / "tiny.yaml", {"hbar": 1.0e-320})
    code, err = run_main([*argv, "--config", config, "--out", out])
    assert_one_config_error(code, err)
    assert err[0].endswith("the wobble frequency 2 E_p / hbar overflows"), err
    assert not os.path.exists(out)
    config = config_file(tmp_path / "small.yaml", {"hbar": 1.0e-300})
    code, err = run_main([*argv, "--config", config, "--out", out])
    assert code == EXIT_PASS, err


# the wobble's time range overflows at a large hbar: the suite's two
# periods 4 pi hbar / E_p from about 1.4e307 E_p, the export's default half
# period pi hbar / E_p from about 5.7e307 E_p, each refused where it is built
_RANGE, _WINDOW = "the time range 4 pi hbar / E_p", "the export window pi hbar / E_p"


@pytest.mark.parametrize("argv, hbar, message", [
    (["verify", "zitter", "--trials", "4"], 2.0e307, _RANGE),
    (["verify", "zitter", "--trials", "4"], 1.0e308, _RANGE),
    (["verify", "zitter", "--trials", "4"], 1.7e308, _RANGE),
    (["zitter", "--steps", "5"], 1.0e308, _WINDOW),
    (["zitter", "--steps", "5"], 1.7e308, _WINDOW),
])
def test_a_wobble_time_range_that_overflows_is_config_error(tmp_path, argv, hbar, message):
    config = config_file(tmp_path / "cfg.yaml", {"hbar": hbar})
    code, err = run_main([*argv, "--config", config, "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert err == [f"config error: a value overflowed: {message} is not finite"]
    assert not (tmp_path / "out").exists()


# a square that would pass the float range, in E_p, in the wobble norm or
# in the closed-form flux, is refused by name before Python's float power
# raises an OverflowError
@pytest.mark.parametrize("argv, units, name", [
    (["poynting", "--steps", "5", "--coupling", "2e154"], {}, "g"),
    (["verify", "zitter", "--trials", "4"], {"c": 1.0e300}, "p c in E_p"),
    (["zitter", "--steps", "5"], {"c": 1.0e300}, "p c in E_p"),
    (["zitter", "--steps", "5"], {"c": 1.0e100}, "m c^2 in E_p"),
    (["zitter", "--steps", "5"], {"hbar": 2.0e307}, "hbar c in the wobble norm"),
])
def test_a_square_that_overflows_is_named(tmp_path, argv, units, name):
    config = config_file(tmp_path / "cfg.yaml", units)
    code, err = run_main([*argv, "--config", config, "--out", str(tmp_path / "out")])
    assert err == [f"config error: a value overflowed: the square of {name} overflows"]
    assert code == EXIT_USAGE and not (tmp_path / "out").exists()


# the tiny c are test_a_tiny_c_never_crashes_a_command's
@pytest.mark.parametrize("units", [{"hbar": v} for v in EXTREME_HBAR] + [{"c": 1.0e300}],
                         ids=lambda units: "{}={!r}".format(*next(iter(units.items()))))
def test_extreme_units_never_crash_a_command(tmp_path, units):
    config = config_file(tmp_path / "cfg.yaml", {**units, "trials": 2, "steps": 4, "samples": 5})
    out = tmp_path / "out"
    for command in _READERS:
        out.unlink(missing_ok=True)
        code, err = run_main([*command, "--config", config, "--out", str(out)])
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE) and len(err) == 1, (command, err)
        if code == EXIT_USAGE:
            assert err[0].startswith("config error: ") and not out.exists(), (command, err)


def test_an_option_a_command_does_not_read_is_checked_for_its_kind_alone(tmp_path):
    # a boost faster than light, a momentum on the -z ray, a theta whose
    # double overflows, two positive-energy states and a t_max whose phase
    # overflows: each a real number or a pair, so only a reader refuses it
    config = config_file(tmp_path / "cfg.yaml", {
        "velocity": 2.0, "momentum": [0.0, 0.0, -1.0], "theta": 1.7e308, "pair": [1, 2],
        "t_max": 1.0e308, "trials": 2, "steps": 3, "samples": 5})
    for command in _READERS:
        code, err = run_main([*command, "--config", config, "--out", str(tmp_path / "out")])
        if command in (["verify", "boost"], ["zitter"]):
            assert_one_config_error(code, err)
        else:
            assert code != EXIT_USAGE, (command, err)
    assert run_main(["verify", "boost", "--config", config]) == (
        EXIT_USAGE, ["config error: |v| = 2.0 >= c = 1.0"])
    assert run_main(["zitter", "--config", config]) == (
        EXIT_USAGE, ["config error: theta must be finite, and so must 2 theta"])
    # the su3 suite's Gell-Mann set reads no hbar, which a spin set refuses
    config = config_file(tmp_path / "hbar.yaml", {"hbar": -1.0, "trials": 2})
    assert run_main(["verify", "su3", "--config", config, "--out", str(tmp_path / "out")]) == (
        EXIT_PASS, ["PASS su3: 23 items"])
    assert run_main(["verify", "wca", "--config", config]) == (
        EXIT_USAGE, ["config error: hbar must be positive"])


def test_a_run_config_builds_no_physics_object(monkeypatch):
    # it checks each option by its row alone; the run builds what it reads
    def never(*args, **kwargs):
        raise AssertionError("RunConfig built a physics object")
    for cls in (GeneratorSet, WaveContext, SolutionFamily, DiracContext, SuperpositionSpec):
        monkeypatch.setattr(cls, "__post_init__", never)
    for name in ("algebra.make_generators", "cli.make_generators", "relativity.boost_matrix",
                 "cli.random_families"):
        monkeypatch.setattr(f"amwave.{name}", never)
    for suite in SUITES:
        cfg = RunConfig(suite=suite, k=(0.0, 0.0, 1.0), R=((0, 0, 0), (1, 0, 0), (0, 0, 0),
                                                              (0, 0, 1)), boost_axis=2)
        assert cfg.boost_axis == "z" and not hasattr(cfg, "dirac")


def readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_lists_the_flags_each_command_reads(tmp_path):
    text = readme().split("\n## CLI\n", 1)[1]
    listed = re.findall(r"`(--[a-z]+)", text.split("Flags:", 1)[1].split("\n\n", 1)[0])
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        flags = [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")]
        assert sorted(flags) == sorted(listed), name
    # the table: each command runs with every flag its row names, and
    # refuses each other flag as one it does not read
    rows = {}
    for line in text.splitlines():
        if line.startswith("| `"):
            cells = line.split("|")
            for command in re.findall(r"`([^`]+)`", cells[1]):
                rows[command] = re.findall(r"`(--[a-z]+)`", cells[2])
    assert sorted(rows) == sorted([" ".join(c) for c in _READERS] + ["boost", "su3-constants"])
    values = flag_values(tmp_path)
    for command, reads in rows.items():
        argv = command.split()
        # an export's --out and --timeseries name its one CSV, so they run apart
        together = ([[f for f in reads if f != "--out"], ["--out"]] if "--timeseries" in reads
                    else [reads])
        for given in together:
            code, err = run_main([*argv, *(f"{f}={values[f]}" for f in given)])
            assert code != EXIT_USAGE, (command, err)
        for flag in sorted(set(listed) - set(reads)):
            code, err = run_main([*argv, f"{flag}={values[flag]}"])
            assert_one_config_error(code, err)
            assert err[0] == f"config error: {reader(argv)} does not read {flag}", err


def test_readme_config_example_is_the_same_keyword_arguments(tmp_path):
    example = readme().split("### Config file", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "cfg.yaml"
    path.write_text(example)
    assert config_from_file(str(path)) == RunConfig(
        suite="wca", trials=100, seed=42, tolerance=1e-12, generator="both", hbar=1.0, c=1.0,
        coupling=0.1, k=(0.0, 0.0, 1.0), R=((0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, 1)),
        velocity=0.5, boost_axis="z", theta=0.7853981633974483, pair=(1, 4),
        momentum=(0.0, 0.0, 0.8), steps=1000, t_max=None, samples=10000,
        out="out/report.json", timeseries="out/series.csv")


def test_a_zitter_export_builds_one_dirac_context(monkeypatch, tmp_path):
    built = []
    post_init = DiracContext.__post_init__
    monkeypatch.setattr(DiracContext, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    assert main(["zitter", "--steps", "4", "--out", str(tmp_path / "z.csv")]) == EXIT_PASS
    assert len(built) == 1


@pytest.mark.parametrize("config", [{"trials": 2.5}, {"trials": True}, {"seed": 1.5},
                                    {"seed": 2.0}, {"zitter": {"steps": 10.5}},
                                    {"poynting": {"samples": 7.5}},
                                    {"zitter": {"pair": [1.7, 3.2]}},
                                    {"zitter": {"pair": [True, 3]}},
                                    # too many to allocate
                                    {"trials": 10**29}, {"trials": 2**63},
                                    {"zitter": {"steps": 10**23}},
                                    {"poynting": {"samples": 10**23}}])
def test_non_integer_counts_are_config_errors(tmp_path, config):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config))
    for argv in (["verify", "wca"], ["zitter"], ["poynting"]):
        code, err = run_main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
        assert_one_config_error(code, err)
        assert "must be an integer" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, name", [
    ({"tolerance": True}, "tolerance"),
    # quoted, so a string in any YAML version
    pytest.param("tolerance: '1e-9'\n", "tolerance", id="config1-tolerance"),
    ({"family": {"hbar": True}}, "hbar"), ({"family": {"c": "2"}}, "c"),
    ({"family": {"coupling": True}}, "coupling"),
    ({"boost": {"velocity": "0.5"}}, "velocity"),
    ({"zitter": {"theta": "1"}}, "theta"), ({"zitter": {"t_max": False}}, "t_max"),
    ({"family": {"k": [0, 0, True]}}, "k entry"), ({"family": {"k": [0, "1", 1]}}, "k entry"),
    ({"zitter": {"momentum": [0, 0, "0.8"]}}, "momentum entry"),
    ({"family": {"k": [0, 0, 1], "R": [[0, 0, 0], [True, 0, 0], [0, 0, 0], [0, 0, 0]]}},
     "R entry"),
    ({"family": {"k": [0, 0, 1], "R": [[0, 0, 0], ["1", 0, 0], [0, 0, 0], [0, 0, 0]]}},
     "R entry"),
    ({"zitter": {"momentum": [0, 0, True]}}, "momentum entry"),
    ({"family": {"hbar": None}}, "hbar"),
    # integers beyond the float range
    ({"family": {"hbar": 10**400}}, "hbar"), ({"tolerance": -10**400}, "tolerance"),
    ({"zitter": {"t_max": 10**400}}, "t_max"),
])
def test_non_real_values_are_config_errors(tmp_path, config, name):
    path = tmp_path / "cfg.yaml"
    path.write_text(config if isinstance(config, str) else yaml.safe_dump(config))
    for argv in (["verify", "wca"], ["zitter"], ["poynting"]):
        code, err = run_main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
        assert_one_config_error(code, err)
        assert err[0].startswith(f"config error: {name} must be a real number"), err[0]
    assert not (tmp_path / "out").exists()
    # the same values given to RunConfig directly, sections flattened
    flat = {}
    for key, val in yaml.safe_load(path.read_text()).items():
        flat.update(val if isinstance(val, dict) else {key: val})
    for suite in ("wca", "zitter", "poynting"):
        with pytest.raises(ConfigError, match=f"^{name} must be a real number"):
            RunConfig(suite=suite, **flat)


@pytest.mark.parametrize("config, name", [({"output": {"report": 5}}, "out"),
                                          ({"output": {"timeseries": 7}}, "timeseries"),
                                          ({"output": {"report": [1]}}, "out")])
def test_non_string_paths_are_config_errors(tmp_path, config, name):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config))
    for argv in (["verify", "wca"], ["zitter"], ["poynting"]):
        code, err = run_main([*argv, "--config", str(path)])
        assert_one_config_error(code, err)
        assert err[0].startswith(f"config error: {name} must be a path"), err[0]
    assert os.listdir(tmp_path) == ["cfg.yaml"]


@pytest.mark.parametrize("plain, dotted", [
    ("tolerance: 1e-9\n", "tolerance: 1.0e-9\n"),
    ("family:\n  k: [0, 0, 1e-3]\n", "family:\n  k: [0, 0, 1.0e-3]\n"),
    ("family:\n  coupling: -25E-2\n", "family:\n  coupling: -0.25\n"),
])
def test_exponent_floats_without_a_dot_are_numbers(tmp_path, plain, dotted):
    # YAML 1.1 reads 1e-9 as a string; a config reads it as the float it means
    bodies, cfgs = [], []
    for i, text in enumerate((plain, dotted)):
        path, out = tmp_path / f"cfg{i}.yaml", tmp_path / f"r{i}.json"
        path.write_text(text)
        assert run_main(["verify", "wca", "--trials", "2", "--config", str(path),
                         "--out", str(out)])[0] == EXIT_PASS
        bodies.append(out.read_bytes())
        cfgs.append(config_from_file(str(path), fallback_suite="wca"))
    assert bodies[0] == bodies[1]
    assert cfgs[0] == cfgs[1]
    # the loader is the config's own: safe_load still follows YAML 1.1
    assert yaml.safe_load(plain) != yaml.safe_load(dotted)


@pytest.mark.parametrize("pair", [[1, 3, 4], [1], []])
def test_wrong_length_pair_is_config_error(tmp_path, pair):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"zitter": {"pair": pair}}))
    for argv in (["zitter"], ["verify", "wca"]):
        code, err = run_main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
        assert_one_config_error(code, err)
        assert err[0].startswith("config error: pair must be two integers")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("number, letter", [(0, "x"), (1, "y"), (2, "z")])
def test_numeric_boost_axis_writes_the_letter_report(tmp_path, number, letter):
    bodies = []
    for axis in (number, letter):
        path = tmp_path / f"{axis}.yaml"
        path.write_text(yaml.safe_dump({"boost": {"axis": axis, "velocity": 0.7}}))
        out = tmp_path / f"{axis}.json"
        assert main(["boost", "--trials", "3", "--config", str(path),
                     "--out", str(out)]) == EXIT_PASS
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]
    assert read_json(tmp_path / f"{letter}.json")["config"]["boost_axis"] == letter


@pytest.mark.parametrize("argv", [["verify", suite, "--trials", "2"] for suite in
                                  ("wca", "zca", "exact", "full", "gauge", "boost", "poynting")]
                         + [["poynting", "--steps", "4"]])
def test_overflowing_family_is_config_error(tmp_path, argv):
    # finite coefficients whose amplitude norms overflow
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"family": {
        "generator": "su2_spin_half", "k": [0, 0, 1],
        "R": [[0, 0, 0], [1e200, 0, 0], [0, 0, 0], [0, 0, 1e200]]}}))
    code, err = run_main([*argv, *(["--samples", "20"] if "poynting" in argv else []),
                          "--config", str(path), "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert "not finite" in err[0] or "must be finite" in err[0]
    assert not (tmp_path / "out").exists()


# a square that overflows a float: g ** 2 in the closed-form flux, and
# (p c) ** 2 in the Dirac energy every zitter config builds
@pytest.mark.parametrize("argv, family", [
    (["verify", "poynting", "--trials", "2", "--samples", "5", "--coupling", "2e154"], {}),
    (["poynting", "--coupling", "2e154"], {}),
    (["verify", "zitter", "--trials", "2"], {"c": 1e160}),
    (["zitter", "--steps", "4"], {"c": 1e160}),
    (["poynting", "--steps", "4"], {"c": 1e160}),
])
def test_a_float_power_that_overflows_is_config_error(tmp_path, argv, family):
    config = config_file(tmp_path / "cfg.yaml", family)
    code, err = run_main([*argv, "--config", config, "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert err[0].startswith("config error: a value overflowed: ")
    assert not (tmp_path / "out").exists()


# a |k| so large that the maxwell row overflows (the boosted row and the
# zca suite's, from about 1e77), that omega = c |k| does at rest, or, with
# small amplitudes, only the boosted wave's omega at a speed near c
@pytest.mark.parametrize("argv, family, message", [
    (["verify", "boost"], {"k": [0, 0.6, 1.0e80]}, "amplitude of order 1 is not finite"),
    (["verify", "zca"], {"k": [0, 0.6, 1.0e80]}, "amplitude of order 1 is not finite"),
    (["verify", "boost", "--velocity", "-0.9999999999999999"], {"k": [0, 0, 1.0e150]},
     "amplitude of order 1 is not finite"),
    (["verify", "boost", "--velocity", "-0.9999999999999999"],
     {"k": [0, 0, 1.0e150], "R": [[0, 0, 0], [1e-20, 0, 0], [0, 0, 0], [0, 0, 1e-20]]},
     "the frequency omega = c*|k| is not finite"),
    (["verify", "boost"], {"k": [0, 0, 1.0e160]}, "the frequency omega = c*|k| is not finite"),
])
def test_a_large_k_is_one_config_error(tmp_path, argv, family, message):
    config = config_file(tmp_path / "cfg.yaml", {"generator": "su2_spin_half", **family})
    code, err = run_main([*argv, "--trials", "2", "--config", config,
                          "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert err[0].endswith(message)
    assert not (tmp_path / "out").exists()


def test_a_tiny_k_boosts_near_c(tmp_path):
    # the boosted |k'| = 7e-163 squares to 0: |k'| is taken on k' / max |k'_i|
    config = config_file(tmp_path / "cfg.yaml", {"k": [0, 0, 1.0e-154]})
    code, err = run_main(["verify", "boost", "--velocity", "0.9999999999999999",
                          "--trials", "2", "--config", config, "--out", str(tmp_path / "out")])
    assert (code, err) == (EXIT_PASS, ["PASS boost: 16 items"])


# the flux is finite, about g^2, but the squares in its norm, the scale of
# its residuals, overflow
@pytest.mark.parametrize("argv", [
    ["verify", "poynting", "--trials", "2", "--samples", "5", "--coupling", "1e90"],
    ["poynting", "--coupling", "1e90"],
])
def test_a_flux_whose_norm_overflows_is_config_error(tmp_path, argv):
    code, err = run_main([*argv, "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert err[0] == ("config error: a value overflowed: "
                      "the scale of quadrature_vs_closed is not finite")
    assert not (tmp_path / "out").exists()


def _abelian_items(tmp_path) -> list[dict]:
    config = config_file(tmp_path / "cfg.yaml", {"k": [0.0, 0.0, 1.0e6]})
    out = tmp_path / "rep.json"
    main(["verify", "poynting", "--trials", "4", "--samples", "5", "--config", config,
          "--out", str(out)])
    return [it for it in read_json(out)["items"] if it["name"].endswith("/abelian_equals_em")]


def test_abelian_equals_em_is_relative_to_the_flux(tmp_path, monkeypatch):
    # at |k| = 1e6 the two fluxes are about 4e10 and agree to rounding
    items = _abelian_items(tmp_path)
    assert len(items) == 4 and all(it["pass"] for it in items), items
    # a relative error of 1e-9 in the classical flux still fails
    monkeypatch.setattr("amwave.poynting.em_flux", lambda a01, ctx: (1 + 1e-9) * em_flux(a01, ctx))
    items = _abelian_items(tmp_path)
    assert len(items) == 4 and not any(it["pass"] for it in items), items


@pytest.mark.parametrize("velocity", ["0.9999999999999999", "0.1234567"])
def test_boost_item_names_keep_the_speed_exactly(tmp_path, velocity):
    out = tmp_path / "b.json"
    main(["verify", "boost", "--trials", "1", "--velocity", velocity, "--out", str(out)])
    speeds = {it["name"].split("/")[1] for it in read_json(out)["items"]}
    assert speeds == {f"v=+{velocity}c", f"v=-{velocity}c"}


@pytest.mark.parametrize("command", [["zitter"], ["poynting"]])
def test_an_export_writes_timeseries_when_set_else_out(tmp_path, command):
    argv = [*command, "--steps", "4"]
    out, series = tmp_path / "report.json", tmp_path / "series.csv"
    # the README's config: output.report and output.timeseries
    config = config_file(tmp_path / "cfg.yaml", {"out": str(out), "timeseries": str(series)})
    assert main([*argv, "--config", config]) == EXIT_PASS
    assert series.exists() and not out.exists()
    body = series.read_bytes()
    series.unlink()
    assert main([*argv, "--timeseries", str(series)]) == EXIT_PASS
    assert series.read_bytes() == body
    assert main([*argv, "--out", str(out)]) == EXIT_PASS
    assert out.read_bytes() == body
    out.unlink()
    # --out while timeseries is set, by flag or in the config, names a second CSV
    for given in (["--timeseries", str(series)], ["--config", config]):
        series.unlink(missing_ok=True)
        code, err = run_main([*argv, "--out", str(out), *given])
        assert_one_config_error(code, err)
        assert err[0] == (f"config error: {command[0]} writes one CSV, "
                          "but --out and timeseries both name it")
        assert not out.exists() and not series.exists()


def test_wca_suite_all_pass():
    cfg = RunConfig(suite="wca", trials=6, seed=3)
    report = run_suite(cfg)
    assert report["summary"] == {"total": 36, "failed": 0, "overall_pass": True}
    names = {it["name"].split("/")[1] for it in report_items(report)}
    assert len(names) == 6


def test_wca_hundred_trials_six_hundred_entries():
    report = run_suite(RunConfig(suite="wca", trials=100, seed=42))
    assert report["summary"] == {"total": 600, "failed": 0, "overall_pass": True}


def test_exact_suite_flags_g2_items():
    cfg = RunConfig(suite="exact", trials=4, seed=3)
    report = run_suite(cfg)
    failed = {it["name"].split("/")[1] for it in report_items(report) if not it["pass"]}
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
def test_every_suite_reruns_to_identical_bytes(tmp_path, suite):
    size = ["--trials", "2", "--samples", "64"] if suite == "poynting" else ["--trials", "6"]
    codes, bodies = [], []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        codes.append(main(["verify", suite, *size, "--seed", "5", "--out", str(out)]))
        bodies.append(out.read_bytes())
    assert codes[0] == codes[1] != EXIT_USAGE
    assert bodies[0] == bodies[1]


def test_trials_share_one_generator_set(monkeypatch, tmp_path):
    built = []
    post_init = GeneratorSet.__post_init__
    monkeypatch.setattr(GeneratorSet, "__post_init__",
                        lambda self: built.append(self.kind) or post_init(self))
    for generator in ("both", "su3_gellmann"):
        assert main(["verify", "zca", "--trials", "6", "--seed", "3",
                     "--generator", generator,
                     "--out", str(tmp_path / "report.json")]) == EXIT_PASS
    assert len(built) == len(set(built)) <= 3


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


def test_write_refuses_non_regular_target(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    code, err = run_main(["verify", "wca", "--trials", "1", "--out", str(fifo)])
    assert code == EXIT_USAGE
    assert len(err) == 1 and err[0].startswith("i/o error:")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


def test_written_report_has_default_file_mode(tmp_path):
    plain, report = tmp_path / "plain", tmp_path / "r.json"
    plain.write_text("")
    assert main(["verify", "wca", "--trials", "1", "--out", str(report)]) == EXIT_PASS
    assert report.stat().st_mode == plain.stat().st_mode


ODD_NUMBERS = (float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 2.2e-308,
               1e-12, 0.1, 1e16, 1.7976931348623157e308, 123456789.0)
ODD_NAMES = ["a", 'q"uote\\', "tab\tnew\nline", "caf\u00e9 \u03c4 \U0001d6d1", "", "100% {x}"]


def _odd_column(j: int, residuals) -> Judged:
    """A judged column of odd residuals, named and held to a tolerance by j."""
    res, tol = np.array(residuals), ODD_NUMBERS[j % len(ODD_NUMBERS)]
    return Judged(ODD_NAMES[j % len(ODD_NAMES)], res, np.abs(res) <= tol, tol)


def _report(kind: str) -> dict:
    if kind in SUITES:  # exact fails items, su3 opens with constant items
        return run_suite(RunConfig(suite=kind, trials=3, seed=2, samples=64))
    report = run_suite(RunConfig(suite="wca", trials=1, seed=1))
    if kind == "empty":
        return {**report, "items": ([], [])}
    # every odd residual against every odd tolerance: in the opening, and in
    # columns over 1001 trials, whose numbers pass 999
    n = len(ODD_NUMBERS)
    opening = [_odd_column(j, [r]) for j, r in enumerate(ODD_NUMBERS)]
    columns = [_odd_column(j, np.resize(np.roll(ODD_NUMBERS, j), 1001)) for j in range(n)]
    return {**report, "items": (opening, columns)}


@pytest.mark.parametrize("kind", [*SUITES, "odd numbers", "empty"])
def test_report_writer_writes_the_json_dumps_bytes(tmp_path, kind):
    report = _report(kind)
    out = tmp_path / "r.json"
    write_report(report, str(out))
    want = materialized(report)
    assert out.read_bytes() == (json.dumps(want, indent=2) + "\n").encode()
    failing = [it["name"] for it in want["items"] if not it["pass"]]
    if kind in SUITES:
        assert report["summary"] == {"total": len(want["items"]), "failed": len(failing),
                                     "overall_pass": not failing}
        assert bool(failing) == (kind in ("exact", "full"))
    # the preview of the failing items keeps report order
    for limit in (0, 1, 8, len(failing) + 1):
        assert _failed_names(report["items"], limit) == failing[:limit]


_HEADS = [("a", 1e-12), ("b", 1e-12)]


@pytest.mark.parametrize("second", [_HEADS[::-1], _HEADS[:1], _HEADS + [("c", 1e-12)],
                                    [_HEADS[0], ("b", 0.5)]],
                         ids=["reordered", "short", "long", "other tolerance"])
def test_a_group_with_other_columns_fails_loudly_and_writes_no_report(
        tmp_path, monkeypatch, second):
    def columns(cfg, fams, rngs):
        heads = _HEADS if fams.ctx.generators.kind == "su2_spin_half" else second
        return [(name, np.zeros(len(rngs)), 1.0, tol) for name, tol in heads]
    monkeypatch.setitem(SUITE_TABLE, "wca", SUITE_TABLE["wca"]._replace(columns=columns))
    out = tmp_path / "r.json"
    with pytest.raises(RuntimeError, match="^the su2_spin_one trials of wca yield other columns"):
        main(["verify", "wca", "--trials", "3", "--out", str(out)])
    assert not out.exists()


def test_the_fail_line_previews_the_first_eight_failing_items_in_report_order(tmp_path):
    out = tmp_path / "r.json"
    # su3's opening items fail too at a tolerance below their rounding
    for argv in (["verify", "exact", "--trials", "3"], ["verify", "exact", "--trials", "5"],
                 ["verify", "su3", "--trials", "2", "--tol", "1e-300"]):
        code, err = run_main([*argv, "--seed", "2", "--out", str(out)])
        items = read_json(out)["items"]
        failing = [it["name"] for it in items if not it["pass"]]
        assert code == EXIT_FAIL and len(failing) > 2
        preview = ", ".join(failing[:8]) + ("..." if len(failing) > 8 else "")
        assert err == [f"FAIL {argv[1]}: {len(failing)}/{len(items)} items failed ({preview})"]
    # the opening's two items with rounding come first
    assert failing[:2] == ["f458", "f678"] and failing[2].startswith("trial000/")


def test_verify_refuses_an_out_path_that_is_no_file_before_the_run(tmp_path, monkeypatch):
    def never(cfg):
        raise AssertionError("the suite ran")
    monkeypatch.setattr("amwave.cli.run_suite", never)
    code, err = run_main(["verify", "wca", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert err == [f"i/o error: {tmp_path} exists and is not a regular file"]
    # the writer checks again, for a path that changed while the suite ran
    with pytest.raises(OSError, match="exists and is not a regular file$"):
        write_report(_report("empty"), str(tmp_path))
    assert os.listdir(tmp_path) == []


def csv_writer_bytes(path, header, columns, blank=0) -> bytes:
    """The bytes ``csv.writer`` writes for a header and the rows of
    ``columns`` (floats), each row ending in ``blank`` empty cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([*row, *[""] * blank] for row in zip(*(c.tolist() for c in columns)))
    return path.read_bytes()


@pytest.mark.parametrize("command", ["zitter", "poynting"])
def test_an_export_refuses_an_out_path_that_is_no_file_before_it_computes(
        tmp_path, monkeypatch, command):
    def never(*args):
        raise AssertionError("the export computed")
    for name in ("cli.zitter_timeseries", "cli.poynting_timeseries", "zitter.wobble_expectations",
                 "poynting.amw_flux", "poynting.flux_quadrature"):
        monkeypatch.setattr(f"amwave.{name}", never)
    code, err = run_main([command, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert err == [f"i/o error: {tmp_path} exists and is not a regular file"]
    assert os.listdir(tmp_path) == []


def test_timeseries_bytes_are_csv_writers(tmp_path):
    header = ["t", "num_x", "closed_x", "abs_dev", "closed_y", "closed_z"]
    columns = np.array([[0.0, 1e-300, float("nan"), 1e22],
                        [-0.0, 5e-324, float("inf"), 123456789.0],
                        [0.1, 1.7976931348623157e308, -float("inf"), -2.5e-7],
                        [1e16, 1 / 3, 1e-4, 9e15]])
    out = tmp_path / "mine.csv"
    for blank in (0, 2):
        write_timeseries(Series(header, tuple(columns), blank), str(out))
        assert out.read_bytes() == csv_writer_bytes(tmp_path / "csv.csv", header, columns, blank)


# floats whose text takes each of repr's forms: signed zeros, subnormals,
# the infinities and NaN, both sides of the exponent switches at 1e16 and
# 1e-4, and 1e22, the largest power of ten a float holds exactly
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, float("inf"), -float("inf"), float("nan"),
                9999999999999998.0, 1e16, 1.0000000000000002e16, 9.999999999999999e-05,
                1e-4, 0.00010000000000000002, 1e22, -1e22]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), ncols=st.integers(1, 5), blank=st.sampled_from([0, 1, 4]),
       rows=st.sampled_from([0, 1, SERIES_BLOCK - 1, SERIES_BLOCK, SERIES_BLOCK + 1]))
def test_timeseries_encoder_writes_csv_writers_bytes_in_any_block(
        tmp_path, data, ncols, blank, rows):
    columns = tuple(np.array(data.draw(st.lists(_FLOATS, min_size=rows, max_size=rows)))
                    for _ in range(ncols))
    header = [f"c{i}" for i in range(ncols + blank)]
    want = csv_writer_bytes(tmp_path / "csv.csv", header, columns, blank)
    out = tmp_path / "mine.csv"
    write_timeseries(Series(header, columns, blank), str(out))
    assert out.read_bytes() == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("amwave.cli.SERIES_BLOCK", 7)
        write_timeseries(Series(header, columns, blank), str(out))
    assert out.read_bytes() == want


# k = z and R_1, R_3 in the x-z plane, so the family is valid, but so large
# that a norm overflows: of the tau x tau products (1e150), or already of
# the first harmonic (1e200).  Each run must name the order the dense cross
# product named.  The zitter suite reads no family.
@pytest.mark.parametrize("scale, order", [(1e150, 2), (1e200, 1)])
@pytest.mark.parametrize("argv", [["verify", s] for s in SUITES if s != "zitter"]
                         + [["poynting", "--steps", "4"]])
def test_overflow_error_names_the_same_order_on_every_suite(tmp_path, argv, scale, order):
    R = [[0, 0, 0], [scale, 0, 0], [0, 0, 0], [0, 0, scale]]
    family = ({"generator": "su3_gellmann", "R": R + [[0, 0, 0]] * 5} if argv[-1] == "su3"
              else {"generator": "su2_spin_half", "R": R})
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"family": {**family, "k": [0, 0, 1.0]}}))
    with np.errstate(over="ignore", invalid="ignore"):
        code, err = run_main([*argv, *(["--trials", "2"] if argv[0] == "verify" else []),
                              "--config", str(path), "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert err[0] == f"config error: a value overflowed: amplitude of order {order} is not finite"
    assert not (tmp_path / "out").exists()


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
    series, (name, worst, scale) = zitter_timeseries(cfg)
    devs = series.columns[-1].tolist()
    assert max(devs) <= 1e-12
    assert (name, worst, scale) == ("abs_dev", max(devs), dirac(cfg).wobble_scale)


@pytest.mark.parametrize("pair", ["2,3", "2,4"])
def test_zitter_pairs_without_closed_form_leave_columns_blank(tmp_path, pair):
    out = tmp_path / "z.csv"
    assert main(["zitter", "--pair", pair, "--steps", "5", "--out", str(out)]) == EXIT_PASS
    rows = list(csv.reader(out.open()))[1:]
    assert len(rows) == 5
    assert all(row[4:] == ["", "", "", ""] for row in rows)
    cfg = RunConfig(suite="zitter", pair=tuple(int(x) for x in pair.split(",")), steps=5)
    series, (_, worst, _) = zitter_timeseries(cfg)
    assert (len(series.columns), series.blank, worst) == (4, 4, 0.0)


def test_zitter_nan_deviation_fails(tmp_path, monkeypatch, capsys):
    def nan_expectations(ctx, psi, ts, wobbles):
        return np.full((len(wobbles), len(ts), 3), np.nan)

    monkeypatch.setattr("amwave.zitter.wobble_expectations", nan_expectations)
    out = tmp_path / "z.csv"
    assert main(["zitter", "--pair", "1,3", "--steps", "3", "--out", str(out)]) == EXIT_FAIL
    assert capsys.readouterr().err.startswith("FAIL zitter: max |numeric - closed| = nan")


def dirac(cfg):
    """The Dirac context of a config's momentum and units, as the export builds it."""
    return DiracContext(p=np.array(cfg.momentum), hbar=cfg.hbar, c=cfg.c)


def zitter_rows_one_time_at_a_time(cfg):
    """The CSV body an export should write, each row from a one-time kernel call."""
    ctx = dirac(cfg)
    psi = SuperpositionSpec(cfg.theta, cfg.pair).state_vector(ctx)
    closed_form = {(1, 3): position_closed_form, (1, 4): spin_closed_form}.get(cfg.pair)
    lines = []
    for t in np.linspace(0.0, np.pi * ctx.hbar / ctx.energy, cfg.steps):
        spin = cfg.pair in ((1, 4), (2, 3))
        num = wobble_expectations(ctx, psi, [t])[int(spin), 0].tolist()
        if closed_form is None:
            cells = [t, *num, "", "", "", ""]
        else:
            closed = closed_form(cfg.theta, ctx, t)
            cells = [t, *num, *closed.tolist(), float(np.abs(num - closed).max())]
        lines.append(",".join(map(str, cells)) + "\r\n")
    return "".join(lines)


@pytest.mark.parametrize("momentum", ["0,0,0.8", "0.3,-0.4,0.9"])
@pytest.mark.parametrize("pair", ["1,3", "1,4", "2,3"])
def test_zitter_export_rows_equal_a_per_time_evaluation_bitwise(tmp_path, pair, momentum):
    # three blocks, the last one short, so rows on both sides of each boundary
    steps = 2 * SERIES_BLOCK + 3
    out = tmp_path / "z.csv"
    assert main(["zitter", "--pair", pair, "--momentum", momentum, "--theta", "0.5",
                 "--steps", str(steps), "--out", str(out)]) == EXIT_PASS
    _, body = out.read_bytes().decode().split("\r\n", 1)
    cfg = RunConfig(suite="zitter", theta=0.5, pair=tuple(map(int, pair.split(","))),
                    momentum=tuple(map(float, momentum.split(","))), steps=steps)
    assert body == zitter_rows_one_time_at_a_time(cfg)


def test_zitter_export_builds_no_operator_per_step(tmp_path, monkeypatch):
    # one kernel call on the whole grid for the one wobble the pair shows,
    # whose only operators are the context's (2, 3, 4, 4) basis (P H, P)
    calls, products = [], []
    kernel, einsum = amwave.zitter.wobble_expectations, np.einsum
    monkeypatch.setattr("amwave.zitter.wobble_expectations", lambda ctx, psi, ts, wobbles: (
        calls.append((len(ts), wobbles)) or kernel(ctx, psi, ts, wobbles)))
    monkeypatch.setattr(np, "einsum", lambda spec, *ops: products.append(
        [np.shape(op) for op in ops]) or einsum(spec, *ops))
    steps = 2 * SERIES_BLOCK + 3
    for pair, wobble in (((1, 3), "position"), ((1, 4), "spin"),
                         ((2, 3), "spin"), ((2, 4), "position")):
        cfg = RunConfig(suite="zitter", pair=pair, steps=steps)
        calls.clear()
        products.clear()
        series, dev = zitter_timeseries(cfg)
        assert calls == [(steps, (wobble,))]
        # the one contraction of a state with operators (the others build the context)
        assert [ops for ops in products if len(ops) == 3] == [[(4,), (2, 3, 4, 4), (4,)]]
        # the rows are written in blocks, and the block length changes no byte
        out = tmp_path / "z.csv"
        write_timeseries(series, str(out))
        whole = (out.read_bytes(), dev)
        with monkeypatch.context() as patch:
            patch.setattr("amwave.cli.SERIES_BLOCK", 7)
            series, dev = zitter_timeseries(cfg)
            write_timeseries(series, str(out))
            assert out.read_bytes() == whole[0] and np.array_equal(dev, whole[1])


@pytest.mark.parametrize("argv, says", [
    (["--pair", "2,4", "--steps", "5"], "5 samples, nothing compared: pair 2,4 has no closed form"),
    (["--pair", "2,3", "--steps", "5"], "5 samples, nothing compared: pair 2,3 has no closed form"),
    (["--steps", "0"], "0 samples, nothing compared"),
    (["--pair", "2,4", "--steps", "0"], "0 samples, nothing compared"),
])
def test_zitter_verdict_says_when_nothing_was_compared(tmp_path, argv, says):
    code, err = run_main(["zitter", *argv, "--out", str(tmp_path / "z.csv")])
    assert code == EXIT_PASS
    assert err == [f"PASS zitter: {says}"]


# hbar scales the wobble, whose size is hbar c / 2 E_p; the residuals and
# the export's deviation are relative to max(1, that scale)
@pytest.mark.parametrize("argv, hbar", [
    (["verify", "zitter", "--trials", "20"], 1e3),
    (["verify", "zitter", "--trials", "20"], 1e6),  # expectations raised "came out complex"
    (["zitter", "--steps", "200"], 1e4),
])
def test_zitter_passes_at_a_large_hbar(tmp_path, argv, hbar):
    config = config_file(tmp_path / "cfg.yaml", {"hbar": hbar})
    code, err = run_main([*argv, "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_PASS, err


@pytest.mark.parametrize("closed, item, pair", [
    ("position_closed_form", "position_vs_closed", "1,3"),
    ("spin_closed_form", "spin_vs_closed", "1,4")])
def test_a_closed_form_off_by_1e_9_fails_at_a_large_hbar(tmp_path, monkeypatch, closed, item,
                                                         pair):
    # the suite and the export both look the closed form up in zitter
    exact = getattr(amwave.zitter, closed)

    def off(*args):
        return exact(*args) * (1.0 + 1e-9)
    monkeypatch.setattr(f"amwave.zitter.{closed}", off)
    items = report_items(run_suite(RunConfig(suite="zitter", trials=20, hbar=1e3)))
    assert {it["name"].split("/")[1] for it in items if not it["pass"]} == {item}
    assert sum(not it["pass"] for it in items) == 20
    config = config_file(tmp_path / "cfg.yaml", {"hbar": 1e4})
    code, err = run_main(["zitter", "--pair", pair, "--steps", "200", "--config", config,
                          "--out", str(tmp_path / "out")])
    assert code == EXIT_FAIL and err[0].startswith("FAIL zitter:"), err


@pytest.mark.parametrize("values", [{"t_max": 1e308}, {"t_max": -1e308},
                                    {"t_max": 1e300, "hbar": 1e-10}])
def test_a_t_max_whose_phase_overflows_is_config_error(tmp_path, values):
    config = config_file(tmp_path / "cfg.yaml", values)
    code, err = run_main(["zitter", "--config", config, "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert "t_max" in err[0]
    assert not (tmp_path / "out").exists()


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


def test_a_poynting_export_builds_its_flux_table_once(monkeypatch, tmp_path):
    # the quadrature and the series share one read-only table
    built, build = [], amwave.poynting.build_fields
    monkeypatch.setattr(amwave.poynting, "build_fields",
                        lambda fam: built.append(fam) or build(fam))
    assert main(["poynting", "--steps", "8", "--out", str(tmp_path / "p.csv")]) == EXIT_PASS
    fam, = built
    table, _, _, masks = amwave.poynting._flux_form(fam)
    assert len(built) == 1
    assert not table.flags.writeable and not any(m.flags.writeable for m in masks.values())


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


def _single_family_items(cfg, fam, rng):
    """One trial's items, each suite evaluated on one unstacked family."""
    ctx = fam.ctx
    terms = Terms.of(fam)
    if cfg.suite in ("wca", "exact", "su3"):
        cols = equation_residuals("zca" if cfg.suite == "su3" else cfg.suite, terms)
    elif cfg.suite == "zca":
        cols = [col for label in ("zca", "maxwell", "battery")
                for col in equation_residuals(label, terms)]
    elif cfg.suite == "full":
        cols = equation_residuals("full", terms)
    else:  # gauge
        gens = ctx.generators
        herm = sum((float(c) * g for c, g in
                    zip(rng.uniform(-1.0, 1.0, len(gens.generators)), gens.generators)),
                   start=0.0 * gens.identity)
        u = unitary_exponential(herm)
        conj = Terms(gauge_conjugate(terms.a, u), gauge_conjugate(terms.phi, u), ctx)
        before = equation_residuals("full", terms)
        after = equation_residuals("full", conj)
        drift = max(abs(x - y) for (_, x), (_, y) in zip(before, after))
        # each item scaled first, then the largest taken
        scale = max(1.0, terms.a.norm)
        cols = [("residual_norm_invariance", drift),
                ("conjugated_wca", max(f.norm / scale for _, f in equation_fields("wca", conj)))]
    return [{"name": name, "residual": float(r), "tolerance": cfg.tol} for name, r in cols]


def spin_expectation(spec, ctx, t):
    """<Psi| Z_s(t) |Psi> at one time."""
    return wobble_expectations(ctx, spec.state_vector(ctx), [t])[1, 0]


def _single_trial_items(cfg, fam, rng):
    """One zitter or poynting trial's (name, residual, tolerance) items
    through the single-trial functions, in the trial's draw order, each
    relative to max(1, its scale): the wobble's size hbar c / 2 E_p, the
    closed-form flux's norm, or the g = 0 flux's norm."""
    if cfg.suite == "zitter":
        p = rng.uniform(-1.0, 1.0, 3)
        p[2] = abs(p[2]) + 0.2
        ctx = DiracContext(p=p, hbar=cfg.hbar, c=cfg.c)
        theta = rng.uniform(0.0, np.pi / 2.0)
        t = rng.uniform(0.0, 4.0 * np.pi * ctx.hbar / ctx.energy)
        zr = zitter_position_expectation(SuperpositionSpec(theta, (1, 3)), ctx, t)
        zs = spin_expectation(SuperpositionSpec(theta, (1, 4)), ctx, t)
        pure = zitter_position_expectation(SuperpositionSpec(0.0, (1, 3)), ctx, t)
        samehel = spin_expectation(SuperpositionSpec(theta, (1, 3)), ctx, t)
        scale = max(1.0, ctx.hbar * ctx.c / (2.0 * ctx.energy))
        return [("position_vs_closed",
                 float(np.abs(zr - position_closed_form(theta, ctx, t)).max()) / scale, cfg.tol),
                ("spin_vs_closed",
                 float(np.abs(zs - spin_closed_form(theta, ctx, t)).max()) / scale, cfg.tol),
                ("pure_energy_zero", float(np.abs(pure).max()) / scale, 1e-14),
                ("same_helicity_spin_zero", float(np.abs(samehel).max()) / scale, 1e-14)]
    closed = amw_flux(fam)
    at_r, mixed = flux_averages(fam, cfg.samples, ((rng.uniform(-1, 1, 3), "total"),
                                                   (None, "mixed")))
    scale = max(1.0, operator_norm(closed))
    n = len(fam.ctx.generators.generators)
    ctx0 = WaveContext(generators=fam.ctx.generators, k=fam.ctx.k, c=cfg.c, g=0.0)
    r0 = rng.uniform(-1.0, 1.0, 3)
    fam0 = SolutionFamily(ctx=ctx0, R=(r0,) + (np.zeros(3),) * n)
    a01 = -np.cross(ctx0.khat, np.cross(ctx0.khat, r0))
    flux0 = amw_flux(fam0)
    return [("quadrature_vs_closed", operator_norm(at_r - closed) / scale, cfg.tol),
            ("mixed_block_average", operator_norm(mixed) / scale, 1e-10),
            ("abelian_equals_em", operator_norm(flux0 - em_flux(a01, ctx0))
             / max(1.0, operator_norm(flux0)), 1e-10)]


@pytest.mark.parametrize("generator", ["both", "su2_spin_one", "su3_gellmann"])
@pytest.mark.parametrize("suite", ["zitter", "poynting"])
def test_zitter_and_poynting_equal_a_loop_over_single_trials(suite, generator):
    # the defaults, where every scale is 1, and a run whose scales exceed 1:
    # hbar = 1000 for the wobble, |k| = 10 for both fluxes
    for units in ({}, {"hbar": 1000.0} if suite == "zitter" else {"k": (0.0, 6.0, -8.0)}):
        for seed in (0, 17):
            for trials in (1, 2, 3):
                cfg = RunConfig(suite=suite, trials=trials, seed=seed, generator=generator,
                                samples=64, **units)
                want = []
                rngs = [np.random.default_rng(s)
                        for s in np.random.SeedSequence(seed).spawn(trials)]
                for i, rng in enumerate(rngs):
                    kind = generator if generator != "both" else (
                        "su2_spin_half", "su2_spin_one")[i % 2]
                    fam = None if suite == "zitter" else random_family(
                        make_generators(kind, hbar=cfg.hbar), rng, k=cfg.k, c=cfg.c,
                        g=cfg.coupling)
                    want += [(f"trial{i:03d}/{name}", r, tol)
                             for name, r, tol in _single_trial_items(cfg, fam, rng)]
                got = [(it["name"], it["residual"], it["tolerance"])
                       for it in report_items(run_suite(cfg))]
                assert got == want, (units, seed, trials)


def _zitter_columns_trial_by_trial(cfg, rngs):
    """The zitter suite's columns from one DiracContext per trial, each
    trial drawing p, theta and t in turn and taking each state's
    expectation at its one time."""
    rows = []
    for rng in rngs:
        p = rng.uniform(-1.0, 1.0, 3)
        p[2] = abs(p[2]) + 0.2
        ctx = DiracContext(p=p, hbar=cfg.hbar, c=cfg.c)
        theta = rng.uniform(0.0, np.pi / 2.0)
        t = rng.uniform(0.0, 4.0 * np.pi * ctx.hbar / ctx.energy)
        mix13, mix14, pure13 = (SuperpositionSpec(angle, pair).state_vector(ctx)
                                for angle, pair in ((theta, (1, 3)), (theta, (1, 4)),
                                                    (0.0, (1, 3))))

        def zr(psi):
            return wobble_expectations(ctx, psi, [t])[0, 0]

        def zs(psi):
            return wobble_expectations(ctx, psi, [t])[1, 0]
        rows.append((np.abs(zr(mix13) - position_closed_form(theta, ctx, t)).max(),
                     np.abs(zs(mix14) - spin_closed_form(theta, ctx, t)).max(),
                     np.abs(zr(pure13)).max(),
                     np.abs(zs(mix13)).max()))
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("units", [{}, {"hbar": 0.5, "c": 2.0}])
@pytest.mark.parametrize("trials", (1, 2, 7))
def test_zitter_group_columns_equal_a_trial_by_trial_loop(trials, units):
    cfg = RunConfig(suite="zitter", trials=trials, **units)
    for seed in (0, 5, 17):
        def rngs():
            return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(trials)]
        cols = SUITE_TABLE["zitter"].columns(cfg, None, rngs())
        assert [(name, *tol) for name, _, _, *tol in cols] == [
            ("position_vs_closed",), ("spin_vs_closed",),
            ("pure_energy_zero", 1e-14), ("same_helicity_spin_zero", 1e-14)]
        for (name, got, *_), want in zip(cols, _zitter_columns_trial_by_trial(cfg, rngs())):
            assert got.shape == want.shape == (trials,), name
            assert got.tobytes() == want.tobytes(), (name, seed)


def test_importing_the_cli_does_not_import_yaml():
    # only --config needs PyYAML
    src = str(Path(amwave.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import amwave.cli; "
            "print('yaml' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_importing_the_cli_does_not_import_numpy_random():
    # the trial streams import it when a run first seeds them
    src = str(Path(amwave.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import amwave.cli; "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


# the module layers: zitter stands on algebra alone, poynting and
# relativity, which hold their suites' columns, need no other physics
# module, and algebra, which holds su3's opening columns, needs no fields;
# each case checks the modules it names, space-separated, in one interpreter
@pytest.mark.parametrize("module, absent", [("zitter", "amwave.fields"),
                                            ("poynting", "amwave.zitter"),
                                            ("poynting", "amwave.relativity"),
                                            ("relativity", "amwave.zitter amwave.poynting"),
                                            ("algebra", "amwave.fields")])
def test_a_module_loads_only_the_layers_it_stands_on(module, absent):
    src = str(Path(amwave.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import amwave.{module}; "
            f"print([name for name in {absent.split()!r} if name in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_no_module_imports_another_modules_private_name():
    package = Path(amwave.__file__).resolve().parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, node.module, private)


# the public names that no code of the package reads, each with its reason
UNREAD_PUBLIC_NAMES = {
    "zca_conditions": "perfbench/probes.py times it",
    "boosted_residuals": "perfbench/probes.py times it: boost_columns for one family at "
                         "one velocity",
    "zitter_position_expectation": "perfbench/probes.py times it",
    "random_family": "perfbench/probes.py draws its family with it, and the tests' "
                     "special families start from it",
    "position_closed_form": "zitter.PAIRS names it, and the suite and the export look it up "
                            "by that name, so one patch of it reaches both",
    "spin_closed_form": "zitter.PAIRS names it, as position_closed_form",
    "spin_closed_form_z": "one of the paper's printed results",
    "alpha_matrix_element_14": "one of the paper's printed results",
    "compton_wavelength_si": "one of the paper's printed results",
    "amplitude_frequency_si": "one of the paper's printed results",
    "projectors": "the Dirac energy and helicity projectors, which tests hold the spectral "
                  "kernels to",
    "HarmonicField.eval_at": "the finite-difference oracle's only view of a field",
    "SolutionFamily.eta": "the paper's eta, tau x tau = i eta_scale eta",
    "KnownWords.generate_state": "numpy calls it to seed a bit generator",
    "_Parser.error": "argparse calls it on a bad command line",
}


def _names_read(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _keywords_passed(node) -> Counter:
    return Counter(n.arg for n in ast.walk(node) if isinstance(n, ast.keyword) and n.arg)


def _members(cls: ast.ClassDef):
    """(name, definition) of each method and property of a class body."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if getattr(func, "id", getattr(func, "attr", None)) in ("property",
                                                                     "cached_property"):
                yield from ((n.id, stmt) for target in stmt.targets
                            for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_public_name_is_read_in_the_package_or_listed():
    """Each public top-level name of the package, public method or property
    of one of its classes, and keyword-only parameter of a public function
    is read somewhere in it other than in its own definition (a parameter
    is read where a call passes it by name), or it is listed with its
    reason, a member as ``Class.member`` and a parameter as
    ``function(name=)``."""
    package = Path(amwave.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in package.glob("*.py")]
    read = sum((_names_read(tree) for tree in trees), Counter())
    passed = sum((_keywords_passed(tree) for tree in trees), Counter())
    unread = set()
    for tree in trees:
        for stmt in tree.body:
            own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else {
                n.id for target in getattr(stmt, "targets", [getattr(stmt, "target", None)])
                if target is not None for n in ast.walk(target) if isinstance(n, ast.Name)}
            elsewhere = read - _names_read(stmt)
            unread |= {name for name in own if not name.startswith("_") and not elsewhere[name]}
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                by_others = passed - _keywords_passed(stmt)
                unread |= {f"{stmt.name}({arg.arg}=)" for arg in stmt.args.kwonlyargs
                           if not by_others[arg.arg]}
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            unread |= {f"{cls.name}.{name}" for name, stmt in _members(cls)
                       if not name.startswith("_") and not (read - _names_read(stmt))[name]}
    assert unread == set(UNREAD_PUBLIC_NAMES), sorted(unread ^ set(UNREAD_PUBLIC_NAMES))


# each raise of a plain ValueError in the package, by module and message
# (an f-string's fields as {}), with why it refuses no value from outside
# the program: such a refusal is an InputError, which main alone reports
PLAIN_VALUE_ERRORS = {
    ("algebra", "generators must be Hermitian"):
        "API misuse: a GeneratorSet of a caller's matrices; make_generators builds Hermitian ones",
    ("algebra", "Gell-Mann matrices must be traceless"):
        "internal invariant of the printed Gell-Mann set",
    ("algebra", "tr(G_a G_b) = 2 delta_ab violated"):
        "internal invariant of the printed Gell-Mann set",
    ("algebra", "{} constants acquired imaginary part"):
        "internal invariant: the trace formulas give real constants on Hermitian generators",
    ("fields", "fields must be of one kind and share a wave context"):
        "API misuse: a sum or product of fields that a caller mixed",
    ("fields", "fields must share a wave context"): "API misuse, as above",
    ("fields", "amplitude of order {} has shape {}, not {}([3,] {}, {})"):
        "API misuse: amplitudes of another shape than their context's",
    ("fields", "need at least one amplitude, all scalar or all vector"):
        "API misuse: a field of no amplitudes, or of both kinds",
    ("poynting", "samples must be >= 1, got {}"):
        "API misuse: every command's samples is held to >= 5 by its option row first",
    ("relativity", "generator of a unitary must be Hermitian"):
        "API misuse: the gauge suite exponentiates real sums of Hermitian generators",
    ("seeding", "the seed and each spawn key must be a non-negative integer"):
        "API misuse: every command's seed is held to a count by its option row first",
    ("seeding", "holds only the four uint64 words that seed PCG64"):
        "internal invariant: numpy asks a PCG64 seed for exactly those words",
    ("zitter", "times must be a finite 1-D array"):
        "API misuse: the suite and the export refuse a time range that overflows where "
        "they build it",
    ("zitter", "expectation of a Hermitian operator came out complex"):
        "internal invariant of the wobble kernel",
}


def _message(node) -> str:
    """The text of a raise's message, an f-string's fields as {}."""
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return node.value if isinstance(node, ast.Constant) else ast.unparse(node)


def test_every_plain_value_error_is_listed_and_every_other_refusal_is_an_input_error():
    package = Path(amwave.__file__).resolve().parent
    raised = []
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            call = exc if isinstance(exc, ast.Call) else None
            if getattr(call.func if call else exc, "id", None) == "ValueError":
                raised.append((path.stem, _message(call.args[0]) if call and call.args else ""))
    assert sorted(raised) == sorted(PLAIN_VALUE_ERRORS), set(raised) ^ set(PLAIN_VALUE_ERRORS)
    for cls in (NonFiniteValue, DimMismatch, UnsupportedGenerator, SuperluminalBoost,
                PolarSingularity, ConfigError):
        assert issubclass(cls, InputError), cls


def test_main_alone_turns_an_input_error_into_an_exit_code():
    # no other function catches a ValueError, any of its subclasses or an
    # OverflowError, so each refusal reaches main with its own text
    package = Path(amwave.__file__).resolve().parent
    caught = {"ValueError", "OverflowError"} | {
        name for module in ("algebra", "fields", "relativity", "zitter", "poynting", "cli")
        for name, obj in vars(getattr(amwave, module)).items()
        if isinstance(obj, type) and issubclass(obj, ValueError)}
    catchers = set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ExceptHandler) and node.type is not None and caught & {
                        getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}:
                    catchers.add(f"{path.stem}.{getattr(top, 'name', '')}")
    assert catchers == {"cli.main"}


def test_every_object_is_built_by_its_constructor():
    # object.__new__ would build a WaveContext or a SolutionFamily around
    # the checks of its constructor
    package = Path(amwave.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "__new__" and getattr(node.func.value, "id", None) == "object"]
    assert found == []


@pytest.mark.parametrize("k", [None, (0.6, 0.0, 0.8)])
@pytest.mark.parametrize("trials", [1, 4])
def test_a_fixed_family_group_holds_the_config_family_in_every_trial(k, trials):
    R = ((0.3, -0.2, 0.5), (1.0, 0.0, 0.0), (0.0, 0.0, -0.7), (0.4, 0.0, 1.0))
    cfg = RunConfig(suite="wca", generator="su2_spin_half", k=k, R=R, c=2.0, coupling=0.3,
                    hbar=0.5)
    group = _group_families(cfg, "su2_spin_half",
                            [np.random.default_rng(i) for i in range(trials)])
    gens = make_generators("su2_spin_half", hbar=0.5)
    want = SolutionFamily(ctx=WaveContext(generators=gens, k=k or (0.0, 0.0, 1.0), c=2.0, g=0.3),
                          R=R)
    assert group.ctx.batch_shape == (trials,) and len(group.R) == len(want.R)
    for t in range(trials):
        pairs = [(group.ctx.k[t], want.ctx.k), (group.ctx.knorm[t], want.ctx.knorm),
                 (group.ctx.omega[t], want.ctx.omega), (group.tau[t], want.tau),
                 *((r[t], w) for r, w in zip(group.R, want.R))]
        for got, ref in pairs:
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), t


@pytest.mark.parametrize("suite, generator", [
    (suite, generator) for suite in ("wca", "zca", "exact", "full", "gauge")
    for generator in ("both", "su2_spin_half", "su2_spin_one", "su3_gellmann")
] + [("su3", "both")])  # the su3 suite always uses the Gell-Mann set
def test_batched_suites_equal_a_loop_over_single_families(suite, generator):
    for seed in (0, 17):
        for trials in (1, 2, 3, 7):
            cfg = RunConfig(suite=suite, trials=trials, seed=seed, generator=generator)
            want = []
            rngs = [np.random.default_rng(s)
                    for s in np.random.SeedSequence(seed).spawn(trials)]
            for i, rng in enumerate(rngs):
                kind = {"su3": "su3_gellmann"}.get(suite, generator)
                if kind == "both":
                    kind = ("su2_spin_half", "su2_spin_one")[i % 2]
                fam = random_family(make_generators(kind), rng, c=cfg.c, g=cfg.coupling)
                want += [(f"trial{i:03d}/{it['name']}", it["residual"], it["tolerance"])
                         for it in _single_family_items(cfg, fam, rng)]
            got = [(it["name"], it["residual"], it["tolerance"])
                   for it in report_items(run_suite(cfg)) if it["name"].startswith("trial")]
            assert got == want, (seed, trials)


TOL = 1e-12


def test_judge_holds_the_residual_magnitude_to_the_tolerance():
    def item(norm, tolerance=TOL, scale=1.0):
        col = judge(("x", norm, scale), tolerance)
        assert col.residual.dtype == float and col.passed.dtype == bool
        assert col.residual.shape == col.passed.shape == (1,) and type(col.tol) is float
        it, = judged_items(col)
        assert type(it["residual"]) is float and type(it["pass"]) is bool
        return it
    for bad in (np.nan, np.inf, -np.inf, 2 * TOL):
        assert item(bad)["pass"] is False, bad
    assert item(TOL)["pass"] is True  # equal to the tolerance passes
    zero = item(-0.0)
    assert zero["pass"] is True and math.copysign(1.0, zero["residual"]) == -1.0
    it = item(np.float64(0.5 * TOL), np.float64(TOL))
    assert it == {"name": "x", "residual": 0.5 * TOL, "tolerance": TOL, "pass": True}
    # the residual, not the norm, is held to the tolerance
    assert item(2.0, 0.6, scale=4.0) == {"name": "x", "residual": 0.5, "tolerance": 0.6,
                                         "pass": True}
    assert item(0.5, 0.4, scale=0.25)["pass"] is False  # absolute below a scale of 1
    # one residual per trial, the column's own tolerance over the default
    col = judge(("y", np.array([1.0, 3.0]), np.array([0.5, 4.0]), 0.8), TOL)
    assert judged_items(col, ("a/", "b/")) == [
        {"name": "a/y", "residual": 1.0, "tolerance": 0.8, "pass": False},
        {"name": "b/y", "residual": 0.75, "tolerance": 0.8, "pass": True}]
    # one scale for all trials is every trial's
    assert judge(("z", np.array([0.5, 3.0]), 2.0), TOL).residual.tolist() == [0.25, 1.5]
    # a scale that is not finite would pass any norm
    for scale in (np.inf, np.nan, np.array([1.0, np.inf])):
        with pytest.raises(NonFiniteValue, match="^the scale of x is not finite$"):
            judge(("x", np.array([0.0, 1.0]), scale), TOL)


@pytest.mark.parametrize("generator", ["both", "su3_gellmann"])
@pytest.mark.parametrize("suite", SUITES)
def test_every_column_is_name_norm_scale_and_the_report_is_its_relative_residual(
        suite, generator):
    cfg = RunConfig(suite=suite, trials=3, seed=4, generator=generator, samples=64)
    row = SUITE_TABLE[suite]

    def residuals(column, n):
        assert len(column) in (3, 4) and type(column[0]) is str, column
        name, norm, scale, *tol = column
        assert {np.shape(norm), np.shape(scale)} <= {(), (n,)}, (name, norm, scale)
        res = np.broadcast_to(relative(norm, scale), n).tolist()
        return [(name, r.hex(), tol[0] if tol else cfg.tol) for r in res]
    want = [(name, r, tol) for col in row.opening() for name, r, tol in residuals(col, 1)]
    per_trial = [[] for _ in range(cfg.trials)]
    step = len(cfg.kinds) if row.family else 1
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    for first, kind in enumerate(cfg.kinds[:step]):
        idx = range(first, cfg.trials, step)
        rngs = [np.random.default_rng(s) for s in seeds[first::step]]
        fams = _group_families(cfg, kind, rngs) if row.family else None
        for column in row.columns(cfg, fams, rngs):
            for i, (name, r, tol) in zip(idx, residuals(column, len(idx))):
                per_trial[i].append((f"trial{i:03d}/{name}", r, tol))
    want += [it for items in per_trial for it in items]
    got = [(it["name"], it["residual"].hex(), it["tolerance"]) for it in report_items(run_suite(cfg))]
    assert got == want


@pytest.mark.parametrize("family", [{"k": [float("nan"), 0, 1]},
                                    {"R": [[0, 0, 0], [float("nan"), 0, 0], [0, 0, 0],
                                           [0, 0, 1]]},
                                    {"coupling": float("inf")}])
@pytest.mark.parametrize("argv", [["verify", "zitter", "--trials", "2"],
                                  ["zitter", "--steps", "4"]])
def test_a_real_that_is_not_finite_is_refused_by_the_zitter_commands(tmp_path, argv, family):
    # these commands build no family, but every key given is still checked
    config = config_file(tmp_path / "cfg.yaml", family)
    code, err = run_main([*argv, "--config", config, "--out", str(tmp_path / "out")])
    assert_one_config_error(code, err)
    assert "must be a real number" in err[0]
    assert not (tmp_path / "out").exists()


def test_families_are_checked_and_run_at_any_hbar(tmp_path):
    # k = z with R_1, R_2, R_3 = x, y, z is no family: at hbar = 1e-7 the
    # spin commutators are below 1e-12, and their pairs still count
    config = config_file(tmp_path / "cfg.yaml", {
        "hbar": 1e-7, "generator": "su2_spin_half", "k": [0, 0, 1],
        "R": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    for suite in ("wca", "exact"):
        code, err = run_main(["verify", suite, "--trials", "2", "--config", config,
                              "--out", str(tmp_path / "out")])
        assert_one_config_error(code, err)
        assert err[0].endswith("are not coplanar with k")
        assert not (tmp_path / "out").exists()
    # and at hbar = 1e6 the spin-1 set builds and its boosted waves pass
    config = config_file(tmp_path / "big.yaml", {"hbar": 1e6})
    code, err = run_main(["verify", "boost", "--generator", "su2_spin_one", "--trials", "4",
                          "--config", config, "--out", str(tmp_path / "out")])
    assert (code, err) == (EXIT_PASS, ["PASS boost: 32 items"])
