"""Command-line harness: randomized verification suites, report files, and
time-series export.

Determinism: trial i of a run draws from numpy's PCG64 generator
``default_rng(SeedSequence(seed).spawn(trials)[i])``, seeded for every trial
at once by ``seeding.spawn_states``, so a given (config, seed) gives
bit-identical reports.  Reports carry no timestamps for the same reason.

Exit codes: 0 all checks passed, 1 numerical failure (failing items are
listed), 2 usage or configuration error (including a family whose
amplitudes overflow, or a scale that does).  Each suite is one row of
``SUITE_TABLE``: its columns (equation rows, or a columns function of
the physics module that holds its check), its default tolerance, its
fixed generator kind if it has one, whether its trials draw a family,
and the columns that open its report.  Every column is (name, norm, scale[, tolerance]);
one function, ``judge``, turns each into a judged column of residuals and
pass flags and gives both exports their verdicts: it refuses a scale that
is not finite, divides (``residuals.relative``) and holds |residual| to
the tolerance.  Each export is one call of the physics module that holds
its suite (``zitter.wobble_timeseries``, ``poynting.flux_timeseries``),
which gives its columns and its verdict column; here it gets its CSV
header, its judged verdict, its file and its verdict text.
Every suite runs once per generator group (``RunConfig.kinds``), in one
thread, on the group's families drawn straight into one stacked
``SolutionFamily``, or all trials as one group if they draw none; boost and
gauge evaluate their two frames or gauges as one stack.  Each group
writes its rows of every column, so a report holds its items as judged
columns in trial order, one per item, and ``write_report`` writes the
bytes of ``json.dumps(report, indent=2)`` with them materialized: each
column's items come from one f-string with its name and tolerance bound.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
import tempfile
from collections.abc import Callable, Collection
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields
from functools import cache, cached_property, partial
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .algebra import SERIES_BLOCK, NonFiniteValue, make_generators, su3_columns
from .fields import SolutionFamily, WaveContext, random_families
from .poynting import flux_columns, flux_timeseries
from .relativity import boost_axis, boost_columns, boost_matrix, gauge_columns
from .residuals import Terms, equation_columns, relative
from .seeding import seeded_generators, spawn_states
from .zitter import DiracContext, SuperpositionSpec, wobble_columns, wobble_timeseries

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

# mkstemp makes owner-only files; written files get open()'s mode instead.
# os.umask is read by setting it, so it is set straight back.
_UMASK = os.umask(0o022)
os.umask(_UMASK)

GENERATORS = ("both", "su2_spin_half", "su2_spin_one", "su3_gellmann")


class ConfigError(ValueError):
    pass


# --- the suite table ---------------------------------------------------------------
#
# A suite gives, for the trials of one generator group, columns (item name,
# norm, scale[, tolerance]), norm and scale one value per trial (or one
# for all), which ``judge`` turns into report items; a column without a
# tolerance is held to cfg.tol, and an absolute check has scale 1.0.  Its
# columns are a function of (cfg, fams, rngs): ``fams`` is the group's
# stacked SolutionFamily (None for a suite whose trials draw no family)
# and ``rngs`` the trials' generators, each already past its family draw.
# A row passes a physics module's columns function only what it reads.


def _table(labels: tuple[str, ...], cfg: RunConfig, fams: SolutionFamily, rngs):
    """The columns of ``residuals.EQUATIONS`` rows, evaluated on one
    ``Terms`` of the group's stacked family, so the rows share its products."""
    terms = Terms.of(fams)
    return [col for label in labels for col in equation_columns(label, terms)]


class Suite(NamedTuple):
    """A row of the suite table."""

    columns: Callable  # (cfg, fams, rngs) -> the columns of one generator group
    tol: float  # the tolerance of a column that names none, unless the run sets one
    generator: str | None = None  # the generator kind of every trial, if fixed
    family: bool = True  # whether each trial draws a family
    opening: Callable = lambda: []  # () -> the columns of the items that open the report


# Analytic residuals are exact termwise algebra.  A boost scales amplitudes
# and k by up to gamma (1 + |v|), and the rounding of the boosted equations
# with them: 1.1e-11 at 0.999999999c.  The flux quadrature is exact for
# samples >= 5, leaving sum rounding of ~eps*sqrt(samples): 2e-14 at 10,000
# samples, where the worst of 120 seeded trials was 1.1e-15.
SUITE_TABLE = {
    "wca": Suite(partial(_table, ("wca",)), 1e-12),
    "zca": Suite(partial(_table, ("zca", "maxwell", "battery")), 1e-12),
    "exact": Suite(partial(_table, ("exact",)), 1e-12),
    "full": Suite(partial(_table, ("full",)), 1e-12),
    # the maxwell row at +velocity and -velocity, the group's fields built
    # once for both
    "boost": Suite(lambda cfg, fams, rngs: boost_columns(
        fams, (cfg.velocity, -cfg.velocity), axis=cfg.boost_axis), 1e-10),
    "gauge": Suite(lambda cfg, fams, rngs: gauge_columns(fams, rngs), 1e-12),
    "zitter": Suite(lambda cfg, _, rngs: wobble_columns(rngs, cfg.hbar, cfg.c), 1e-12,
                    family=False),
    "poynting": Suite(lambda cfg, fams, rngs: flux_columns(fams, rngs, cfg.samples), 1e-12),
    "su3": Suite(partial(_table, ("zca",)), 1e-12, "su3_gellmann", opening=su3_columns),
}
SUITES = tuple(SUITE_TABLE)


# --- the options table -----------------------------------------------------------------
#
# Each option is one RunConfig field, whose metadata is its row.  The rows
# build the flags, the config-file keys, the checks, the config echo, and
# the commands that read each option: "verify SUITE" (boost and
# su3-constants are verify boost and verify su3), "zitter" and "poynting".
_VERIFY = frozenset(f"verify {s}" for s in SUITES)
_EVERY = _VERIFY | {"zitter", "poynting"}
# the commands that build a family, and those whose family has a fixed generator
_FAMILY = frozenset(f"verify {s}" for s, row in SUITE_TABLE.items() if row.family) | {"poynting"}
_FIXED = frozenset(f"verify {s}" for s, row in SUITE_TABLE.items() if row.generator)


class Option(NamedTuple):
    """A row; the option's name, default and type are its field's (None only if the default is)."""

    check: Callable | None  # (name, value) -> the value, checked and normalised
    section: str | None = None  # its config-file section; None at the top level
    key: str | None = None  # its key there, if not its name
    flag: tuple = ()  # (flag, argparse type or choices[, help]), if it has one
    reads: Collection[str] = _EVERY  # the commands whose output it can change


def _option(default=MISSING, check=None, section=None, **row):
    return field(default=default, metadata={"option": Option(check, section, **row)})


def _such(holds, rule: str, check=lambda name, val: val):
    """A check: the value passed through check, if holds(value), else a ConfigError."""
    def checked(name: str, val):
        if not holds(val := check(name, val)):
            raise ConfigError(f"{name} must be {rule}, got {val!r}")
        return val
    return checked


def _of(*types):
    return lambda val: isinstance(val, types) and not isinstance(val, bool)


# NaN, an infinity and an integer beyond the float range are no numbers a
# run can compute with
_real = _such(lambda v: (_of(float, np.floating)(v) or _of(int, np.integer)(v))
              and abs(v) <= sys.float_info.max, "a real number")
_int = _such(_of(int, np.integer), "an integer")
_PATH = _such(_of(str, os.PathLike), "a path")
_PAIR = _such(lambda v: len(v) == 2, "two integers",
              lambda name, val: tuple(_int("pair entry", v) for v in val))
# a count above the largest array index could never be allocated
_INDEX_MAX = int(np.iinfo(np.intp).max)
_COUNT = _such(lambda v: v <= _INDEX_MAX, f"an integer <= {_INDEX_MAX}", _int)


def _at_least(least: int, why: str = "", check=_COUNT):
    return _such(lambda v: v >= least, f">= {least}{why}", check)


def _vector(name: str, val) -> tuple:
    return tuple(float(_real(f"{name} entry", v)) for v in val)


def _comma(convert, n: int):
    """The argparse type of a flag that takes n comma-separated values."""
    def parse(text: str) -> tuple:
        if len(parts := text.split(",")) != n:
            raise argparse.ArgumentTypeError(f"expected {n} comma-separated values")
        return tuple(map(convert, parts))
    return parse


@dataclass
class RunConfig:
    suite: str = _option(check=_such(SUITES.__contains__, f"one of {SUITES}"))
    trials: int = _option(100, _at_least(1), flag=("--trials", int), reads=_VERIFY)
    seed: int = _option(42, _at_least(0, check=_int), flag=("--seed", int),
                        reads=_VERIFY | {"poynting"})
    tolerance: float | None = _option(None, _such(lambda v: 0.0 < v < np.inf,
                                                  "positive and finite", _real),
                                      flag=("--tol", float))
    generator: str = _option("both", _such(GENERATORS.__contains__, f"one of {GENERATORS}"),
                             "family", flag=("--generator", GENERATORS),
                             reads=_FAMILY - _FIXED)
    # the fixed generator, Gell-Mann's, does not scale with hbar
    hbar: float = _option(1.0, _real, "family", reads=_EVERY - _FIXED)
    c: float = _option(1.0, _real, "family")
    coupling: float = _option(0.1, _real, "family", flag=("--coupling", float), reads=_FAMILY)
    k: tuple[float, float, float] | None = _option(None, _vector, "family", reads=_FAMILY)
    R: tuple[tuple[float, float, float], ...] | None = _option(
        None, lambda name, val: tuple(_vector(name, v) for v in val), "family", reads=_FAMILY)
    velocity: float = _option(0.5, _real, "boost", reads={"verify boost"},
                              flag=("--velocity", float, "boost speed in units of c"))
    # boost_axis checks the axis, below, and takes 0, 1 and 2 as well
    boost_axis: str = _option("z", None, "boost", key="axis", reads={"verify boost"})
    theta: float = _option(float(np.pi / 4.0), _real, "zitter", flag=("--theta", float),
                           reads={"zitter"})
    pair: tuple[int, int] = _option((1, 4), _PAIR, "zitter", flag=("--pair", _comma(int, 2)),
                                    reads={"zitter"})
    momentum: tuple[float, float, float] = _option(
        (0.0, 0.0, 0.8), _vector, "zitter", flag=("--momentum", _comma(float, 3), "px,py,pz"),
        reads={"zitter"})
    steps: int = _option(1000, _at_least(0), "zitter", flag=("--steps", int),
                         reads={"zitter", "poynting"})
    t_max: float | None = _option(None, _real, "zitter", reads={"zitter"})
    samples: int = _option(10000, _at_least(5, " (exact flux quadrature)"), "poynting",
                           flag=("--samples", int), reads={"verify poynting", "poynting"})
    out: str | None = _option(None, _PATH, "output", key="report",
                              flag=("--out", str, "report / time-series output path"))
    timeseries: str | None = _option(None, _PATH, "output", reads={"zitter", "poynting"},
                                     flag=("--timeseries", str, "CSV time-series output path"))

    def __post_init__(self):
        for f in dataclass_fields(self):
            val, check = getattr(self, f.name), f.metadata["option"].check
            try:
                if check and (val is not None or f.default is not None):
                    setattr(self, f.name, check(f.name, val))
            except TypeError as exc:  # k, momentum, pair or R is no sequence
                raise ConfigError(f"malformed k, momentum, pair or R: {exc}") from exc
        # the program's own constructors hold the rules; building what the
        # run will build turns a bad value into a config error up front
        try:
            axis = boost_axis(self.boost_axis)
            boost_matrix(self.velocity * self.c, c=self.c)
            SuperpositionSpec(self.theta, self.pair)
            # only the zitter suite and export build a Dirac context
            if self.suite == "zitter":
                self.dirac.states
                self.dirac.export_window(self.t_max)
            if SUITE_TABLE[self.suite].family:
                for kind in self.kinds[:self.trials]:
                    _group_families(self, kind, ())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the report names the axis one way, whether it was given as 2 or z
        self.boost_axis = "xyz"[axis]

    @cached_property
    def dirac(self) -> DiracContext:
        """The Dirac context of momentum, hbar and c, built once for the check and the export."""
        return DiracContext(p=np.array(self.momentum), hbar=self.hbar, c=self.c)

    @property
    def csv_path(self) -> str | None:
        """Where an export writes its CSV: ``timeseries`` if set, else ``out``."""
        return self.out if self.timeseries is None else self.timeseries

    @property
    def tol(self) -> float:
        return SUITE_TABLE[self.suite].tol if self.tolerance is None else self.tolerance

    @property
    def kinds(self) -> list[str]:
        """The generator kind of each group of trials: trial i is in group
        i % len(kinds), or all trials in one if the suite draws no family."""
        kind = SUITE_TABLE[self.suite].generator or self.generator
        return ["su2_spin_half", "su2_spin_one"] if kind == "both" else [kind]

    def canonical(self) -> dict:
        """The options as JSON values, but for the output section: paths are
        run metadata, so leaving them out keeps reruns byte-identical."""
        def plain(val):
            return [plain(v) for v in val] if isinstance(val, tuple) else val
        return {f.name: plain(getattr(self, f.name)) for f in dataclass_fields(self)
                if f.metadata["option"].section != "output"}


OPTIONS = {f.name: f.metadata["option"] for f in dataclass_fields(RunConfig)}
# (section, key) -> option name; in its section an option's own name is a key too
_KEYS = {(o.section, key): name for name, o in OPTIONS.items() for key in {name, o.key or name}}


def config_from_file(path: str, overrides: dict | None = None,
                     fallback_suite: str | None = None) -> RunConfig:
    """Load a YAML config (top-level keys plus nested sections)."""
    import yaml  # only --config needs PyYAML, so no other run pays for its import

    class Loader(yaml.SafeLoader):
        """safe_load, but 1e-9 is a float as in YAML 1.2, not a string."""

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    flat: dict = {}
    for key, val in raw.items():
        if (None, key) in _KEYS:
            flat[_KEYS[None, key]] = val
        elif key in {o.section for o in OPTIONS.values()} - {None}:
            if not isinstance(val, dict):
                raise ConfigError(f"section {key!r} must be a mapping")
            for sub, subval in val.items():
                if (key, sub) not in _KEYS:
                    raise ConfigError(f"unknown key {key}.{sub}")
                flat[_KEYS[key, sub]] = subval
        else:
            raise ConfigError(f"unknown top-level key {key!r}")
    flat.update(overrides or {})
    if flat.setdefault("suite", fallback_suite) is None:
        raise ConfigError("config must name a suite")
    return RunConfig(**flat)  # every key is an option's name


# --- trial plumbing ------------------------------------------------------------

def _group_families(cfg: RunConfig, kind: str, rngs) -> SolutionFamily | None:
    """The families of one generator group's trials, stacked: the config's
    fixed family, built once, or one drawn from each trial's generator.
    None for no trials, after a check of the config's units, k and R."""
    gens = make_generators(kind, hbar=cfg.hbar)
    if cfg.R is None and rngs:
        return random_families(gens, rngs, k=cfg.k, c=cfg.c, g=cfg.coupling)
    k = cfg.k if cfg.k is not None else (0.0, 0.0, 1.0)
    ctx = WaveContext(generators=gens, k=k, c=cfg.c, g=cfg.coupling)
    fams = [SolutionFamily(ctx=ctx, R=cfg.R)] * len(rngs) if cfg.R is not None else ()
    return SolutionFamily.stack(fams) if fams else None


class Judged(NamedTuple):
    """A judged column: its item name, its residuals and pass flags (one
    per trial of the run, in trial order, or one for an opening or export
    column) and its tolerance."""

    name: str
    residual: np.ndarray
    passed: np.ndarray
    tol: float


def judge(column, tol: float) -> Judged:
    """A column (name, norm, scale[, tolerance]) judged: the residual
    relative(norm, scale), which passes when |residual| <= the column's
    tolerance, else ``tol``, so a NaN or an infinite residual fails.
    Raises NonFiniteValue if a scale is not finite, as any norm would pass
    against it."""
    name, norm, scale, *given = column
    if not np.isfinite(scale).all():
        raise NonFiniteValue(f"the scale of {name} is not finite")
    tol = float(given[0] if given else tol)
    res = np.array(relative(norm, scale), dtype=float, ndmin=1)
    return Judged(name, res, np.abs(res) <= tol, tol)


def _run_trials(cfg: RunConfig) -> list[Judged]:
    """The judged columns of the run's trials, one per report item, each
    holding every trial's residual in trial order.

    The trials of each generator kind (``cfg.kinds``) run as one group, or
    all trials if the suite's trials draw no family: the group's families
    are drawn as one stack (``_group_families``), each trial from its own
    generator, and the suite's columns are computed once on that stack.
    Whatever a suite draws comes from the same per-trial generators after
    the family, so grouping changes no value.  Trial i is in group
    i % step, and each group writes its norms and scales into its own
    rows, [first::step], of each column; every group must yield the same
    columns (names and tolerances, in order), and ``judge`` runs once per
    column."""
    suite, kinds = SUITE_TABLE[cfg.suite], cfg.kinds
    # every trial's seed words at once, the first allocation sized by the
    # trial count, so a count that memory cannot hold fails here at once; a
    # group's generators live while it runs
    states = spawn_states(cfg.seed, np.arange(cfg.trials))
    step = len(kinds) if suite.family else 1
    for first, kind in enumerate(kinds[:min(step, cfg.trials)]):
        rngs = seeded_generators(states[first::step])
        fams = _group_families(cfg, kind, rngs) if suite.family else None
        cols = suite.columns(cfg, fams, rngs)
        got = [(name, *tol) for name, _, _, *tol in cols]
        if not first:
            # NaN until a group fills it, so a row no group wrote would fail
            heads, (norms, scales) = got, np.full((2, len(cols), cfg.trials), np.nan)
        elif got != heads:
            raise RuntimeError(f"the {kind} trials of {cfg.suite} yield other columns")
        for j, (_, norm, scale, *_) in enumerate(cols):
            norms[j, first::step], scales[j, first::step] = norm, scale
    return [judge((name, norm, scale, *tol), cfg.tol)
            for (name, *tol), norm, scale in zip(heads, norms, scales)]


def run_suite(cfg: RunConfig) -> dict:
    """The report of a run.  Its items are held by column, as (opening,
    columns): the judged opening columns, an item each, and ``_run_trials``'
    columns, an item per trial each; in the report they run opening first,
    then by trial, then by column."""
    opening = [judge(col, cfg.tol) for col in SUITE_TABLE[cfg.suite].opening()]
    columns = _run_trials(cfg)
    cols = [*opening, *columns]
    total = sum(col.passed.size for col in cols)
    failed = total - int(sum(np.count_nonzero(col.passed) for col in cols))
    return {
        "suite": cfg.suite,
        "config": cfg.canonical(),
        "rng": "numpy PCG64; trial i uses SeedSequence(seed).spawn(trials)[i]",
        "items": (opening, columns),
        "summary": {
            "total": total,
            "failed": failed,
            "overall_pass": not failed,
        },
    }


def _failed_names(items, limit: int) -> list[str]:
    """The names of the first ``limit`` failing items of a report's
    (opening, columns), in report order: the opening's, then those of one
    (trials, columns) matrix of failures, read row by row."""
    opening, columns = items
    failed = np.argwhere(~np.array([col.passed for col in columns], dtype=bool, ndmin=2).T)
    return ([col.name for col in opening if not col.passed[0]]
            + [f"trial{i:03d}/{columns[c].name}" for i, c in failed[:limit].tolist()])[:limit]


def _refuse_special(path: str | None):
    """Refuse a ``path`` that exists but is no regular file (a directory, a
    device), so the rename of ``_write`` never replaces it."""
    if path is not None and os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"{path} exists and is not a regular file")


def _write(path: str | None, emit):
    """Call ``emit`` on stdout, or write a file atomically: ``emit`` fills a
    unique temporary file beside ``path``, which is then renamed over
    ``path``; on any failure the temporary file is removed.  A ``path`` that
    exists but is no regular file (a directory, a device) is refused before
    anything is written, so the rename never replaces it."""
    if path is None:
        emit(sys.stdout)
        return
    _refuse_special(path)  # again, in case the path changed since the run began
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            emit(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _item_texts(prefixes: list[str], cols: list[Judged], residuals, tols) -> list[str]:
    """The report text of the items of each prefix, one per column in
    order, each named prefix + its column's name, as ``json.dumps(report,
    indent=2)`` writes them.  ``residuals`` and ``tols`` iterate over the
    texts of the columns' residuals and tolerances, column by column; each
    column's items come from one f-string with its name and tolerance text
    bound once."""
    items = []
    for col in cols:
        name, tol = encode_basestring_ascii(col.name)[1:], next(tols)
        items.append([f'\n    {{\n      "name": "{prefix}{name},\n      "residual": {res},'
                      f'\n      "tolerance": {tol},\n      "pass": {("false", "true")[ok]}\n    }}'
                      for prefix, res, ok in zip(prefixes, itertools.islice(residuals, len(prefixes)),
                                                 col.passed.tolist())])
    return list(map(",".join, zip(*items)))


def write_report(report: dict, path: str | None):
    """Write ``json.dumps(report, indent=2)`` and a newline, byte for byte,
    for the report with its items materialized, straight from the columns
    of ``run_suite``'s (opening, columns): json's indenting encoder is
    slower, and the items need no dicts.  One compact json call gives the
    text of every residual and tolerance (no float's text holds ", ")."""
    opening, columns = report["items"]
    cols = [*opening, *columns]
    values = np.concatenate([col.residual for col in cols] or [[]]).tolist()
    numbers = json.dumps(values + [col.tol for col in cols])[1:-1].split(", ")
    residuals, tols = iter(numbers[:len(values)]), iter(numbers[len(values):])
    trials = [f"trial{i:03d}/" for i in range(len(columns[0].passed) if columns else 0)]
    text = ",".join(_item_texts([""], opening, residuals, tols)
                    + _item_texts(trials, columns, residuals, tols))
    body = json.dumps({**report, "items": []}, indent=2).replace(
        '\n  "items": []', f'\n  "items": [{text}\n  ]' if text else '\n  "items": []', 1)
    _write(path, lambda fh: fh.write(body + "\n"))


# --- time series -----------------------------------------------------------------

class Series(NamedTuple):
    """A time-series table: its header, its numeric columns (one float per
    row each) and the number of blank cells that end every row."""

    header: list[str]
    columns: tuple[np.ndarray, ...]
    blank: int = 0


def zitter_timeseries(cfg: RunConfig) -> tuple[Series, tuple]:
    """The table of (t, numeric wobble, closed form, deviation) of
    ``zitter.wobble_timeseries``, whose closed-form and deviation cells
    are blank for a pair without a closed form, and its verdict column."""
    ts, cols, verdict = wobble_timeseries(cfg.dirac, cfg.theta, cfg.pair, cfg.steps, cfg.t_max)
    header = ["t", "num_x", "num_y", "num_z", "closed_x", "closed_y", "closed_z", "abs_dev"]
    return Series(header, (ts, *cols), blank=len(header) - 1 - len(cols)), verdict


def poynting_timeseries(cfg: RunConfig, fam: SolutionFamily) -> tuple[Series, tuple]:
    """The table of (t, flux blocks, running average) of
    ``poynting.flux_timeseries`` and its verdict column."""
    ts, blocks, running, verdict = flux_timeseries(fam, cfg.steps, cfg.samples)
    return Series(["t", "first", "mixed", "second", "running_avg"], (ts, *blocks, running)), verdict


def write_timeseries(series: Series, path: str | None):
    """Write the table as ``csv.writer`` does (no cell needs quoting, no
    row is one blank), SERIES_BLOCK rows at a time: each column of a block
    becomes text with one ``repr`` per float (a float's ``str``), its rows
    are joined from those texts, and the block is one write, so an export
    holds one block of text at a time."""
    header, columns, blank = series
    end = "," * blank + "\r\n"

    def emit(fh):
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), SERIES_BLOCK):
            texts = [map(repr, col[start:start + SERIES_BLOCK].tolist()) for col in columns]
            fh.write(end.join(map(",".join, zip(*texts))) + end)
    _write(path, emit)


# --- commands ------------------------------------------------------------------------

def _cmd_verify(cfg: RunConfig) -> int:
    _refuse_special(cfg.out)  # before the run, which it would waste
    report = run_suite(cfg)
    write_report(report, cfg.out)
    failed, total = report["summary"]["failed"], report["summary"]["total"]
    if failed:
        preview = ", ".join(_failed_names(report["items"], 8)) + ("..." if failed > 8 else "")
        print(f"FAIL {cfg.suite}: {failed}/{total} items failed ({preview})", file=sys.stderr)
        return EXIT_FAIL
    print(f"PASS {cfg.suite}: {total} items", file=sys.stderr)
    return EXIT_PASS


def _cmd_zitter(cfg: RunConfig) -> int:
    _refuse_special(cfg.csv_path)  # before the series, which it would waste
    series, column = zitter_timeseries(cfg)
    worst = judge(column, cfg.tol)  # before the export, so a scale that overflows writes no file
    write_timeseries(series, cfg.csv_path)
    if series.blank or not cfg.steps:  # a pair without a closed form, or no samples
        why = ": pair {},{} has no closed form".format(*cfg.pair) if cfg.steps else ""
        print(f"PASS zitter: {cfg.steps} samples, nothing compared{why}", file=sys.stderr)
        return EXIT_PASS
    if not worst.passed[0]:
        print(f"FAIL zitter: max |numeric - closed| = {worst.residual[0]:.3e} relative to "
              "max(1, hbar c / 2 E_p)", file=sys.stderr)
        return EXIT_FAIL
    print(f"PASS zitter: {cfg.steps} samples, max relative deviation {worst.residual[0]:.3e}",
          file=sys.stderr)
    return EXIT_PASS


def _cmd_poynting(cfg: RunConfig) -> int:
    _refuse_special(cfg.csv_path)  # before the quadrature and series, which it would waste
    fam = _group_families(cfg, cfg.kinds[0], [np.random.default_rng(cfg.seed)]).trial(0)
    series, column = poynting_timeseries(cfg, fam)
    err = judge(column, cfg.tol)  # before the export, so an overflow writes no file
    write_timeseries(series, cfg.csv_path)
    verdict = "PASS" if err.passed[0] else "FAIL"
    print(f"{verdict} poynting: quadrature vs closed = {err.residual[0]:.3e}", file=sys.stderr)
    return EXIT_PASS if err.passed[0] else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a ConfigError (one line, exit 2)."""

    def error(self, message):
        raise ConfigError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds no per-call state, and
    each parse_args makes a fresh Namespace."""
    parser = _Parser(prog="amwave", description="verify operator-valued plane-wave "
                                                "solutions and their source model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, suite, run, descr in (
        ("verify", None, _cmd_verify, "run a randomized verification suite"),
        ("zitter", None, _cmd_zitter, "export a trembling-motion time series"),
        ("poynting", None, _cmd_poynting, "export the flux quadrature decomposition"),
        ("boost", "boost", _cmd_verify, "verify boosted-frame field equations (verify boost)"),
        ("su3-constants", "su3", _cmd_verify, "check the SU(3) structure constants (verify su3)"),
    ):
        p = sub.add_parser(name, help=descr)
        if name == "verify":
            p.add_argument("suite", choices=SUITES)
        p.set_defaults(suite=suite, run=run)
        p.add_argument("--config", help="YAML config file")
        for dest, opt in OPTIONS.items():
            if opt.flag:
                flag, parse, *help = opt.flag
                kind = {"choices": parse} if isinstance(parse, tuple) else {"type": parse}
                p.add_argument(flag, dest=dest, help=help[0] if help else None, **kind)
    return parser


def _collect_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, if any, under the flags given: all checked, then
    a flag that the command does not read refused, so no flag is silently ignored."""
    suite = args.suite or args.command  # an export runs as its suite
    given = {name: val for name, val in vars(args).items()
             if name in OPTIONS and name != "suite" and val is not None}
    cfg = (config_from_file(args.config, given, fallback_suite=suite) if args.config
           else RunConfig(suite=suite, **given))
    if cfg.suite != suite:
        raise ConfigError(f"config names suite {cfg.suite!r} but the command asked for {suite!r}")
    command = f"verify {args.suite}" if args.suite else args.command
    for name in given:
        if command not in OPTIONS[name].reads:
            raise ConfigError(f"{command} does not read {OPTIONS[name].flag[0]}")
    if not args.suite and "out" in given and cfg.timeseries is not None:
        raise ConfigError(f"{command} writes one CSV, but --out and timeseries both name it")
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # an overflow is reported once, by the checks on amplitudes and
        # residuals, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.run(_collect_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonFiniteValue, OverflowError) as exc:  # OverflowError: a float power
        print(f"config error: a value overflowed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size that passed its checks but cannot be allocated
        print("config error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
