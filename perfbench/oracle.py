"""Output oracle: decides whether one amwave invocation produced the right
outputs.  Each check returns a list of problems; an empty list is a pass.

The expectations come from amwave's documented contract (README "Report
format" and "Time-series format"), not from a previous run:

* every suite exits 0 and fails no item, except ``exact`` and ``full``,
  whose generic noncommuting families fail exactly the two items named in
  ``EXPECTED_FAILURES`` in every trial and exit 1;
* ``summary.total`` is trials x items per trial, plus the constant items
  of ``su3``;
* a report written with the default worker count and one written with
  ``AMWAVE_THREADS=1`` are byte-identical;
* an export exits 0 and writes a header plus ``steps`` data rows.
"""

from __future__ import annotations

import csv
import io
import json
import math

ITEMS_PER_TRIAL = {
    "wca": 6, "zca": 18, "exact": 8, "full": 4, "gauge": 2, "su3": 6,
    "boost": 8, "zitter": 4, "poynting": 3,
}
SU3_CONSTANT_ITEMS = 11
EXPECTED_FAILURES = {
    "exact": ("exact3_a_n_bracket", "exact8_phi_n_bracket"),
    "full": ("div_E", "ampere"),
}
CSV_HEADERS = {
    "zitter": ["t", "num_x", "num_y", "num_z",
               "closed_x", "closed_y", "closed_z", "abs_dev"],
    "poynting": ["t", "first", "mixed", "second", "running_avg"],
}


def expected_failing(suite: str, trials: int) -> set[str]:
    return {f"trial{i:03d}/{name}" for i in range(trials)
            for name in EXPECTED_FAILURES.get(suite, ())}


def check_verify(suite: str, trials: int, rc, body: bytes | None) -> list[str]:
    """Problems with one ``amwave verify`` exit code and report."""
    if body is None:
        return [f"{suite}: no report written (exit {rc})"]
    try:
        report = json.loads(body)
        items = report["items"]
        summary = report["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{suite}: unreadable report: {exc!r}"]
    problems = []
    want_fail = expected_failing(suite, trials)
    want_rc = 1 if want_fail else 0
    if rc != want_rc:
        problems.append(f"{suite}: exit code {rc}, expected {want_rc}")
    if report.get("suite") != suite:
        problems.append(f"{suite}: report names suite {report.get('suite')!r}")
    total = trials * ITEMS_PER_TRIAL[suite] + (SU3_CONSTANT_ITEMS if suite == "su3" else 0)
    if len(items) != total or summary.get("total") != total:
        problems.append(f"{suite}: {len(items)} items, summary.total "
                        f"{summary.get('total')}, expected {total}")
    failing = set()
    for it in items:
        res, tol = it["residual"], it["tolerance"]
        if not (math.isfinite(res) and res >= 0.0) or it["pass"] != (res <= tol):
            problems.append(f"{suite}: item {it['name']} has residual {res!r}, "
                            f"tolerance {tol!r} and pass {it['pass']!r}")
        if not it["pass"]:
            failing.add(it["name"])
    if failing != want_fail:
        extra = sorted(failing - want_fail)[:4]
        missing = sorted(want_fail - failing)[:4]
        problems.append(f"{suite}: unexpected failing items {extra}, "
                        f"expected failures missing {missing}")
    if summary.get("failed") != len(failing) or summary.get("overall_pass") != (not failing):
        problems.append(f"{suite}: summary {summary} disagrees with the items")
    return problems


def check_identical(label: str, first: bytes | None, second: bytes | None) -> list[str]:
    """Two runs of one argv (another worker count, or traced) must write
    the same bytes."""
    if first is None or second is None or first != second:
        return [f"{label}: output differs from the first run of the same argv"]
    return []


def check_export(kind: str, rows: int, rc, body: bytes | None) -> list[str]:
    """Problems with one ``amwave zitter`` / ``amwave poynting`` export."""
    if rc != 0:
        return [f"{kind} export: exit code {rc}, expected 0"]
    if body is None:
        return [f"{kind} export: no CSV written"]
    table = list(csv.reader(io.StringIO(body.decode())))
    problems = []
    if not table or table[0] != CSV_HEADERS[kind]:
        problems.append(f"{kind} export: header {table[:1]}")
    data = table[1:]
    if len(data) != rows:
        problems.append(f"{kind} export: {len(data)} data rows, expected {rows}")
    width = len(CSV_HEADERS[kind])
    if any(len(row) != width for row in data):
        problems.append(f"{kind} export: a row does not have {width} columns")
    return problems


def trial_worst_residuals(report: dict) -> list[float]:
    """Each trial's largest residual among the items expected to pass.

    Items without a ``trialNNN/`` prefix (the SU(3) constants) count as one
    more trial.
    """
    fail_names = set(EXPECTED_FAILURES.get(report["suite"], ()))
    worst: dict[str, float] = {}
    for it in report["items"]:
        name = it["name"]
        if name.rpartition("/")[2] in fail_names:
            continue
        group = name.partition("/")[0] if name.startswith("trial") else ""
        worst[group] = max(worst.get(group, 0.0), it["residual"])
    return list(worst.values())
