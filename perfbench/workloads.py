"""The benchmark's workloads: the argv each one feeds to ``amwave.cli.main``.

A workload is an endless sequence of rounds.  Round ``r`` of workload
``w`` at benchmark seed ``s`` is built from ``random.Random("w/s/r")``,
so the same seed always gives the same argv, and amwave sees nothing but
that argv.  The report and CSV paths are appended when an invocation runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("conditions", "frames", "quadrature")

CONDITION_SUITES = ("wca", "zca", "exact", "full", "gauge", "su3")

# amwave's default time-series length
DEFAULT_STEPS = 1000

# Trials, export lengths and quadrature samples for the measured size and
# for the tiny size the self-tests use.  The measured poynting export
# passes no flags, so it runs at amwave's defaults.
SIZES = {
    "full": {"trials": 100, "steps": 2000, "conditions_steps": 200,
             "quad_samples": 1000, "poynting_export": (), "poynting_rows": DEFAULT_STEPS},
    "tiny": {"trials": 2, "steps": 20, "conditions_steps": 10, "quad_samples": 20,
             "poynting_export": ("--samples", "20", "--steps", "20"), "poynting_rows": 20},
}


@dataclass(frozen=True)
class Invocation:
    """One call of ``amwave.cli.main``.

    ``kind`` is ``"verify"`` (a JSON report; ``suite`` and ``trials`` say
    what the oracle expects) or ``"zitter"`` / ``"poynting"`` (a CSV
    export with ``rows`` data rows).
    """

    kind: str
    argv: tuple[str, ...]
    suite: str | None = None
    trials: int = 0
    rows: int = 0


def _verify(suite: str, trials: int, seed: int, *extra: str) -> Invocation:
    argv = ("verify", suite, "--trials", str(trials), "--seed", str(seed)) + extra
    return Invocation("verify", argv, suite=suite, trials=trials)


def _zitter_export(rng: random.Random, pair: str, steps: int) -> Invocation:
    # pz is kept at 0.2 or more, clear of the -z polar singularity
    p = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.2))
    theta = rng.uniform(0.05, 1.5)
    # "--momentum=..." keeps a leading minus sign from reading as a flag
    argv = ("zitter", "--pair", pair, "--theta", repr(theta),
            "--momentum=" + ",".join(repr(x) for x in p), "--steps", str(steps))
    return Invocation("zitter", argv, rows=steps)


# Exports are spread between the verify invocations, so that their timing
# samples the same stretch of a machine whose speed drifts as the verify
# timing does, instead of one moment of it.

def _conditions(rng: random.Random, size: dict) -> list[Invocation]:
    seed = rng.randrange(2 ** 31)
    calls = []
    for suite in CONDITION_SUITES:
        calls.append(_verify(suite, size["trials"], seed))
        # short exports, so this workload reports timeseries_rows_per_s like
        # the others; together they are under a tenth of a round
        calls.append(_zitter_export(rng, "1,3", size["conditions_steps"]))
    return calls


def _frames(rng: random.Random, size: dict) -> list[Invocation]:
    seed = rng.randrange(2 ** 31)
    return [
        _verify("boost", size["trials"], seed),
        _zitter_export(rng, "1,4", size["steps"]),
        _verify("zitter", size["trials"], seed),
        _zitter_export(rng, "1,3", size["steps"]),
    ]


# The poynting suite's cost does not depend on the drawn families, and two
# trials give no accuracy figure that is steady across seeds (the worst
# residual ranges over 0.06-1.6 eps).  So its verify always draws the same
# two families, which makes worst_residual_eps a like-for-like comparison
# between commits; the exports follow the seed.
QUADRATURE_VERIFY_SEED = 42


def _poynting_export(rng: random.Random, size: dict) -> Invocation:
    argv = ("poynting", "--seed", str(rng.randrange(2 ** 31))) + size["poynting_export"]
    return Invocation("poynting", argv, rows=size["poynting_rows"])


def _quadrature(rng: random.Random, size: dict) -> list[Invocation]:
    # Two trials, one spin-1/2 family and one spin-1 family.  The verify
    # takes 1000 samples, a tenth of the default, and runs twice a round:
    # at the default two workers one invocation's time varied by +-25%, so
    # a run needs many of them.  The exports keep the default 10000.
    verify = _verify("poynting", 2, QUADRATURE_VERIFY_SEED,
                     "--samples", str(size["quad_samples"]))
    return [_poynting_export(rng, size), verify, _poynting_export(rng, size), verify]


_BUILDERS = {"conditions": _conditions, "frames": _frames, "quadrature": _quadrature}


def workload_round(name: str, seed: int, index: int,
                   size: str = "full") -> list[Invocation]:
    """The invocations of round ``index`` of a workload."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; pick one of {WORKLOADS}")
    rng = random.Random(f"{name}/{seed}/{index}")
    return _BUILDERS[name](rng, SIZES[size])
