"""Determinism gate: sha256 of the report body for a fixed set of runs.

Prints one line per configuration, ``<sha256>  <label>``, for 21 runs:
all nine suites at seeds 1 and 42 with 25 trials (poynting: 3 trials,
200 samples), plus wca/zca/exact at seed 7 with the su3_gellmann
generator.  The hashed body is exactly what ``amwave verify --out``
writes.  A refactor that promises byte-identical reports runs this
against the old and the new source tree and compares the output:

    PYTHONPATH=src python tools/report_hashes.py > new.txt
    PYTHONPATH=/path/to/old/checkout/src python tools/report_hashes.py > old.txt
    diff old.txt new.txt

Run it once with AMWAVE_THREADS=1 and once at the default worker count;
reports must not depend on either.
"""

from __future__ import annotations

import hashlib
import json
import sys

from amwave.cli import SUITES, RunConfig, run_suite


def configs():
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


def main() -> int:
    import amwave
    print(f"# amwave from {amwave.__file__}", file=sys.stderr)
    for label, cfg in configs():
        body = json.dumps(run_suite(cfg), indent=2) + "\n"
        print(f"{hashlib.sha256(body.encode()).hexdigest()}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
