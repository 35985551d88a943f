"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 --trace-seeds 1,2 --out perfbench/baseline.json

For every workload it runs ``run.py`` once per seed, one process at a
time, and records each end-to-end metric's median, quartiles and spread.
The spread is the quartile distance as a share of the median, the figure
``BENCHMARK.json`` bounds.  Traced runs are recorded per seed, so repeated
counts can be compared.  The JSON summary goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = next(json.loads(line[len("provenance: "):])
                                for line in lines if line.startswith("provenance: "))
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                     "bound": bounds.get(name), "values": values}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, bench["run_seconds"], 0) for s in _seeds(args.seeds)]
        traced = {s: run_once(workload, s, bench["run_seconds"], 1)
                  for s in _seeds(args.trace_seeds)}
        summary["provenance"] = runs[0]["provenance"]
        summary["workloads"][workload] = {
            "seeds": _seeds(args.seeds),
            "all_correct": all(r["correct"] for r in runs + list(traced.values())),
            "wall_s": [r["wall_s"] for r in runs],
            "end_to_end": summarise(runs, bounds),
            "traced": {str(s): {k: v["value"] for k, v in r["metrics"].items()}
                       for s, r in traced.items()},
        }
        for name, m in summary["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {m['median']:.6g} {m['unit']}, "
                  f"spread {m['spread']:.3f} (bound {m['bound']})", flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
