#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarize the spread.

Usage (from the repository root):

    python3 perfbench/repeat.py --seeds 0-9 [--workloads table1,corridor_hard]
                                [--trace 0] [--out summary.json]

Each run is `run.py --workload W --seed S --seconds <run_seconds of
BENCHMARK.json> --trace T`, one per seed. For every metric this prints the
median over the runs, the quartiles as statistics.quantiles(values, n=4)
gives them, and the spread (q3 - q1) / median, flagged when it exceeds the
metric's bound in BENCHMARK.json. --out writes the same summary as JSON.
Exit code 1 when any run fails its checks or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    opts = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    ok = True
    for workload in opts.workloads.split(","):
        values = {}
        units = {}
        for seed in seed_list(opts.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", opts.trace]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if done.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"== {workload}")
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not spread <= bound:
                flag = "  OVER BOUND"
                ok = False
            print(f"  {name:36s} {med:12.6g} {units[name]:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"n {len(vals)} spread {spread:.3f}{flag}")
            summary[workload][name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                                       "runs": len(vals), "spread": spread, "values": vals}
        sys.stdout.flush()
    if opts.out:
        Path(opts.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
