"""Run every workload over several seeds and summarize the metrics.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline.json

Each run is a fresh `run.py` process. For every end-to-end metric the
summary holds the median, the quartiles from statistics.quantiles(n=4)
and the spread (q3 - q1) / median; one traced run per workload (first
seed) gives the per-layer values. Spreads above the metric's bound in
BENCHMARK.json, or above a third of it, are flagged in the printout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh process; returns its report file."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}-full.json").read_text())


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Run every workload over several seeds.")
    ap.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 1,5,9")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        reports = [run(workload, seed, args.seconds, 0) for seed in seeds]
        out["env"] = reports[0]["env"]
        e2e = {}
        for name, m in reports[0]["metrics"].items():
            e2e[name] = {"unit": m["unit"], "better": m["better"],
                         **summarize([r["metrics"][name]["value"] for r in reports])}
        traced = run(workload, seeds[0], args.seconds, 1)
        out["workloads"][workload] = {"end_to_end": e2e, "per_layer": traced["metrics"]}
        for name, s in e2e.items():
            flag = ""
            if name in bounds and name != "setup_s":
                flag = "  OVER BOUND" if s["spread"] > bounds[name] else (
                    "  over a third of bound" if s["spread"] > bounds[name] / 3 else "")
            print(f"{workload:14} {name:24} median {s['median']:12.6g} {s['unit']:12} spread {s['spread']:.3f}{flag}")
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
