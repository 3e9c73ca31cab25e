#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

    python3 benchmark/repeat.py --workload snr_sweep --seeds 1-10 [--trace 1] [--out f.json]

Runs are sequential, one fresh process each.  For every metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the interquartile range
as a share of the median; per run it prints attempted/failed, whether the
gate passed and the elapsed time.  --out writes the same summary, with every
run, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results):
    names = results[0]["metrics"].keys()
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None,
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out")
    args = ap.parse_args()
    root = RUN.parent.parent
    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if not lines:
            sys.exit(f"seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
        res = json.loads(lines[-1])
        res["seed"], res["exit"], res["elapsed_s"] = seed, proc.returncode, round(elapsed, 1)
        res["counts"] = json.loads(lines[0].split(" ", 4)[4]) if lines[0].startswith("# workload=") else None
        results.append(res)
        print(f"seed {seed}: exit {proc.returncode} correct={res['correct']} "
              f"failed {res['failed']}/{res['attempted']} in {elapsed:.1f} s", flush=True)
    summary = summarise(results)
    for name, s in summary.items():
        share = "n/a" if s["iqr_share"] is None else f"{s['iqr_share']:.3f}"
        print(f"{name:40s} median {s['median']:12.6g} {s['unit']:6s} iqr/median {share}")
    if args.out:
        doc = {"workload": args.workload, "trace": int(args.trace), "seconds": args.seconds,
               "all_correct": all(r["correct"] for r in results), "summary": summary,
               "runs": results}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
