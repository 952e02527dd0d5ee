"""Run one workload many times, one fresh process per seed, and summarise.

    python3 perfbench/repeat.py --workload unet3d_train --runs 10
    python3 perfbench/repeat.py --workload cifcnn_subset --runs 10 --trace 1

Runs the command from BENCHMARK.json (run from the repository root) with
seeds first_seed .. first_seed+runs-1, sequentially. For every metric it
prints the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (Q3 - Q1) /
median, and, for end-to-end metrics, the spread as a share of the bound in
BENCHMARK.json. The raw results go to perfbench/results/<workload>-<tag>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarise(results, bounds):
    names = list(results[0]["metrics"])
    rows = []
    for name in names + ["wall_s"]:
        if name == "wall_s":
            values = [r["wall_s"] for r in results]
            unit = "s"
        else:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        share = f"{spread / bound:6.2f}" if bound else "     -"
        rows.append(f"{name:36s} {unit:13s} {med:12.5g} {q1:12.5g} "
                    f"{q3:12.5g} {spread:8.4f} {share}")
    header = (f"{'metric':36s} {'unit':13s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} /bound")
    return "\n".join([header] + rows)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tag", default="repeat")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        r = run_once(spec["command"], args.workload, seed, args.seconds,
                     args.trace)
        results.append(r)
        shown = {k: round(v["value"], 4) for k, v in r["metrics"].items()}
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']}"
              f" failed={r['failed']} wall={r['wall_s']:.1f}s {shown}",
              flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed_shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {args.runs} runs, {args.seconds} s each, "
          f"trace={args.trace}, all correct="
          f"{all(r['correct'] for r in results)}, failed shares "
          f"{sorted(failed_shares)}")
    print(summarise(results, bounds))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-{args.tag}.json"
    out.write_text(json.dumps(results, indent=1))
    print(f"raw results -> {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
