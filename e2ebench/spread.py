#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 e2ebench/spread.py --workload daemon_stdio --seeds 1-5 [--trace 0]

For every metric it prints the median over the seeds and the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of that median, next to the bound from BENCHMARK.json, and the
same spread before the host-speed calibration (the report line's `raw`
values). A spread under a third of the bound is steady enough to gate
on.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", type=seeds)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values, raws = {}, {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        raw = json.loads(lines[-2]).get("raw", {})
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in raw.items():
            raws.setdefault(name, []).append(v)
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}", file=sys.stderr)
    print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound':>6} {'raw spread':>10}")
    for name, vs in values.items():
        med, spread = median_spread(vs)
        raw = f"{median_spread(raws[name])[1]:10.4f}" if name in raws else ""
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of the bound"
        print(f"{name:40} {med:14.4f} {spread:8.4f} {bound if bound is not None else '':>6} {raw}{flag}")
        print("    " + " ".join(f"{v:.4g}" for v in vs))


def median_spread(vs):
    """The median and the interquartile distance as a share of it."""
    med = statistics.median(vs)
    q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
    return med, (q[2] - q[0]) / med if med else float("nan")


if __name__ == "__main__":
    main()
