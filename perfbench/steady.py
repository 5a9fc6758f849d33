#!/usr/bin/env python3
"""Steadiness check: runs the benchmark under several seeds, in several
interleaved sets of the same seeds, and reports for every end-to-end metric
of every workload each set's median and interquartile spread as a share of
the median (the statistic BENCHMARK.json's bounds apply to), and how far
each later set's median moved from the first's.

    python3 perfbench/steady.py [--workloads fleet_chaos,campaigns_stream]
        [--seeds 1-10] [--sets 2] [--seconds 40] [--log runs.jsonl]

Run from the repository root. Uses the command and run length from
BENCHMARK.json unless --seconds overrides the latter. Runs go seed by seed,
and within a seed workload by workload and set by set, so host drift
reaches every set alike. Each run's host-contention line is printed beside
its figures.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--log")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in bench["workloads"]]
    )
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    # values[workload][set][metric] -> one value per seed
    values = {
        w: [{name: [] for name in bounds} for _ in range(args.sets)]
        for w in workloads
    }
    log = open(args.log, "a") if args.log else None
    for seed in seeds_of(args.seeds):
        for workload in workloads:
            for s in range(args.sets):
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0",
                ]
                out = subprocess.run(cmd, capture_output=True, text=True)
                if out.returncode != 0:
                    sys.exit(
                        f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}"
                    )
                lines = out.stdout.strip().splitlines()
                host = next((l for l in lines if l.startswith("host:")), "host: n/a")
                result = json.loads(lines[-1])
                metrics = {n: result["metrics"][n]["value"] for n in bounds}
                for name, value in metrics.items():
                    values[workload][s][name].append(value)
                if log:
                    log.write(json.dumps({
                        "workload": workload, "seed": seed, "set": s,
                        "metrics": metrics, "host": host,
                    }) + "\n")
                    log.flush()
                shown = " ".join(f"{n}={v:.5g}" for n, v in metrics.items())
                print(f"{workload} seed {seed} set {s}: {shown} | {host}", flush=True)
    for workload in workloads:
        print(f"\n{workload}")
        print(f"{'metric':<24} {'set':>3} {'median':>12} {'spread':>8} "
              f"{'shift':>8} {'bound':>6}")
        for name in bounds:
            first = None
            for s in range(args.sets):
                vals = values[workload][s][name]
                if len(vals) < 2:
                    continue
                med, spr = spread(vals)
                first = med if first is None else first
                shift = (med - first) / first if first else 0.0
                flag = ""
                if spr >= bounds[name] or abs(shift) >= bounds[name]:
                    flag = "  <- outside the bound"
                elif spr >= bounds[name] / 3:
                    flag = "  <- above a third of the bound"
                print(f"{name:<24} {s:>3} {med:>12.5g} {spr:>8.4f} "
                      f"{shift:>+8.4f} {bounds[name]:>6}{flag}")


if __name__ == "__main__":
    main()
