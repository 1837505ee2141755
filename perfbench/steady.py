#!/usr/bin/env python3
"""Steadiness check of the repository benchmark: run each workload with
seeds 1-10, as BENCHMARK.json's command, and report each end-to-end
metric's spread (interquartile range over median) against its bound.

    python3 perfbench/steady.py [--workloads a,b] [--against earlier.json]
                                [--out perfbench/STEADINESS.json]

Run from the root of a checkout. Exits 1 when a spread exceeds its
bound or when a median is worse than the one in the --against report by
more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--against", help="earlier report to compare medians with")
    parser.add_argument("--out")
    args = parser.parse_args()
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    if earlier is not None:
        report["earlier"] = earlier
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        provenance = None
        hosts = []
        for seed in SEEDS:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            path = os.path.join(".bench_build", "perfbench", "results",
                                f"{workload}-seed{seed}-trace0.result.json")
            with open(path) as f:
                provenance = json.load(f)["provenance"]
            hosts.append(provenance.pop("host"))
        rows = {}
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": v}
            flag = ""
            if spread > bounds[name]:
                ok, flag = False, "  OVER BOUND"
            elif spread > bounds[name] / 3:
                flag = "  over a third of the bound"
            if earlier is not None and workload in earlier["workloads"]:
                before = earlier["workloads"][workload]["metrics"][name]["median"]
                worse = (before - med if better[name] == "higher" else med - before) / before
                rows[name]["worse_than_earlier"] = worse
                flag += f"  worse than earlier by {worse:+.4f}"
                if worse > bounds[name]:
                    ok, flag = False, flag + " OVER BOUND"
            print(f"{workload:16s} {name:22s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]}{flag}")
        provenance.pop("seed", None)
        provenance.pop("samples", None)
        report["workloads"][workload] = {
            "seeds": list(SEEDS),
            "provenance": provenance, "host_per_run": hosts, "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
