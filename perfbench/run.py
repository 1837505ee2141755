#!/usr/bin/env python3
"""Repository benchmark: build the driver from the checkout's sources, run
one workload through core::Server, check every output and print the
metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. --trace 0 prints the end-to-end metrics
of BENCHMARK.json, --trace 1 the per-layer ones. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit codes: 0 correct, 1 a wrong output, 2 the benchmark itself failed.
The build lives in .bench_build/perfbench, the raw result of every run
(with its provenance) in .bench_build/perfbench/results. See
perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import analysis  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
WORKLOADS = ("serve_vgg", "stream_dvs", "sim_resnet", "sim_resnet_exit")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no repository sources next to {HERE}")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed")
    return os.path.join(BUILD, "perfbench_driver")


def git_sha():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    driver = build()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    raw_path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.raw.json")
    if os.path.exists(raw_path):
        os.remove(raw_path)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", raw_path]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    if not os.path.exists(raw_path):
        fail(f"driver exited with {proc.returncode} and wrote no result")
    with open(raw_path) as f:
        raw = json.load(f)

    try:
        if args.trace:
            metrics, samples = analysis.per_layer(raw), {}
            host = [analysis.host(s) for s in raw["sections"]]
        else:
            metrics, samples, host = analysis.end_to_end(raw)
    except ValueError as e:  # too few samples for a reported percentile
        fail(str(e))
    provenance = dict(raw["provenance"], git_sha=git_sha(), seed=args.seed,
                      seconds=args.seconds, samples=samples, host=host)
    result = {
        "correct": proc.returncode == 0 and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(raw_path.replace(".raw.json", ".result.json"), "w") as f:
        json.dump(dict(result, provenance=provenance), f, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in provenance.items() if k != "samples"))
    for name, (value, unit) in metrics.items():
        note = f"  (of {samples[name]} samples)" if name in samples else ""
        print(f"{name:36s} {value:16.6g} {unit}{note}")
    print(json.dumps(result))
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
