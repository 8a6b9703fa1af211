#!/usr/bin/env python3
"""Build bench_serving (and the plan_server it drives) from source, then run it.

    python3 bench/serving/run.py --workload hot-zipf --seed 1 --seconds 15 --trace 0
    python3 bench/serving/run.py --workload all --seed 1
    python3 bench/serving/run.py --workload mixed --repeat 10 [--seed 1] [--trace 0]

Every argument except --repeat is passed to bench_serving unchanged. The
build lives in .bench_build/serving at the root of the checkout; the first
run configures and compiles it, later runs only rebuild what changed.

--repeat K runs K times with seeds seed, seed+1, ... and prints, per
workload and metric, the median, the quartiles and the spread (quartile
distance over median). A metric whose spread exceeds its bound in
BENCHMARK.json is flagged: lengthen the workload, do not widen the bound.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "serving")


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("bench_serving: build failed: " + " ".join(step))
    return os.path.join(BUILD, "bench_serving")


def option(args, name, default):
    return args[args.index(name) + 1] if name in args and args.index(name) + 1 < len(args) else default


def with_option(args, name, value):
    if name in args:
        args = list(args)
        args[args.index(name) + 1] = value
        return args
    return args + [name, value]


def repeat(binary, args, runs):
    """Runs K seeds and reports each metric's median, quartiles and spread."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    first_seed = int(option(args, "--seed", "1"))
    values = {}
    for i in range(runs):
        run_args = with_option(args, "--seed", str(first_seed + i))
        done = subprocess.run([binary] + run_args, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit("bench_serving: run %d failed with exit code %d" % (i, done.returncode))
        workload = None
        for line in done.stdout.splitlines():
            words = line.split()
            if line.startswith("{"):
                result = json.loads(line)
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name), []).append(metric["value"])
            elif len(words) >= 2 and not line.startswith("#"):
                workload = words[0]
        print("run %d/%d (seed %d) done" % (i + 1, runs, first_seed + i), file=sys.stderr)
    flagged = 0
    print("%-11s %-34s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for (workload, name), vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / abs(median) if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  EXCEEDS BOUND"
            flagged += 1
        elif bound is not None and spread > bound / 3:
            flag = "  (over a third of the bound)"
        print("%-11s %-34s %12.6g %12.6g %12.6g %8.4f %6s%s" %
              (workload, name, median, q1, q3, spread, "-" if bound is None else bound, flag))
    return 1 if flagged else 0


def main():
    args = sys.argv[1:]
    runs = None
    if "--repeat" in args:
        runs = int(option(args, "--repeat", "5"))
        index = args.index("--repeat")
        args = args[:index] + args[index + 2:]
    binary = build()
    if "--workdir" not in args:
        # Relative, so the socket path stays under the 108-byte AF_UNIX limit
        # however deep the checkout lives.
        args += ["--workdir", os.path.relpath(BUILD)]
    if runs is not None:
        return repeat(binary, args, runs)
    sys.stdout.flush()
    os.execv(binary, [binary] + args)  # signals reach bench_serving directly


if __name__ == "__main__":
    sys.exit(main())
