#!/usr/bin/env python3
"""Build and run the planning benchmark.

Run from the repository root:

    python3 planbench/run.py --workload train-cold --seed 1 --seconds 20 --trace 0
    python3 planbench/run.py steady --runs 10 [--workloads a,b] [--seconds 20]

The first form builds planbench/ (a Go module of its own that imports the
repository's packages through a relative replace directive) into
.bench_build/ and runs one measurement; its last stdout line is the JSON
result. Every Go cache and temporary file stays under .bench_build/.

The second form is the steadiness report: it runs each workload --runs
times, untraced, with seeds 1..N and prints, per metric, the median, the
quartiles (statistics.quantiles, n=4), the interquartile range and
(max-min) as shares of the median, host readings included. An end-to-end
metric whose (max-min)/median exceeds 0.10, or whose interquartile share
exceeds a third of its bound in BENCHMARK.json, is flagged.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "planbench")
WORKLOADS = ["train-cold", "serve-hot", "stream-paced", "elastic-churn"]
# A measurement must end within 180 s; the benchmark itself stops well
# before this, so the limit only catches a hung program.
RUN_TIMEOUT_S = 170
SPREAD_FLAG = 0.10


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache"), ("HOME", "home")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOENV="off", GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="-mod=mod", GOTELEMETRY="off")
    return env


def build():
    go = shutil.which("go")
    if go is None:
        sys.exit("planbench: the go toolchain is not on PATH")
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=go_env())
    if proc.returncode != 0:
        sys.exit("planbench: build failed (exit %d)" % proc.returncode)


def measure(workload, seed, seconds, trace, capture):
    """Runs the benchmark binary once; returns (exit code, stdout or None)."""
    cmd = [BINARY, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
           "-trace", str(trace), "-root", ROOT]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("planbench: %s seed %d timed out" % (workload, seed), file=sys.stderr)
        return 1, None
    return proc.returncode, (out.decode() if capture else None)


def bounds():
    """Maps each end-to-end metric of BENCHMARK.json to its bound."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steady(args):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    bound = bounds()
    flagged = []
    for wl in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            code, out = measure(wl, seed, args.seconds, 0, capture=True)
            if code != 0 or not out:
                print("%s seed %d: exit %d" % (wl, seed, code))
                flagged.append("%s: run with seed %d failed" % (wl, seed))
                continue
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # The environment line and the host gate's reading on the
            # details line show host drift next to the numbers.
            env = json.loads(lines[0]).get("env", {})
            for key in ("ref_ms", "parallelism"):
                values.setdefault("env." + key, []).append(env.get(key, 0.0))
            host = json.loads(lines[-2]).get("details", {}).get("host", {})
            for key in ("waited_s", "parallelism_before", "parallelism_after"):
                values.setdefault("host." + key, []).append(host.get(key, 0.0))
        print("== %s (%d runs, %gs each)" % (wl, args.runs, args.seconds))
        print("%-38s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "iqr%", "range%"))
        for name in sorted(values):
            xs = values[name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], xs[0], xs[0])
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(xs) - min(xs)) / med if med else 0.0
            mark = ""
            if name in bound:
                if rng > SPREAD_FLAG:
                    mark += " range>10%"
                b = bound.get(name)
                if b and name != "setup_s" and iqr > b / 3:
                    mark += " iqr>bound/3"
                if mark:
                    flagged.append("%s %s:%s" % (wl, name, mark))
            print("%-38s %12.4f %12.4f %12.4f %8.2f %8.2f%s" % (name, med, q1, q3, 100 * iqr, 100 * rng, mark))
        sys.stdout.flush()
    if flagged:
        print("flagged:")
        for f in flagged:
            print("  " + f)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        p = argparse.ArgumentParser(prog="run.py steady")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--workloads", default="")
        p.add_argument("--seconds", type=float, default=20)
        args = p.parse_args(sys.argv[2:])
        build()
        steady(args)
        return 0
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    build()
    code, _ = measure(args.workload, args.seed, args.seconds, args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
