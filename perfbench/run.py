#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from this checkout's sources (Release, under
.bench_build/perfbench), runs one workload in its own process, and prints the
binary's informational lines followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics BENCHMARK.json names; with --trace 1 they are its
per-layer metrics (a layer idle on the workload reads 0).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no gpumem sources next to perfbench/ (expected src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *gen,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--inject-mismatch", choices=["0", "1"], default="0",
                    help="self-check: perturb every expected MEM set")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        die(f"build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--inject-mismatch", args.inject_mismatch]
    # Two malloc arenas: with glibc's default of one per thread, which
    # threads happen to race for an arena moves peak RSS by up to 30%
    # between identical runs; capped, it measures the program's memory.
    env = dict(os.environ, MALLOC_ARENA_MAX="2")
    try:
        proc = subprocess.run(cmd, cwd=BUILD, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    reports = [l for l in lines if l.startswith("REPORT ")]
    for line in lines:
        if not line.startswith("REPORT "):
            print(line)
    if proc.returncode != 0 or not reports:
        die(f"{args.workload} exited with code {proc.returncode}")
    report = json.loads(reports[-1][len("REPORT "):])

    measured = report["metrics"]
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], {"value": 0.0})["value"]
        if args.trace == "0" and not value > 0:
            die(f"end-to-end metric {m['name']} missing or not positive")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    names = {m["name"] for m in wanted}
    rest = {k: v["value"] for k, v in measured.items() if k not in names}
    print("# other measured values: " + json.dumps(rest, sort_keys=True))
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
