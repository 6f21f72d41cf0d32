#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark executable is built
from source with dune into .bench_build/ (the dune cache is disabled,
so nothing is written outside the checkout), then run once; its
standard output is passed through, and its last line is the JSON
result. With --trace 1 the raw spans are written to
.bench_build/spans/<workload>-<seed>.tsv. BENCHMARK.json at the root
is the catalogue: the workload must be listed there, and the result
must carry exactly the metrics, with the units, that it lists for the
mode. Exits non-zero, without a result, when the checkout cannot be
built, the run fails or the result drifts from the catalogue.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840


def run_timeout_s(seconds):
    """A run takes the budget plus three set-ups, up to half a block
    more, the output checks and the pace probes, or the traced re-run:
    allow twice the budget on top of a fixed allowance (160 s at the
    catalogue's 30 s, inside the 180 s a run may take)."""
    return 100 + 2 * seconds


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "dune-project")):
        fail("no dune-project at %s: not a checkout of the repository" % root)
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            catalogue = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in catalogue["workloads"]]:
        fail("workload %r is not listed in BENCHMARK.json" % args.workload)
    build_dir = os.path.join(root, ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--build-dir", build_dir,
             "./perfbench/main.exe"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed")

    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, "%s-%d.tsv" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                             timeout=run_timeout_s(args.seconds))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    if run.returncode != 0:
        fail("benchmark exited with code %d" % run.returncode)
    out = run.stdout.decode()
    try:
        metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    except (IndexError, KeyError, ValueError) as e:
        fail("no JSON result on the last line: %s" % e)
    listed = catalogue["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    reported = {name: m["unit"] for name, m in metrics.items()}
    if reported != expected:
        fail("metrics drift from BENCHMARK.json: missing %s, unlisted %s, "
             "unit mismatch %s" % (
                 sorted(set(expected) - set(reported)),
                 sorted(set(reported) - set(expected)),
                 sorted(n for n in expected
                        if n in reported and reported[n] != expected[n])))
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
