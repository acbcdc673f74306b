#!/usr/bin/env python3
"""End-to-end scheduler benchmark: build, then run one or all workloads.

Run from the repository root:

    python3 schedbench/run.py --workload search-deepq --seed 42 --seconds 40 --trace 0
    python3 schedbench/run.py --workload all

The benchmark program (schedbench/main.ml) is built from source with
dune in the release profile into .bench_build/, then run once per
workload.  Its last line of standard output is the JSON result; with
--workload all a summary table of every workload follows.  The exit
status is non-zero when the build fails, a run fails, or a schedule
fails validation.  See schedbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "schedbench", "main.exe")
WORKLOADS = ["search-deepq", "backfill-long"]
RUN_TIMEOUT_S = 170


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def build():
    dune = dune_command()
    if dune is None:
        print("schedbench: dune not found on PATH", file=sys.stderr)
        return False
    # The dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune + [
        "build", "--root", ".", "--profile", "release",
        "--build-dir", BUILD_DIR, "./schedbench/main.exe",
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.exists(EXE)


def run_one(workload, seed, seconds, trace):
    """Run one workload: (exit code, last-line JSON or None, output lines)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"schedbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None, []
    lines = done.stdout.splitlines()
    result = None
    if done.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return done.returncode, result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("schedbench: build failed", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    status = 0
    for name in names:
        code, result, lines = run_one(name, args.seed, args.seconds,
                                      args.trace)
        if code != 0 or result is None:
            # A failed run prints its diagnostics but never a result line.
            for line in lines:
                if not line.startswith("{"):
                    print(line)
            print(f"schedbench: {name} failed (exit {code})",
                  file=sys.stderr)
            status = code or 1
            continue
        for line in lines[:-1]:
            print(line)
        results[name] = result
        if args.workload != "all":
            print(lines[-1])

    if args.workload == "all" and results:
        metrics = list(next(iter(results.values()))["metrics"])
        print()
        print(f"{'metric':34} {'unit':10}" +
              "".join(f" {n:>16}" for n in results))
        for m in metrics:
            unit = next(iter(results.values()))["metrics"][m]["unit"]
            print(f"{m:34} {unit:10}" + "".join(
                f" {r['metrics'][m]['value']:16.6g}" for r in results.values()))
    return status


if __name__ == "__main__":
    sys.exit(main())
