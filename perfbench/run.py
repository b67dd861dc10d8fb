#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ against this checkout's
sources, runs one workload and checks its outputs.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads, metrics and the correctness gate are described in
perfbench/WORKLOADS.md. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics. The
exit status is non-zero when the build fails, a correctness check fails,
or the metrics are not exactly the ones BENCHMARK.json declares.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = os.path.join(".bench_build", "work")
# Upper bound on one measured run; the build before it is not counted.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds only the library and the benchmark."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("run from the repository root: CMakeLists.txt and src/ are missing")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def declared_metrics(trace):
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    """Returns the parsed result line, or None if it breaks the contract."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log("the last output line is not JSON")
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"unexpected result keys {sorted(result)}")
        return None
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        log(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, or a unit differs")
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["sweep", "resweep", "big_graph"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own tests instead")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        return 2
    work = os.path.join(WORK_ROOT, f"{args.workload or 'smoke'}-{os.getpid()}")
    cmd = [binary, "--data", "perfbench", "--work", work]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        # On timeout, subprocess.run kills the child and waits for it.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"no result within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if args.smoke or not lines or not lines[-1].startswith("{"):
        print(proc.stdout, end="")
        return proc.returncode or (0 if args.smoke else 1)
    print("\n".join(lines[:-1]))
    result = check_result(lines[-1], args.trace == 1)
    if result is None:
        return 1
    print(lines[-1], flush=True)
    if proc.returncode:
        return proc.returncode
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
