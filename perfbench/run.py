#!/usr/bin/env python3
"""Entry point of the repository benchmark (BENCHMARK.json).

    python3 perfbench/run.py --workload des-deep --seed 1 --seconds 10 --trace 0

Builds perfbench/ -- and the library it links, from this checkout's
sources -- into .perfbench/build as a Release build, runs one workload and
prints the binary's report, then one JSON result object as the last line
of standard output.  With --trace 0 the result carries the end-to-end
metrics, with --trace 1 the per-layer ones.  The binary reports what it
measured by name; this script attaches the units BENCHMARK.json gives,
reads a per-layer metric the workload never enters as 0, and marks the
run incorrect when an end-to-end metric is missing.

Exit codes: 0 with a result (which may still say "correct": false),
2 for a usage error, 1 when no result could be produced (no library
sources, build failure, crash, timeout, a metric BENCHMARK.json does not
list, ledger.json out of step with BENCHMARK.json).
"""
import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench"  # relative to ROOT; listed in .gitignore
BUILD = os.path.join(ROOT, OUT_DIR, "build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("des-deep", "des-wide", "campaign", "paper-figures")
OPTIONS = ("--workload", "--seed", "--seconds", "--trace")
# The first run in a checkout compiles the library and may take 900 s;
# every later run must end within 180 s.  Both leave a margin.
FIRST_RUN_BUDGET_S = 880
RUN_BUDGET_S = 170


class Failure(Exception):
    """No result can be produced."""


def decimal(lo, hi):
    """argparse type: a plain decimal integer in [lo, hi] (no sign, no
    underscores, no spaces -- int() alone accepts all three)."""

    def parse(text):
        if not re.fullmatch(r"[0-9]+", text):
            raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is outside [{lo}, {hi}]")
        return value

    return parse


def parse_args(argv):
    """Strict: an unknown, repeated or missing option, or a malformed
    number, is a usage error, so a typo cannot benchmark another workload."""
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=decimal(0, 2**64 - 1))
    parser.add_argument("--seconds", required=True, type=decimal(1, 3600))
    parser.add_argument("--trace", required=True, type=decimal(0, 1))
    for option in OPTIONS:
        if sum(a == option or a.startswith(option + "=") for a in argv) > 1:
            parser.error(f"{option} given more than once")
    return parser.parse_args(argv)


def load_spec():
    """BENCHMARK.json, after checking that ledger.json records, for every
    per-layer metric, what it should move."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "ledger.json"), encoding="utf-8") as f:
        ledger = json.load(f)
    if set(ledger["per_layer"]) != {m["name"] for m in spec["per_layer"]}:
        raise Failure("ledger.json's per_layer entries differ from BENCHMARK.json's")
    return spec


def call(cmd, timeout_s, capture):
    """Run `cmd` in its own process group from the checkout root; on a
    timeout kill the whole group and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failure(f"{os.path.basename(cmd[0])} timed out after {timeout_s:.0f} s")
    return proc.returncode, out


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Failure("no library sources in this checkout (src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        rc, _ = call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                     deadline - time.monotonic(), capture=False)
        if rc != 0:
            raise Failure(f"cmake configure failed (exit {rc})")
    rc, _ = call(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
                 deadline - time.monotonic(), capture=False)
    if rc != 0:
        raise Failure(f"build failed (exit {rc})")


def result(raw, spec, trace):
    """The binary's {"correct", "attempted", "failed", "metrics": {name:
    value}} as the result contract wants it: every metric of this mode's
    BENCHMARK.json list, in its order, with its unit."""
    if not isinstance(raw, dict) or set(raw) != {"correct", "attempted", "failed", "metrics"}:
        raise Failure("the binary's result has the wrong keys")
    if not isinstance(raw["correct"], bool):
        raise Failure("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if isinstance(raw[key], bool) or not isinstance(raw[key], int) or raw[key] < 0:
            raise Failure(f"'{key}' is not a whole number")
    if raw["attempted"] < 1:
        raise Failure("nothing was attempted")
    listed = spec["per_layer" if trace else "end_to_end"]
    measured = raw["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in listed})
    if unknown:
        raise Failure("metrics BENCHMARK.json does not list: " + ", ".join(unknown))
    correct = raw["correct"]
    metrics = {}
    for m in listed:
        value = measured.get(m["name"])
        if value is None:
            if not trace:
                print(f"perfbench/run.py: {m['name']} was not measured", file=sys.stderr)
                correct = False
            value = 0  # a layer this workload never enters
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise Failure(f"metric {m['name']} is not a number")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def main(argv):
    args = parse_args(argv)
    start = time.monotonic()
    first_run = not os.path.isfile(BINARY)
    deadline = start + (FIRST_RUN_BUDGET_S if first_run else RUN_BUDGET_S)
    try:
        spec = load_spec()
        build(deadline)
        cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}", f"--out-dir={OUT_DIR}"]
        rc, out = call(cmd, deadline - time.monotonic(), capture=True)
        lines = out.decode("utf-8", errors="replace").rstrip("\n").split("\n")
        if rc != 0:
            sys.stderr.write("\n".join(lines) + "\n")
            raise Failure(f"perfbench exited with {rc}")
        try:
            raw = json.loads(lines[-1])
        except json.JSONDecodeError:
            raise Failure("the last line of perfbench's output is not a JSON object")
        final = result(raw, spec, args.trace == 1)
    except Failure as e:
        print(f"perfbench/run.py: {e}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
