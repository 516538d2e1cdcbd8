#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form builds the fcbench library from src/ and the perfbench
binary (CMake, Release) under .perfbench/build, then runs one workload in
its own process. The binary's last stdout line is the result JSON.

--selftest runs every workload at a tiny size and checks that each
reports correct output, then plants three faults (a flipped byte in a
decompressed buffer, an acknowledged row dropped from the expected set, a
duplicated read-back row) and checks that each run reports incorrect
output.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(OUT, "build")
WORK = os.path.join(OUT, "work")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["codec-suite", "ingest-nosync", "ingest-fsync"]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no src/ next to perfbench/: nothing to build the program from")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_binary(args):
    """Runs the binary: (exit code, stdout, its last line parsed or None)."""
    proc = subprocess.run([BINARY, "--work-dir", WORK] + args,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, proc.stdout, result


def selftest():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = None
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
    cases = [(w, None, True, "0") for w in WORKLOADS] + [
        ("codec-suite", "flip", False, "0"),
        ("ingest-nosync", "drop", False, "0"),
        ("ingest-fsync", "dup", False, "0"),
        ("ingest-fsync", None, True, "1"),
    ]
    ok = True
    for workload, inject, want_correct, trace in cases:
        args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--tiny"]
        if inject:
            args += ["--inject", inject]
        code, _, result = run_binary(args)
        got = None if result is None else result.get("correct")
        passed = code == 0 and got is want_correct
        # The printed metrics must be exactly those BENCHMARK.json names.
        if passed and spec is not None:
            kind = "per_layer" if trace == "1" else "end_to_end"
            passed = list(result["metrics"]) == [m["name"] for m in spec[kind]]
        log("selftest %-14s trace=%s inject=%-5s correct=%s want=%s %s" % (
            workload, trace, inject or "none", got, want_correct,
            "ok" if passed else "FAILED"))
        ok = ok and passed
    log("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    if not build():
        return 1
    if argv == ["--selftest"]:
        return selftest()
    code, out, _ = run_binary(argv)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
