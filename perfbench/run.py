#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

The binary is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. The last line of
standard output is the binary's JSON result. With --trace 1 the spans of
the traced run are written next to the build as
trace-<workload>-<seed>.json.

An end-to-end run (--trace 0) splits --seconds over CHILDREN perfbench
processes run one after another and merges their results: host_s is the
median over them, setup_s the minimum (each process starts cold),
peak_rss_mib the largest peak, and modeled_gtuples_per_s must agree
bit-exactly. A whole process can run slow on a shared host, so several
processes are steadier than one (see README.md).

--self-test runs every workload against deliberately corrupted reference
values and exits 0 only if each run reports correct = false and names every
corrupted value in a failed check.
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
WORKLOADS = ("triton_ooc", "checked_joins", "serve_mix")
# The binary must finish within this many seconds; a hung run is killed.
RUN_TIMEOUT_S = 170
# Exit code of a perfbench run whose outputs failed a check.
EXIT_INCORRECT = 3
# perfbench processes per end-to-end run.
CHILDREN = 3


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(root):
        root = os.path.join(ROOT, root)
    return os.path.join(root, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "triton_join.cc")):
        sys.exit("perfbench: simulator sources not found under "
                 f"{os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def binary_env():
    # Pin the simulator's environment switches to their defaults so the
    # caller's shell cannot change what is measured.
    env = dict(os.environ)
    env["TRITON_SANITIZER"] = "0"
    for name in ("TRITON_FASTPATH", "TRITON_THREADS"):
        env.pop(name, None)
    return env


def run_binary(exe, argv, capture, capture_err=False):
    """Runs the binary; returns (exit code, stdout or None, stderr or None)."""
    try:
        proc = subprocess.run(
            [exe] + argv, env=binary_env(), cwd=ROOT, timeout=RUN_TIMEOUT_S,
            text=True, stdout=subprocess.PIPE if capture else None,
            stderr=subprocess.PIPE if capture_err else None)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print(f"perfbench: binary exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, None, None
    return proc.returncode, proc.stdout, proc.stderr


def self_test(exe):
    ok = True
    for workload in WORKLOADS:
        code, out, err = run_binary(
            exe, ["--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", "0", "--corrupt-reference"],
            capture=True, capture_err=True)
        lines = (out or "").strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        err_lines = (err or "").splitlines()
        corrupted = [l[len("CORRUPTED: "):] for l in err_lines
                     if l.startswith("CORRUPTED: ")]
        failed = [l[len("CHECK FAILED: "):] for l in err_lines
                  if l.startswith("CHECK FAILED: ")]
        missed = [c for c in corrupted
                  if not any(f.startswith(c + ":") for f in failed)]
        caught = (code == EXIT_INCORRECT and result.get("correct") is False
                  and bool(corrupted) and not missed)
        print(f"self-test {workload}: {len(corrupted)} corrupted reference "
              f"value(s), {'all' if caught else 'NOT all'} detected "
              f"(exit {code})")
        for c in corrupted:
            print(f"  {c}: {'missed' if c in missed else 'reported'}")
        ok = ok and caught
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_test and (args.seed < 0 or args.seconds <= 0):
        parser.error("--seed must be >= 0 and --seconds > 0")

    exe = build()
    if args.self_test:
        return self_test(exe)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace)]
    if args.trace:
        argv += ["--seconds", str(args.seconds), "--trace-out", os.path.join(
            build_dir(), f"trace-{args.workload}-{args.seed}.json")]
        code, _, _ = run_binary(exe, argv, capture=False)
        return code
    return end_to_end(exe, argv + ["--seconds",
                                   repr(args.seconds / CHILDREN)])


def end_to_end(exe, argv):
    results = []
    code = 0
    for _ in range(CHILDREN):
        child_code, out, _ = run_binary(exe, argv, capture=True)
        lines = (out or "").strip().splitlines()
        for line in lines[:-1]:
            print(line, file=sys.stderr)
        if child_code not in (0, EXIT_INCORRECT) or not lines:
            return child_code or 1
        code = max(code, child_code)
        results.append(json.loads(lines[-1]))

    def values(name):
        return [r["metrics"][name]["value"] for r in results]

    modeled = values("modeled_gtuples_per_s")
    correct = all(r["correct"] for r in results)
    if len(set(modeled)) != 1:
        print("perfbench: modeled throughput differs between processes: "
              f"{modeled}", file=sys.stderr)
        correct = False
        code = EXIT_INCORRECT
    merged = dict(results[0]["metrics"])
    for name, pick in (("host_s", statistics.median), ("setup_s", min),
                       ("peak_rss_mib", max)):
        merged[name] = dict(merged[name], value=pick(values(name)))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": merged,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
