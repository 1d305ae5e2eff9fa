#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload d_random64 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke             # every workload, tiny size
    python3 perfbench/run.py --update-digests    # re-record committed digests

Run from the repository root.  The benchmark is built from source into
.bench_build/perfbench (Release).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
DIGEST_DIR = os.path.join(HERE, "digests")
# The default seed and one held out while the benchmark was written.
DIGEST_SEEDS = (1, 977)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; a build only happens on a checkout's first run.
RUN_LIMIT_S = 150
BUILD_LIMIT_S = 700


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; a no-op when the binary is current."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_LIMIT_S)
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def source_id():
    """The git commit when the checkout is a repository, else a hash of the
    simulator sources and the benchmark."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_binary(args, timeout):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % timeout)
        return 1, []
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith("FAIL"):
            log(line)
    return proc.returncode, lines


def check_result(lines, spec, trace):
    """Parse the final JSON line and check its shape against BENCHMARK.json.
    Returns the result dict, or None with the reason logged."""
    if not lines:
        log("perfbench: no output")
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: last line is not JSON: " + lines[-1][:200])
        return None
    if set(result) != RESULT_KEYS:
        log("perfbench: result keys %s" % sorted(result))
        return None
    want = expected_metrics(spec, trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        log("perfbench: metrics differ from BENCHMARK.json: missing %s, "
            "extra %s, unit mismatch %s" % (missing, extra, units))
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DIGEST_SEEDS[0])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at a tiny size, both trace "
                         "modes, and check metric names")
    ap.add_argument("--update-digests", action="store_true",
                    help="re-record the committed digests (a declared "
                         "behaviour change only)")
    args = ap.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if not (args.smoke or args.update_digests) and args.workload not in workloads:
        log("perfbench: --workload must be one of %s" % workloads)
        return 2
    if not build():
        return 1
    commit = source_id()
    common = ["--digest-dir", DIGEST_DIR, "--commit", commit]

    if args.smoke:
        failures = 0
        for name in workloads:
            for trace in (0, 1):
                code, lines = run_binary(
                    ["--workload", name, "--seed", str(args.seed),
                     "--seconds", "0.2", "--trace", str(trace), "--smoke"]
                    + common, RUN_LIMIT_S)
                result = check_result(lines, spec, trace)
                ok = code == 0 and result is not None and result["correct"]
                failures += not ok
                log("smoke %-16s trace=%d %s" % (name, trace,
                                                 "ok" if ok else "FAIL"))
        print(json.dumps({"smoke": "ok" if failures == 0 else "failed",
                          "failures": failures}))
        return 0 if failures == 0 else 1

    if args.update_digests:
        os.makedirs(DIGEST_DIR, exist_ok=True)
        failures = 0
        for name in workloads:
            for seed in DIGEST_SEEDS:
                code, _ = run_binary(
                    ["--workload", name, "--seed", str(seed), "--seconds",
                     "0.1", "--trace", "1", "--write-digest"] + common,
                    RUN_LIMIT_S)
                failures += code != 0
        return 0 if failures == 0 else 1

    code, lines = run_binary(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)] + common,
        RUN_LIMIT_S)
    result = check_result(lines, spec, args.trace)
    if result is None:
        return 1
    for line in lines:
        print(line)
    return code if code != 0 or result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
