#!/usr/bin/env python3
"""Build and run the repository benchmark, then check its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the simulator libraries plus the ramp_perfbench binary)
into .bench_build/ (or $CARGO_TARGET_DIR); later calls rebuild only
what changed. ramp_perfbench repeats whole rounds of the workload for S
seconds and prints the digest of every simulated pass. This script
compares those digests with perfbench/reference/NAME.txt when the
seed is the reference seed (other seeds are labelled unchecked: the
binary still requires every round to reproduce the first one and every
pass to satisfy seed-independent invariants), and prints as its last
line one JSON object with the keys correct, attempted, failed and
metrics. `failed / attempted` is the pass failure fraction.

Extra flags: --jobs J (default min(4, nproc); above nproc is a usage
error), --reduced (test-sized inputs, never checked against the
reference), --write-reference (regenerate the reference file).

Exit codes: 0 result printed, 1 build or run failure, 2 usage error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_SEED = 1
WORKLOADS = ("static_sweep", "migration_storm", "tenant_service")
FLOAT_RTOL = 1e-9
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--reduced", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    nproc = os.cpu_count() or 1
    if args.jobs is None:
        args.jobs = min(4, nproc)
    if not 1 <= args.jobs <= nproc:
        fail("--jobs must be in [1, %d] (nproc), got %d" % (nproc, args.jobs), 2)
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative", 2)
    if args.write_reference and (args.reduced or args.seed != REFERENCE_SEED):
        fail("--write-reference needs the reference seed at full size", 2)
    return args


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(jobs):
    """Configure once, then build ramp_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "ramp_perfbench", "-j", str(jobs)])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "ramp_perfbench")


def run_binary(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(args.jobs)]
    if args.reduced:
        cmd.append("--reduced")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("ramp_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("ramp_perfbench exited with %d" % done.returncode, done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("ramp_perfbench printed nothing")
    return json.loads(lines[-1])


def same_line(expected, got):
    """Integer fields exactly; fields after '|' to a relative 1e-9."""
    exp_head, _, exp_tail = expected.partition(" |")
    got_head, _, got_tail = got.partition(" |")
    if exp_head != got_head:
        return False
    exp_reals, got_reals = exp_tail.split(), got_tail.split()
    if len(exp_reals) != len(got_reals):
        return False
    for e, g in zip(exp_reals, got_reals):
        e, g = float(e), float(g)
        if e != g and abs(e - g) > FLOAT_RTOL * max(abs(e), abs(g)):
            return False
    return True


def mismatched_lines(expected, got):
    """Digest lines that differ from the reference (missing count too)."""
    bad = sum(1 for e, g in zip(expected, got) if not same_line(e, g))
    return bad + abs(len(expected) - len(got))


def reference_path(workload):
    return os.path.join(HERE, "reference", workload + ".txt")


def main(argv):
    args = parse_args(argv)
    binary = build(args.jobs)
    result = run_binary(binary, args)
    digest = result["digest"]
    rounds = result["rounds"] + result["traced_rounds"]

    if args.write_reference:
        with open(reference_path(args.workload), "w") as f:
            f.write("\n".join(digest) + "\n")

    failed = result["failed"]
    if args.seed == REFERENCE_SEED and not args.reduced:
        with open(reference_path(args.workload)) as f:
            expected = f.read().splitlines()
        bad = mismatched_lines(expected, digest)
        # Every round reproduces the checked one, so a bad line fails
        # that pass in every round.
        failed = min(result["attempted"], failed + bad * rounds)
        check = "checked against perfbench/reference/%s.txt: %d of %d lines differ" % (
            args.workload, bad, len(expected))
    else:
        check = "unchecked (reference covers seed %d at full size); rounds agree, invariants hold" % REFERENCE_SEED
        if result["failed"]:
            check = "unchecked; rounds disagree or invariants fail"

    attempted = result["attempted"]
    print("host: " + json.dumps(result["host"], sort_keys=True))
    print("digest: " + check)
    print("pass_fail_frac: %d/%d = %.6f over %d rounds" % (
        failed, attempted, failed / attempted, rounds))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
