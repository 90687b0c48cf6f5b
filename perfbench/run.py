#!/usr/bin/env python3
"""End-to-end host-time benchmark of the CHOPPER reproduction.

    python3 perfbench/run.py --workload paper-ml --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds perfbench/ (Release) into
.bench_build/perfbench (incrementally after the first run), runs its
arithmetic self-test, then:

  * runs the workload for --seconds in one process, with the traced
    per-layer passes when --trace is 1;
  * times set-up SETUP_SAMPLES times, that process included, each from
    before the process is spawned until its warm-up run has finished. The
    other samples come after the measured run: a host that has been idle
    runs the short set-up up to three times slower for its first seconds
    of load, so samples taken first would measure the host's idle state.

Prints the program's report, then one JSON object as the last line of
stdout: the end-to-end metrics of BENCHMARK.json for --trace 0, its
per-layer metrics for --trace 1. Exits non-zero when the build fails, a
check fails, or any job failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
PROGRAM = os.path.join(BUILD, "perfbench")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
SETUP_RESERVE_S = 30.0  # of DEADLINE_S, for the set-up samples

# Metrics of layers a workload does not drive: the program measures nothing
# there, and they are reported as 0. Any other metric of BENCHMARK.json that
# the program does not print is an error.
PAPER_IDLE = ("obs.", "ckpt.", "service.", "cacheplan.advise_s",
              "cacheplan.decisions", "e2e.serve_s", "e2e.recover_s",
              "e2e.sim_makespan_s")
IDLE = {
    "paper-ml": PAPER_IDLE,
    "paper-shuffle": PAPER_IDLE,
    "serve-durable": ("chopper.", "e2e.time_to_plan_s", "e2e.vanilla_run_s",
                      "e2e.planned_run_s", "e2e.sim_vanilla_s",
                      "e2e.sim_planned_s"),
}


def build():
    """Configure, build and self-test; False when any step fails."""
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
        [os.path.join(BUILD, "perfbench_selftest")],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_program(args, timeout):
    """Run perfbench; returns (set-up seconds, stdout, exit code)."""
    start = time.monotonic()
    proc = subprocess.run([PROGRAM] + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    setup_s = None
    for line in proc.stdout.splitlines():
        if line.startswith("setup_done_monotonic "):
            setup_s = float(line.split()[1]) - start
    return setup_s, proc.stdout, proc.returncode


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("run.py: unknown workload " + opts.workload)
    if not build():
        sys.exit("run.py: build failed")
    began = time.monotonic()
    os.makedirs(WORK, exist_ok=True)

    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--work", WORK]
    run_args = common + ["--seconds", str(opts.seconds)]
    if opts.trace:
        run_args.append("--trace")
    setup_s, out, code = run_program(run_args, DEADLINE_S - SETUP_RESERVE_S)
    result_line = [l for l in out.splitlines() if l.startswith("PERFBENCH ")]
    if setup_s is None or not result_line:
        sys.stdout.write(out)
        sys.exit("run.py: perfbench exited %d without a result" % code)
    setups = [setup_s]
    while len(setups) < SETUP_SAMPLES:
        remaining = DEADLINE_S - (time.monotonic() - began)
        setup_s, _, setup_code = run_program(common + ["--setup-only"],
                                             remaining)
        if setup_code != 0 or setup_s is None:
            sys.exit("run.py: set-up failed")
        setups.append(setup_s)
    sys.stdout.write("\n".join(l for l in out.splitlines()
                               if not l.startswith("PERFBENCH ")) + "\n")

    report = json.loads(result_line[-1][len("PERFBENCH "):])
    measured = dict(report["metrics"])
    measured["setup_s"] = statistics.median(setups)
    metrics = {}
    for m in spec["per_layer" if opts.trace else "end_to_end"]:
        name = m["name"]
        if name in measured:
            value = measured[name]
        elif name.startswith(IDLE[opts.workload]):
            value = 0.0
        else:
            sys.exit("run.py: perfbench did not measure " + name)
        metrics[name] = {"value": value, "unit": m["unit"]}
        print("%-38s %16.6f %s" % (name, value, m["unit"]))
    correct = bool(report["correct"]) and report["failed"] == 0 and code == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
