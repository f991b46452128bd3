#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the measuring program from
source with dune, prepares the workload's input from the seed in a
separate process, then measures.  The last line of standard output is
the result object; build and progress logs go to standard error.
Everything the run writes stays under .bench_build/ in the checkout.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("pcap_replay", "pcap_replay_sharded", "intent_churn")
WORK_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join("_build", "default", "perfbench", "newton_perf.exe")
BUILD_TIMEOUT = 840
# Preparing and measuring together must end well within 180 s.
RUN_BUDGET = 170
ACTIVE = []  # the child process running now, if any


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, env, capture=False):
    """Run cmd to completion; its stderr passes through.  On timeout the
    whole process group (cmd and any child it started) is killed."""
    p = subprocess.Popen(cmd, env=env, text=True, start_new_session=True,
                         stdout=subprocess.PIPE if capture else sys.stderr)
    ACTIVE.append(p)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_children()
        fail("timed out: " + " ".join(cmd))
    ACTIVE.remove(p)
    return subprocess.CompletedProcess(cmd, p.returncode, out)


def stop_children(*_):
    for p in ACTIVE:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
        p.wait()
    ACTIVE.clear()


def on_signal(signum, _frame):
    stop_children()
    sys.exit(128 + signum)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a full checkout (dune-project and lib/ missing)")

    env = dict(os.environ)
    # Keep dune's shared cache out of the home directory.
    env["DUNE_CACHE"] = "disabled"
    b = run(["dune", "build", "--root", ".", "./perfbench/newton_perf.exe"],
            BUILD_TIMEOUT, env)
    if b.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")

    os.makedirs(WORK_DIR, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed), "--dir", WORK_DIR]
    capture = os.path.join(WORK_DIR, "capture-%d.pcap" % a.seed)
    deadline = time.monotonic() + RUN_BUDGET
    try:
        p = run([EXE, "prepare"] + common, RUN_BUDGET, env)
        if p.returncode != 0:
            fail("prepare failed")
        m = run([EXE, "measure"] + common
                + ["--seconds", str(a.seconds), "--trace", a.trace],
                max(1, deadline - time.monotonic()), env, capture=True)
    finally:
        if os.path.exists(capture):
            os.remove(capture)
    lines = m.stdout.strip().splitlines()
    if m.returncode != 0 or not lines:
        fail("measure failed")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
