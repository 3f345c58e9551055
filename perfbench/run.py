#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig6-d13 --seed 1 --seconds 10 --trace 0

Builds `bin/main.exe` (the hetarch CLI and daemon under test) and the
benchmark runner `perfbench/main.exe` with dune, then runs the runner,
which prints the result object as its last stdout line.  Build output goes
to stderr.  Exits non-zero, without a result, when the checkout does not
hold the program's sources or the build fails.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
TARGETS = ["./bin/main.exe", "./perfbench/main.exe"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    root = os.getcwd()
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"no {need} in {root}: run from the repository root")
    env = {k: v for k, v in os.environ.items() if not k.startswith("HETARCH_")}
    # Keep every build artifact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", *TARGETS],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail("build failed")
    runner = os.path.join("_build", "default", "perfbench", "main.exe")
    cli = os.path.join("_build", "default", "bin", "main.exe")
    # Own process group, so a timeout also stops the daemons it started.
    run = subprocess.Popen([runner, "--hetarch", cli, *sys.argv[1:]],
                           env=env, start_new_session=True)
    try:
        code = run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
