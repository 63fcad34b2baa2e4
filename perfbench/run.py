#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload detect_campaign --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune (inside the checkout's _build), then
runs it with the same arguments. The benchmark's standard output is
passed through; its last line is the JSON result. README.md in this
directory describes the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("detect_campaign", "recovery_campaign", "perf_sweep", "verify_matrix")
# A run takes well under three minutes; a hung run is killed rather
# than left behind.
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a repository checkout (missing %s)" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    # One glibc malloc arena. With one arena per domain, which domain
    # frees which large block decides how much memory stays resident,
    # and peak RSS of identical work flips between two levels (about
    # 470 and 635 MB on perf_sweep). One arena makes peak_rss_mb measure
    # the program's own heap.
    run_env = dict(env, MALLOC_ARENA_MAX="1")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", "perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode, 1)

    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=run_env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s and was killed" % RUN_TIMEOUT_S, 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
