#!/usr/bin/env python3
"""Build the benchmark and the `cloudia` binary in the release profile,
then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source tree. The build goes to .bench_build/dune,
traces, sockets and the per-seed counts to .bench_build/perfbench. The
last line of standard output is the result record that
perfbench/main.exe prints; see BENCHMARK.json for the workloads and
metrics. Exits non-zero without a result when the tree cannot be built.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BUILD = ".bench_build"
SOURCES = ["dune-project", "lib", "bin", "perfbench"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_rev():
    """Digest of every file the build reads: the revision a result and its
    per-seed counts belong to (the tree need not be a git checkout)."""
    h = hashlib.sha1()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            if not any(part.startswith((".", "_")) for part in d.split(os.sep)[1:])
            for f in files)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha1(f.read()).digest())
    rev = "src-" + h.hexdigest()[:12]
    if os.path.isdir(".git"):
        git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev += "-git-" + git.stdout.strip()
    return rev


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="the workload's tiny smoke size, every check on")
    args = ap.parse_args()

    missing = [s for s in SOURCES if not os.path.exists(s)]
    if missing:
        fail("run from the root of the source tree; missing: " + ", ".join(missing))
    root = os.getcwd()
    build_dir = os.path.join(root, BUILD, "dune")
    state = os.path.join(BUILD, "perfbench")
    os.makedirs(state, exist_ok=True)
    os.makedirs(build_dir, exist_ok=True)

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--cache", "disabled",
         "--build-dir", build_dir, "--display", "quiet",
         "./perfbench/main.exe", "./bin/cloudia_cli.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed", build.returncode)

    cmd = [os.path.join(build_dir, "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "%g" % args.seconds, "--trace", str(args.trace),
           "--daemon", os.path.join(build_dir, "default", "bin", "cloudia_cli.exe"),
           "--state", state, "--rev", source_rev()]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    # main.exe and the daemons it starts share a process group of their
    # own; whatever way this script ends, nothing in that group outlives it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
