#!/usr/bin/env python3
"""Build and run the repository benchmark (one workload per call).

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-iot --seed 1 --seconds 10 \
        --trace 0

The first call configures and builds perfbench/ (which pulls in the
library through the repository's own CMakeLists.txt) into
.bench_build/perfbench; later calls only rebuild what changed. The last
line of stdout is the result JSON printed by the perfbench binary; build
output goes to stderr. Traced runs (--trace 1) write their spans to
.bench_out/. The exit code is non-zero when the build fails, a
correctness gate fails, or the run exceeds its time limit.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train-iot", "train-flight", "serve-iot", "dist-fraud")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources beside perfbench/ "
             "(expected CMakeLists.txt and src/ at the checkout root)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        command += ["--spans", os.path.join(
            OUT, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    env = dict(os.environ, PERFBENCH_SOURCE=source_id())
    sys.stdout.flush()
    try:
        result = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S,
                                check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, code=3)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
