#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/vmbench).

    python3 perfbench/run.py --workload anon-fault --seed 1 --seconds 10 --trace 0

Builds the Go benchmark from the checkout's sources into the build
directory ($CARGO_TARGET_DIR, default .bench_build, under the checkout
root), then runs it. The benchmark's standard output is passed through;
its last line is the JSON result. Everything the build and the run write
(Go build cache, binary, spans, layer tables) stays in the build
directory. Exit status: the benchmark's own (0 correct, 1 an oracle
mismatch, 2 a set-up error), or 3 when the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("anon-fault", "map-churn", "file-pressure")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(build):
    """Keep every file the go command writes inside the build directory."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
    })
    return env


def source_revision():
    """The git commit, or a hash of the Go sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("go.mod", "internal", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".go", ".mod")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = build_dir()
    binary = os.path.join(build, "vmbench", "vmbench")
    env = go_env(build)
    try:
        b = subprocess.run(["go", "build", "-o", binary, "./vmbench"], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3
    if b.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(build, "vmbench", "out"), "-commit", source_revision()]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
