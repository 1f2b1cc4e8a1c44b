#!/usr/bin/env python3
"""Build catmark and the e2ebench harness from source, then run one benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload cli_files --seed 1 --seconds 25 --trace 0

Build output goes to stderr; the harness prints its result as the last
line of stdout. Artifacts land in $CARGO_TARGET_DIR (default
`.bench_build`). Any build failure exits non-zero without a result.
"""

import os
import subprocess
import sys


def build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(f"e2ebench: build failed: {' '.join(cmd)}")


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    env["CARGO_TARGET_DIR"] = target
    # The product binary, built exactly as a user builds it.
    build(["--manifest-path", "Cargo.toml", "--bin", "catmark"], env)
    # The harness: its own workspace, linking the product crates by path.
    build(["--manifest-path", "e2ebench/Cargo.toml"], env)
    harness = os.path.join(target, "release", "e2ebench")
    catmark = os.path.join(target, "release", "catmark")
    # A child, not an exec: the harness reads its children's peak RSS
    # from getrusage(RUSAGE_CHILDREN), which must not include the builds.
    done = subprocess.run([harness, "--catmark", catmark] + sys.argv[1:], env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
