#!/usr/bin/env python3
"""Build and run the Auto-FuzzyJoin end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (and with it the workspace crates it measures)
in release mode from source, then runs one workload in its own process.  The
build goes to $CARGO_TARGET_DIR when set (relative paths resolve against the
current directory), else to e2ebench/target.  Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "autofj-e2ebench")
    workdir = os.path.join(target, "e2ebench-work")
    sys.stdout.flush()
    return subprocess.run([exe, *sys.argv[1:], "--workdir", workdir], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
