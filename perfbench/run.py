#!/usr/bin/env python3
"""End-to-end benchmark of `urc`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build|app_write \
        --seed N --seconds S --trace 0|1

Builds the release `urc` binary and the benchmark harness from source
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs the harness,
which prints one JSON result object as the last line of stdout. Build
output and human-readable notes go to stderr. See perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "ur", "--bin", "urc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if not os.path.exists(cmd[cmd.index("--manifest-path") + 1]):
            print("perfbench: run from the root of a checkout of the repository",
                  file=sys.stderr)
            return 2
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    release = os.path.join(root, target, "release")
    harness = [os.path.join(release, "perfbench"),
               "--urc", os.path.join(release, "urc")] + sys.argv[1:]
    return subprocess.run(harness, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
