#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload flows_cep --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default perfbench/target); scratch
files go to perfbench-work inside it. The last line of stdout is the
JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    if not (ROOT / "crates" / "cache" / "Cargo.toml").is_file():
        print("perfbench: the repository's crates are missing; cannot build", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = target / "release" / "perfbench"
    work = target / "perfbench-work"
    run = subprocess.run([str(binary), *sys.argv[1:], "--work", str(work)], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
