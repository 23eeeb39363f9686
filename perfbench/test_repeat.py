#!/usr/bin/env python3
"""The benchmark's own test: exact counts repeat, inputs follow the seed.

Runs each workload's traced mode twice with one seed and once with
another, then checks that
  * every run passes its reference check with no failed operation;
  * the counters named below are identical for the same seed (the traced
    phase runs a fixed amount of work, so they must repeat exactly);
  * the generated inputs (the printed inputs digest) differ between seeds,
    so a claim can be rechecked on a seed not used while writing it.

    python3 perfbench/test_repeat.py [--seconds 2]

Exit status 0 when every check holds.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXACT = {
    "flows_cep": [
        "vm.instructions_per_event",
        "dispatch.delivered",
        "dispatch.skipped_by_prefilter",
        "reactor.requests.insert",
    ],
    "durable_upsert": [
        "wal.records",
        "reactor.requests.insert_batch",
        "recover.replayed_records",
        "recover.snapshot_rows",
    ],
    "window_poll": [
        "reactor.requests.insert",
    ],
}


def run(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
    digest = next((l.split()[-1] for l in lines if l.startswith("inputs digest")), "")
    return json.loads(lines[-1]), digest


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    failures = 0
    for workload, names in EXACT.items():
        a, da = run(workload, 1, args.seconds)
        b, db = run(workload, 1, args.seconds)
        c, dc = run(workload, 2, args.seconds)
        for r in (a, b, c):
            if not r["correct"] or r["failed"] != 0:
                print(f"FAIL {workload}: reference check failed or ops failed: {r['failed']}")
                failures += 1
        for name in names:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            ok = va == vb and va > 0
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} {name}: {va} / {vb} (seed 1 twice)")
        ok = da == db and da != dc and da != ""
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload} inputs digest: seed 1 {da} {db}, seed 2 {dc}")
    print("all checks passed" if failures == 0 else f"{failures} checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
