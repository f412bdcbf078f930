#!/usr/bin/env python3
"""Print every end-to-end metric of every workload, one row per workload.

    python3 perfbench/table.py --seed 1 --seconds 30

Each workload runs in a fresh process (so ``peak_rss_mb`` is that
workload's alone) through ``run.py``.  The exit status is 1 when any
workload reports a wrong verdict or does not finish, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_workload(name: str, seed: int, seconds: float):
    """Run one workload; returns (record, result) or raises on failure."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)

    status = 0
    for name in WORKLOADS:
        try:
            record, result = run_workload(name, args.seed, args.seconds)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name:9s} FAILED: {exc}")
            status = 1
            continue
        cells = []
        for metric, value in result["metrics"].items():
            cell = f"{metric}={value['value']:.4g} {value['unit']}"
            samples = record["detail"].get(metric)
            if samples:
                cell += f" (n={samples['samples']}, {samples['beyond']} beyond)"
            cells.append(cell)
        wrong = record["wrong_verdicts"]
        cells.append(f"wrong_verdicts={wrong}")
        cells.append(f"failed={result['failed']}/{result['attempted']}")
        cells.append(f"digest={record['verdict_digest'][:16]}")
        print(f"{name:9s} " + "  ".join(cells))
        if wrong:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
