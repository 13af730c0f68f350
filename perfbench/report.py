"""Traced-run report: per-layer numbers next to the untraced end-to-end ones.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--workload NAME ...]

For each workload it runs ``run.py`` twice with the same seed — untraced,
then traced — and prints the untraced end-to-end metrics, every per-layer
metric grouped by layer with the end-to-end metric it should move, and the
tracing overhead (traced minus untraced read/write p50 and ops/s).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: run.py printed nothing\n{completed.stderr}")
    result = json.loads(lines[-1])
    result["summary"] = lines[:-1]
    return result


def report(workload: str, seed: int, seconds: float) -> None:
    plain = measure(workload, seed, seconds, 0)
    traced = measure(workload, seed, seconds, 1)
    e2e, layers = plain["metrics"], traced["metrics"]
    params = WORKLOADS[workload]
    print(f"## {workload} (seed {seed}, {seconds:g} s; read = {params['read']}, "
          f"write = {params['write']})\n")
    print("\n".join(plain["summary"]))
    print(f"\ncorrect: untraced {plain['correct']}, traced {traced['correct']}; "
          f"failed {plain['failed']}/{plain['attempted']} untraced, "
          f"{traced['failed']}/{traced['attempted']} traced\n")
    print("| end-to-end (untraced) | value | unit |\n|---|---:|---|")
    for name, unit, _, _ in END_TO_END:
        print(f"| {name} | {e2e[name]['value']:.3f} | {unit} |")
    print("\n| tracing overhead | untraced | traced | traced - untraced |\n|---|---:|---:|---:|")
    for name in ("read_p50_ms", "write_p50_ms", "ops_per_s"):
        before, after = e2e[name]["value"], layers[f"trace.{name}"]["value"]
        print(f"| {name} | {before:.3f} | {after:.3f} | {after - before:+.3f} |")
    print("\n| per-layer (traced) | value | unit | should move |\n|---|---:|---|---|")
    for name, unit, _, moves in PER_LAYER:
        if not name.startswith("trace."):
            print(f"| {name} | {layers[name]['value']:.4f} | {unit} | {moves} |")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    for workload in args.workload or list(WORKLOADS):
        report(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
