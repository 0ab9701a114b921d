#!/usr/bin/env python
"""Smoke-check the attestation-service benchmark on short traced runs.

    python scripts/perfbench_smoke.py [--seed 1] [--seconds 4]

Runs ``perfbench/run.py --trace 1`` on every workload and exits 1
unless each run's last output line (one JSON object) reports
``"correct": true`` and ``"failed": 0``: every lane, the hostile lanes of
``adversarial`` included, got the verdict the scalar verifier gives.
``run.py`` exits 0 whatever it measured, so the verdict is read from
that line.
"""

import argparse
import json
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

WORKLOADS = ("fresh", "reattest", "adversarial")


def check(workload: str, seed: int, seconds: float) -> list:
    """Problems with one run; empty when it passes."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    print(proc.stdout, end="")
    print(proc.stderr, end="", file=sys.stderr)
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"{workload}: no JSON verdict line "
                f"(exit code {proc.returncode})"]
    problems = []
    if verdict.get("correct") is not True:
        problems.append(f"{workload}: correct is not true")
    if verdict.get("failed") != 0:
        problems.append(f"{workload}: failed = {verdict.get('failed')}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    problems = []
    for workload in WORKLOADS:
        problems += check(workload, args.seed, args.seconds)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
