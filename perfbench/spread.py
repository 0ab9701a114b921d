#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed on each workload, one process at a time,
and prints each metric's median and its quartile spread (the distance
between the first and third quartile as a share of the median), next
to the bound ``BENCHMARK.json`` fixes for it::

    python3 perfbench/spread.py --workloads fresh reattest --seeds 1 2 3 4 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int,
                        default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            share = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed_share={share:.6f} " + " ".join(
                      f"{k}={v['value']:.4g}"
                      for k, v in result["metrics"].items()), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            print(f"  {workload} {name}: median {median:.4g} spread "
                  f"{(q3 - q1) / median:.4f} (bound {bounds[name]})",
                  flush=True)


if __name__ == "__main__":
    main()
