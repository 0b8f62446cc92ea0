"""Run every workload on several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py --seeds 101-110 --seconds 25 --out perfbench/baseline.json

For each workload and metric it prints the median over the seeds and the
quartile spread, (Q3 - Q1) / median with ``statistics.quantiles(n=4)``, and
the failed/attempted units.  ``--out`` also keeps every run's metrics, so a
later commit can be compared with this one run by run.  Exits non-zero if
any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("mc_eval", "train_grid", "xmlc_io", "recovery")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    """The JSON result line of one run, and the run's wall time."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1]), time.monotonic() - start


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("101-110"),
                        help="'a-b' or a comma-separated list")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--out", default=None, help="JSON file for every run and the summary")
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, wall_s = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, "wall_s": wall_s, "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {}
        for name, first in result["metrics"].items():
            values = [r["metrics"][name] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "unit": first["unit"]}
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        report["workloads"][workload] = {"summary": summary, "failed": failed,
                                         "attempted": attempted, "runs": runs}
        for name, s in summary.items():
            print(f"{workload:10s} {name:12s} median {s['median']:12.6g} {s['unit']:8s} "
                  f"spread {s['spread']:.4f}")
        print(f"{workload:10s} fail_ratio   {failed}/{attempted} failed/attempted units",
              flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
