"""xproplab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload mc_eval --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout; xproplab is imported from the checkout's
``src``.  Each measurement runs in a fresh single-threaded process
(``worker.py``).  With ``--trace 0`` the run prints the end-to-end metrics:
five processes set up the workload (``setup_s`` is their median) and the
last one also runs units for ``--seconds``.  With ``--trace 1`` it prints the
per-layer metrics: one process runs a fixed number of units untraced, another
runs the same units with every public xproplab function wrapped in a span.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for a reader, with the sample counts and provenance.
Results, worker outputs and spans are kept under ``.perfbench_work/results``.
The exit code is 0 only when every unit passed its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUPS = 5               # set-ups per run; setup_s is their median
RUN_BUDGET_S = 170.0     # every worker of a run must end within this


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    The sample of rank r (1-based, ascending) has n - r samples beyond it, so
    the rule picks rank n - 10, the (n - 10)/n percentile.  With ten samples or
    fewer no percentile qualifies and the maximum is reported as the 100th.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setups: list[float], timed: dict) -> dict:
    times = timed["times"]
    tail_s, tail_pct = tail(times)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "units_per_s": (len(times) / sum(times), "units/s",
                        f"{len(times)} units in {sum(times):.3f} s of unit time"),
        "unit_p50_s": (statistics.median(times), "s", f"n={len(times)}"),
        "unit_tail_s": (tail_s, "s", f"p{tail_pct:.1f}, n={len(times)}"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MiB", "ru_maxrss of the measuring process"),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Starts workers one after another, each in a fresh pinned interpreter."""

    def __init__(self, workload: str, seed: int, rundir: str, results: str, tag: str):
        self.workload, self.seed = workload, seed
        self.rundir, self.results, self.tag = rundir, results, tag
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONHASHSEED="0", **PINNED_ENV)
        self.count = 0

    def worker(self, mode: str, *extra: str) -> dict:
        k = self.count
        self.count += 1
        result = os.path.join(self.results, f"{self.tag}-w{k}-{mode}.json")
        spawned_at = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--spawned-at", repr(spawned_at),
               "--workdir", os.path.join(self.rundir, f"w{k}"), "--result", result, *extra]
        with open(os.path.join(self.results, f"{self.tag}-w{k}.log"), "w") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=ROOT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"worker {k} ({mode}) exceeded the run budget") from None
        if code != 0:
            with open(log.name, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-3000:])
            raise RuntimeError(f"worker {k} ({mode}) exited with code {code}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


def measure(runner: Runner, seconds: float, trace: bool, wl) -> tuple[dict, list, dict]:
    """(metrics as name -> (value, unit, note), every worker's result, the result
    of the measuring worker, whose library versions are reported)."""
    if not trace:
        results = [runner.worker("setup") for _ in range(SETUPS - 1)]
        results.append(runner.worker("timed", "--seconds", repr(seconds)))
        return end_to_end([r["setup_s"] for r in results], results[-1]), results, results[-1]
    import spans
    units = max(1, round(seconds / 2 / wl.nominal_unit_s))
    untraced = runner.worker("untraced", "--units", str(units))
    traced = runner.worker("traced", "--units", str(units))
    layers = dict(traced["layers"])
    layers["bench.trace_overhead_ratio"] = sum(untraced["times"]) / sum(traced["times"])
    metrics = {name: (layers[name], unit, f"{units} traced units")
               for name, unit, _ in spans.per_layer_names()}
    return metrics, [untraced, traced], traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "xproplab", "__init__.py")):
        print(f"error: no xproplab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy loads, for the input generation below
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results_dir = os.path.join(WORK, "results")
    rundir = os.path.join(WORK, tag)
    os.makedirs(results_dir, exist_ok=True)
    try:
        if wl.prepare is not None:
            wl.prepare(os.path.join(rundir, "inputs"), args.seed, wl.shape)
        runner = Runner(wl.name, args.seed, rundir, results_dir, tag)
        metrics, results, main_result = measure(runner, args.seconds, bool(args.trace), wl)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    measured = [r for r in results if "attempted" in r]
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    problems = [p for r in measured for p in r["problems"]]
    correct = failed == 0 and all(math.isfinite(v) for v, _, _ in metrics.values())
    provenance = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "shape": wl.shape, "unit": wl.unit,
                  "nproc": os.cpu_count(), "cpu": cpu_model(),
                  "python": platform.python_version(), **main_result["versions"]}
    summary = {"provenance": provenance, "attempted": attempted, "failed": failed,
               "problems": problems,
               "metrics": {k: {"value": v, "unit": u, "note": note}
                           for k, (v, u, note) in metrics.items()}}
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    print(" ".join(f"{k}={v}" for k, v in provenance.items() if k not in ("shape", "unit")))
    print(f"unit: {wl.unit}")
    print(f"shape: {json.dumps(wl.shape)}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit:10s} {note}")
    print(f"{'fail_ratio':44s} {failed}/{attempted} failed/attempted units")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
