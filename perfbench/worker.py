"""One measured process: set up a workload, run its units, check every output.

Started by ``run.py`` in a fresh interpreter whose BLAS/OpenMP thread counts
are already pinned to 1.  Writes one JSON result file and exits 0, also when
units failed (the failures are in the result); it exits non-zero only when
it cannot measure at all, for example when xproplab cannot be imported from
the checkout.

    python3 perfbench/worker.py --workload NAME --seed N --mode timed \
        --seconds S --spawned-at T --workdir DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_UNITS = 11          # the tail percentile needs ten samples beyond it
WARMUP_INDEX = 10 ** 6  # the discarded warm-up unit runs on an input no timed unit uses
MAX_PROBLEMS = 20


def import_checkout_xproplab():
    """Import xproplab from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import xproplab
    import xproplab.cli  # noqa: F401  (not imported by the package itself)
    if os.path.dirname(os.path.dirname(os.path.abspath(xproplab.__file__))) != src:
        raise ImportError(f"xproplab imported from {xproplab.__file__}, not from {src}")
    return xproplab


class UnitRunner:
    """Runs units of one workload, checks each, and keeps times and problems."""

    def __init__(self, workload, state, reference=None, recorder=None):
        self.wl = workload
        self.state = state
        self.reference = reference or []
        self.recorder = recorder
        self.seen: dict[int, dict] = {}
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, i, messages):
        self.failed += 1
        for message in messages:
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"unit {i}: {message}")

    def check(self, i, raw) -> list[str]:
        """Invariants on new inputs; equality with earlier and reference records."""
        wl = self.wl
        record = wl.record(self.state, raw)
        key = wl.input_key(i)
        if key in self.seen:
            problems = workloads.compare_records(record, self.seen[key],
                                                 "repeat of an earlier unit")
        else:
            problems = wl.invariants(self.state, i, raw, record)
            self.seen[key] = record
        if key < len(self.reference):
            problems += workloads.compare_records(record, self.reference[key], "reference")
        return problems

    def run(self, i, timed=True) -> None:
        """One unit; ``timed`` units are also traced when a recorder is set."""
        self.attempted += 1
        rec = self.recorder if timed else None
        span = None
        if rec is not None:
            rec.unit = i
            span = rec.open(spans.UNIT_SPAN)
        try:
            t0 = time.perf_counter()
            raw = self.wl.run_unit(self.state, i)
            elapsed = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - a failing unit is counted, not fatal
            self._fail(i, [traceback.format_exc(limit=3).strip().splitlines()[-1]])
            return
        finally:
            if rec is not None:
                rec.close(span)
                rec.unit = None
        if timed:
            self.times.append(elapsed)
        try:
            problems = self.check(i, raw)
        except Exception:  # noqa: BLE001 - a check that cannot run is a failed check
            problems = ["check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if problems:
            self._fail(i, problems)

    def loop(self, seconds=None, units=None) -> int:
        """Timed units 0, 1, ... for ``seconds`` (and at least MIN_UNITS) or exactly
        ``units``; then the first unit again, to check it repeats.  Returns the
        number of timed units."""
        start = time.perf_counter()
        i = 0
        while (i < units if units is not None else
               i < MIN_UNITS or time.perf_counter() - start < seconds):
            self.run(i)
            i += 1
        self.run(0, timed=False)
        return i


def load_reference(workload, seed):
    """Stored reference records, when the run uses the reference seed and shape."""
    if seed != workloads.REFERENCE_SEED:
        return []
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh).get(workload.name)
    if ref is None or ref["shape"] != workload.shape:
        return []
    return ref["records"]


def versions() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "untraced", "traced"),
                        required=True,
                        help="setup: set up and exit; timed: run for --seconds; "
                             "untraced/traced: run exactly --units units")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--units", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    xp = import_checkout_xproplab()
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(xp, args.workdir, args.seed, wl.shape)
    setup_s = time.monotonic() - args.spawned_at
    result = {"mode": args.mode, "setup_s": setup_s, "versions": versions()}

    if args.mode != "setup":
        recorder = None
        if args.mode == "traced":
            recorder = spans.Recorder(time.perf_counter)
            spans.install(xp, recorder)
        runner = UnitRunner(wl, state, load_reference(wl, args.seed), recorder)
        runner.run(WARMUP_INDEX, timed=False)
        if args.mode == "timed":
            timed_units = runner.loop(seconds=args.seconds)
        else:
            timed_units = runner.loop(units=args.units)
        result.update(times=runner.times, attempted=runner.attempted, failed=runner.failed,
                      problems=runner.problems)
        if recorder is not None:
            result["layers"] = spans.layer_metrics(recorder.spans, timed_units)
            spans_path = os.path.splitext(args.result)[0] + ".spans.jsonl"
            recorder.write_jsonl(spans_path)
            result["spans"] = spans_path
    result["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
