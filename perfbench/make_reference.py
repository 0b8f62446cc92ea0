"""Regenerate reference.json: the records of the first units of every workload
at the reference seed, which every run on that seed is compared against.

    python3 perfbench/make_reference.py

Run it only when a change to the program's outputs is intended; the diff of
reference.json then shows which outputs changed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})  # before numpy loads, as in the measured runs

import worker  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

UNITS = 3


def main() -> int:
    xp = worker.import_checkout_xproplab()
    work = os.path.join(worker.ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    refs = {}
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for wl in WORKLOADS.values():
            base = os.path.join(tmp, wl.name)
            if wl.prepare is not None:
                wl.prepare(os.path.join(base, "inputs"), REFERENCE_SEED, wl.shape)
            state = wl.setup(xp, os.path.join(base, "w0"), REFERENCE_SEED, wl.shape)
            records = []
            for i in range(1 if wl.same_input else UNITS):
                raw = wl.run_unit(state, i)
                record = wl.record(state, raw)
                problems = wl.invariants(state, i, raw, record)
                if problems:
                    print(f"{wl.name} unit {i}: {problems}", file=sys.stderr)
                    return 1
                records.append(record)
            refs[wl.name] = {"seed": REFERENCE_SEED, "shape": wl.shape, "records": records}
            print(f"{wl.name}: {len(records)} reference records")
    with open(os.path.join(worker.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
