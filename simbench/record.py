"""Regenerate ``record.json``: each workload's pinned outputs, the layers
it runs, and its per-layer baseline.

    python3 simbench/record.py

Run it from the root of a checkout, only for a change meant to move
simulated outputs or to re-baseline the per-layer shares.  It

* measures each workload's saturated throughput and stops if that differs
  from the ``capacity_rps`` constant in ``workloads.py``: the constant
  sizes the offered rate, so a run's set-up prices nothing;
* pins the trace sha256 and the ``sim_*`` values of an untraced run at the
  default and at the held-out seed;
* keeps the per-layer metrics of one traced run at the default seed; its
  ``*.share`` values are the baseline that later changes cite.  The layers
  with self time in that run (and ``faults`` when a fault counter moved)
  are the ones the workload loads; the others it bypasses.
"""

from __future__ import annotations

import json
import math
import sys

from layertrace import LAYERS
from run import RECORD_PATH, SRC, spawn


def _record_workload(workload, seeds) -> dict:
    measured = workload.saturated_rps()
    if not math.isclose(measured, workload.capacity_rps, rel_tol=1e-9):
        raise SystemExit(
            f"{workload.name}: measured capacity {measured!r} req/s differs from "
            f"capacity_rps {workload.capacity_rps!r}; update workloads.py"
        )
    pins = {}
    for seed in seeds:
        run = spawn(workload.name, seed, traced=False)
        if "error" in run:
            raise SystemExit(f"{workload.name} seed {seed}: {run['error']}")
        pins[str(seed)] = {
            key: run[key] for key in ("digest", "sim_ttft_p99_s", "sim_goodput_rps")
        }
    traced = spawn(workload.name, seeds[0], traced=True)
    if "error" in traced:
        raise SystemExit(f"{workload.name} traced: {traced['error']}")
    if traced["digest"] != pins[str(seeds[0])]["digest"]:
        raise SystemExit(f"{workload.name}: the traced run changed the trace")
    exact, timed = traced["exact"], traced["timed"]
    ran = {layer for layer in LAYERS if timed[f"{layer}.share"] > 0}
    if any(value for name, value in exact.items() if name.startswith("faults.")):
        ran.add("faults")
    layers = LAYERS + ("faults",)
    return {
        "loads": [layer for layer in layers if layer in ran],
        "bypasses": [layer for layer in layers if layer not in ran],
        "pins": pins,
        "baseline": {**exact, **timed},
    }


def main() -> int:
    sys.path.insert(0, SRC)
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

    record = {"workloads": {}}
    for name, workload in WORKLOADS.items():
        print(f"recording {name}", flush=True)
        record["workloads"][name] = _record_workload(
            workload, (DEFAULT_SEED, HELD_OUT_SEED)
        )
    with open(RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {RECORD_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
