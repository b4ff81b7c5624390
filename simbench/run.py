"""Run one workload of the simulator benchmark and print its metrics.

    python3 simbench/run.py --workload trace_mix --seed 0 --seconds 30 --trace 0
    python3 simbench/run.py --workload all --seed 97

Run from the root of a checkout: the simulator is imported from the
checkout's ``src/``, and without it the benchmark exits with status 2
before measuring anything.  Every run is a fresh process, so every run
starts cold, as a CLI invocation does; the benchmark starts runs one
after another while the next one is expected to end within ``--seconds``
(and until at least three have finished) and reports medians.

``--trace 0`` reports the end-to-end metrics, all measured with tracing
off: ``requests_per_s`` (workload requests over the timed run's host
seconds), ``setup_s`` (process start to the timed run: import, input
generation, simulator construction), ``peak_rss_mb``, and the modelled
``sim_ttft_p99_s`` and ``sim_goodput_rps`` in *simulated* seconds, which
are exact and must not move.  ``--trace 1`` alternates untraced runs with
runs traced by ``layertrace.py`` and reports the per-layer metrics plus
``trace.overhead``, the traced over the untraced run time.

Host seconds in ``requests_per_s``, ``setup_s`` and ``trace.overhead`` are
scaled to a reference host speed.  A shared host's CPU speed drifts by a
quarter within minutes, which would swamp a change of a few percent, so
each run times a fixed interpreter-bound loop (:func:`reference_seconds`)
just before and just after its timed region and reports its seconds
multiplied by ``REFERENCE_S`` over that loop's time.  The raw host seconds
are printed beside each run.

A run fails when it raises, when its trace sha256 or simulated values
differ from the ones pinned in ``record.json`` for its seed, when it
disagrees with the invocation's first run (every run of one invocation
has the same seed, traced or not), or when its trace does not hold one
row per request.  Simulated sheds and timeouts are model outputs, not
failures.  The model's error against the paper's headline anchors is
stated once per invocation, outside every timed run.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
with ``--workload all`` each metric name is prefixed by its workload's.
The metrics' names and units, and the order they are printed in, are
those ``BENCHMARK.json`` at the root of the checkout lists.
"""

from __future__ import annotations

import time

#: ``setup_s`` counts from here: the first statement a run executes.
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RECORD_PATH = os.path.join(BENCH_DIR, "record.json")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: An invocation starts no new run past ``--seconds`` (capped here), and
#: a run is killed when it would end past the hard limit.
BUDGET_S = 150.0
HARD_LIMIT_S = 170.0
MIN_RUNS = 3

#: ``reference_seconds()`` on the host the benchmark was defined on (a
#: 2-vCPU Xeon VM at 2.0 GHz): the speed host seconds are scaled to.
REFERENCE_S = 0.28
REFERENCE_ITERATIONS = 1_000_000

#: The paper's headline decode speeds on Cambricon-LLM-L (token/s).
ANCHORS = (
    ("llama2-70b", 3.44, "abstract"),
    ("llama2-7b", 34.0, "Fig. 9b"),
)


# -- one run (a child process) -------------------------------------------------
def reference_seconds() -> float:
    """Wall time of a fixed loop of dict updates and integer arithmetic:
    a yardstick for the host's current speed at interpreter-bound work."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + (i % 7) * (i // 7)
    return time.perf_counter() - start


def run_once(workload: str, seed: int, traced: bool) -> dict:
    """Set up and run ``workload`` once in this process; measurements as a dict."""
    from workloads import WORKLOADS

    prepared = WORKLOADS[workload].prepare(seed)
    setup_s = time.perf_counter() - _PROCESS_START
    reference_before = reference_seconds()
    exact = timed = None
    missing: List[str] = []
    if traced:
        from layertrace import LayerTracer

        with LayerTracer() as tracer:
            result = tracer.run(prepared.run)
        run_s = tracer.wall_s
        outcome = prepared.finish(result)
        exact, timed = tracer.metrics(prepared, outcome)
        missing = tracer.missing
    else:
        start = time.perf_counter()
        result = prepared.run()
        run_s = time.perf_counter() - start
        outcome = prepared.finish(result)
    # Host seconds -> seconds at the reference speed.
    scale = REFERENCE_S * 2.0 / (reference_before + reference_seconds())
    return {
        "raw_setup_s": setup_s,
        "raw_run_s": run_s,
        "setup_s": setup_s * scale,
        "run_s": run_s * scale,
        "requests": outcome.requests,
        "trace_rows": outcome.trace_rows,
        "digest": outcome.digest,
        "sim_ttft_p99_s": outcome.sim_ttft_p99_s,
        "sim_goodput_rps": outcome.sim_goodput_rps,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "exact": exact,
        "timed": timed,
        "missing": missing,
    }


def spawn(
    workload: str, seed: int, traced: bool, timeout: float = HARD_LIMIT_S
) -> dict:
    """One run in a fresh interpreter; its measurements, or an ``error``."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if traced:
        command.append("--traced")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"run killed after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the invocation ------------------------------------------------------------
def _load_pin(workload: str, seed: int) -> Optional[dict]:
    """The record's pinned outputs for this seed, if it has them."""
    with open(RECORD_PATH) as handle:
        record = json.load(handle)
    return record["workloads"].get(workload, {}).get("pins", {}).get(str(seed))


def _check(run: dict, reference: Optional[dict], pin: Optional[dict]) -> Optional[str]:
    """Why ``run`` counts as failed, or None."""
    if "error" in run:
        return run["error"]
    if run["trace_rows"] != run["requests"]:
        return f"trace has {run['trace_rows']} rows for {run['requests']} requests"
    for expected, source in ((pin, "pinned"), (reference, "first run's")):
        if expected is None:
            continue
        for key in ("digest", "sim_ttft_p99_s", "sim_goodput_rps"):
            if run[key] != expected[key]:
                return f"{key} {run[key]!r} differs from the {source} {expected[key]!r}"
    return None


def accuracy_lines() -> List[str]:
    """The paper model's error against the paper's headline anchors."""
    from repro.core import InferenceEngine, cambricon_llm_l

    engine = InferenceEngine(cambricon_llm_l())
    lines = ["model accuracy on Cambricon-LLM-L (stated, not gated):"]
    for model, paper, source in ANCHORS:
        speed = engine.decode_speed(model)
        lines.append(
            f"  {model}: {speed:.2f} token/s vs {paper} in the paper's {source} "
            f"({100.0 * (speed / paper - 1.0):+.1f}%)"
        )
    return lines


def _metric_units(kind: str) -> List[Tuple[str, str]]:
    """``(name, unit)`` of each ``end_to_end`` or ``per_layer`` metric."""
    with open(SPEC_PATH) as handle:
        return [(metric["name"], metric["unit"]) for metric in json.load(handle)[kind]]


def _median(runs: List[dict], key: str) -> float:
    return statistics.median(run[key] for run in runs)


def _end_to_end(good: List[dict]) -> Dict[str, float]:
    return {
        "requests_per_s": statistics.median(r["requests"] / r["run_s"] for r in good),
        "setup_s": _median(good, "setup_s"),
        "peak_rss_mb": _median(good, "peak_rss_mb"),
        "sim_ttft_p99_s": good[0]["sim_ttft_p99_s"],
        "sim_goodput_rps": good[0]["sim_goodput_rps"],
    }


def _per_layer(traced: List[dict], plain: List[dict]) -> Dict[str, float]:
    values = dict(traced[0]["exact"])
    for name in traced[0]["timed"]:
        values[name] = statistics.median(run["timed"][name] for run in traced)
    values["trace.overhead"] = _median(traced, "run_s") / _median(plain, "run_s")
    return values


def _exact_mismatch(traced: List[dict]) -> Optional[str]:
    first = traced[0]["exact"]
    for run in traced[1:]:
        differing = [name for name in first if run["exact"][name] != first[name]]
        if differing:
            return f"{', '.join(differing)} differ between traced runs"
    return None


def _measure(workload: str, seed: int, args: argparse.Namespace) -> dict:
    """Runs of one workload until the budget is spent; prints them and
    returns the result object for that workload."""
    from workloads import WORKLOADS

    started = time.perf_counter()
    pin = _load_pin(workload, seed)
    w = WORKLOADS[workload]
    print(
        f"{workload}, seed {seed}: {w.requests} requests offered at "
        f"{w.rate_qps:.4g} req/s, {w.load:g} x the measured capacity of "
        f"{w.capacity_rps:.4g} req/s; "
        + ("outputs pinned" if pin else "no pinned outputs; runs must agree")
    )
    budget_end = started + min(args.seconds, BUDGET_S)
    hard_end = started + HARD_LIMIT_S
    plain: List[dict] = []
    traced: List[dict] = []
    failures: List[str] = []
    reference: Optional[dict] = None
    while True:
        want_traced = args.trace == 1 and len(traced) < len(plain)
        timeout = max(hard_end - time.perf_counter(), 1.0)
        run = spawn(workload, seed, want_traced, timeout)
        kind = "traced" if want_traced else "untraced"
        problem = _check(run, reference, pin)
        if problem is not None:
            failures.append(problem)
            print(f"  {kind} run failed: {problem}")
        else:
            reference = reference or run
            (traced if want_traced else plain).append(run)
            print(
                f"  {kind} run: set-up {run['setup_s']:.3f} s, "
                f"{run['requests']} requests in {run['run_s']:.3f} s "
                f"(host: {run['raw_setup_s']:.3f} s, {run['raw_run_s']:.3f} s)"
            )
        now = time.perf_counter()
        per_run = (now - started) / (len(plain) + len(traced) + len(failures))
        # One failure already makes the result incorrect: after one, start
        # no run past the budget.
        if now + per_run > hard_end or (failures and now >= budget_end):
            break
        if args.trace == 1:
            # Runs come in untraced/traced pairs; start a pair only if it
            # can end inside the budget.
            if len(traced) < len(plain):
                continue
            if traced and now + 2 * per_run > budget_end:
                break
        elif len(plain) >= MIN_RUNS and now + per_run > budget_end:
            break

    if args.trace == 1 and traced:
        problem = _exact_mismatch(traced)
        if problem is not None:
            failures.append(problem)
        for name in traced[0]["missing"]:
            print(f"  not traced (absent in this simulator): {name}")

    if args.trace == 1:
        names = _metric_units("per_layer")
        values = _per_layer(traced, plain) if traced and plain else {}
    else:
        names = _metric_units("end_to_end")
        values = _end_to_end(plain) if plain else {}
        if plain:
            print(f"  medians of {len(plain)} runs")
    metrics = {}
    for name, unit in names:
        value = values[name] if values else 0.0
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<28} {value:>16.6g} {unit}")
    return {
        "correct": not failures and bool(values),
        "attempted": len(plain) + len(traced) + len(failures),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, help="a workload's name, or 'all' for each in turn"
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"simbench: no simulator source at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from workloads import DEFAULT_SEED, WORKLOADS

    everything = args.workload == "all" and not args.child
    if args.workload not in WORKLOADS and not everything:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)} or all"
        )
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.child:
        print(json.dumps(run_once(args.workload, seed, args.traced)))
        return 0

    for line in accuracy_lines():
        print(line)
    if not everything:
        print(json.dumps(_measure(args.workload, seed, args)))
        return 0
    results = {name: _measure(name, seed, args) for name in WORKLOADS}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{metric}": value
                    for name, result in results.items()
                    for metric, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
