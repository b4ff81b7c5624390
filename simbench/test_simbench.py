"""Tests of the simulator benchmark itself: seeded inputs, the traced
run's invisibility, the pinned record, and tiny runs through the command
line.

Sizes are tiny: the paper model prices every new shape cold, so a handful
of requests per workload keeps these fast.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest
from repro.api.adapters import CambriconBackend

import run
import workloads
from layertrace import LAYERS, LayerTracer
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SMALL = {"trace_mix": 12, "fleet_day": 200, "chaos_spill": 40}


def _resized(name, requests):
    return dataclasses.replace(WORKLOADS[name], requests=requests)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_on_the_seed_alone(name):
    workload = _resized(name, 64)
    first = workload.traffic(DEFAULT_SEED)
    assert first == workload.traffic(DEFAULT_SEED)
    assert first != workload.traffic(HELD_OUT_SEED)
    times = [when for when, _ in first]
    assert times == sorted(times)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_leaves_outputs_unchanged(name):
    workload = _resized(name, SMALL[name])
    prepared = workload.prepare(DEFAULT_SEED)
    plain = prepared.finish(prepared.run())

    prepared = workload.prepare(DEFAULT_SEED)
    backend_run = vars(CambriconBackend)["run"]
    with LayerTracer() as tracer:
        result = tracer.run(prepared.run)
    traced = prepared.finish(result)
    assert vars(CambriconBackend)["run"] is backend_run

    assert tracer.missing == []
    assert traced.digest == plain.digest
    assert traced.sim_ttft_p99_s == plain.sim_ttft_p99_s
    assert traced.sim_goodput_rps == plain.sim_goodput_rps
    assert traced.trace_rows == SMALL[name]

    exact, timed = tracer.metrics(prepared, traced)
    assert exact["core.backend_runs"] == exact["api.profile_misses"] > 0
    # Self times partition the run: every second is billed to one layer.
    shares = sum(timed[f"{layer}.share"] for layer in LAYERS)
    assert shares == pytest.approx(1.0, rel=1e-3)
    # Each workload runs the layers it was chosen for.
    assert (timed["router.s"] > 0) == (name != "trace_mix")
    assert (timed["memory.s"] > 0) == (name == "chaos_spill")
    assert (timed["timeline.s"] > 0) == (name == "chaos_spill")


def test_record_pins_both_seeds_of_every_workload():
    with open(run.RECORD_PATH) as handle:
        record = json.load(handle)["workloads"]
    for name in WORKLOADS:
        assert set(record[name]["pins"]) == {str(DEFAULT_SEED), str(HELD_OUT_SEED)}


def _spawn_here(workload, seed, traced, timeout):
    return run.run_once(workload, seed, traced)


def _in_process(monkeypatch, spawn=_spawn_here):
    """Shrink fleet_day to 100 requests and run each run in this process."""
    monkeypatch.setitem(workloads.WORKLOADS, "fleet_day", _resized("fleet_day", 100))
    monkeypatch.setattr(run, "spawn", spawn)


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_line_reports_every_metric(monkeypatch, capsys, trace, kind):
    _in_process(monkeypatch)
    # Seed 1 has no pinned outputs, so the resized runs only must agree.
    argv = ["--workload", "fleet_day", "--seed", "1", "--seconds", "0"]
    assert run.main(argv + ["--trace", str(trace)]) == 0
    output = capsys.readouterr().out
    result = json.loads(output.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [name for name, _ in run._metric_units(kind)]
    assert "model accuracy" in output


def test_a_failed_run_ends_the_invocation_with_the_budget(monkeypatch, capsys):
    def spawn(workload, seed, traced, timeout):
        if traced:
            return {"error": "traced run raised"}
        return _spawn_here(workload, seed, traced, timeout)

    _in_process(monkeypatch, spawn)
    argv = ["--workload", "fleet_day", "--seed", "1", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    result = _result(capsys)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_a_run_that_misses_its_pin_fails(monkeypatch, capsys):
    _in_process(monkeypatch)
    # The full-size pins of seed 0 cannot match a 100-request run.
    argv = ["--workload", "fleet_day", "--seed", "0", "--seconds", "0"]
    assert run.main(argv) == 0
    result = _result(capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "simbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join("simbench", "run.py"), "--workload", "trace_mix"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
