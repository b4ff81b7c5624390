"""Tests for the ``serve`` CLI subcommand."""

import pytest

from repro.api import InferenceRequest
from repro.cli import main
from repro.serving import PoissonWorkload, write_trace

_BASE = [
    "serve", "opt-6.7b", "--config", "S", "--gen-tokens", "4",
    "--qps", "0.2", "--num-requests", "25", "--seed", "0",
]


def test_serve_prints_a_summary_report(capsys):
    assert main(_BASE) == 0
    output = capsys.readouterr().out
    assert "Serving simulation" in output
    assert "TTFT p50/p95/p99 (s)" in output
    assert "device utilization (%)" in output
    # No SLO given: no SLO rows.
    assert "goodput" not in output


def test_serve_reports_slo_metrics_when_given(capsys):
    assert main(_BASE + ["--slo-ttft", "60", "--slo-e2e", "120"]) == 0
    output = capsys.readouterr().out
    assert "SLO attainment (%)" in output
    assert "goodput (req/s)" in output
    assert "meets SLO" in output


@pytest.mark.parametrize("scheduler", ["fcfs", "static", "continuous"])
def test_serve_supports_every_scheduler(capsys, scheduler):
    assert main(_BASE + ["--scheduler", scheduler, "--max-batch", "4"]) == 0
    assert f"{scheduler} scheduler" in capsys.readouterr().out


def test_serve_csv_is_byte_identical_across_runs(capsys, tmp_path):
    """Acceptance: a fixed seed reproduces the trace byte for byte."""
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(_BASE + ["--csv", str(first)]) == 0
    assert main(_BASE + ["--csv", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines()[0].startswith("request_id,arrival_s")


def test_serve_markdown_output(capsys):
    assert main(_BASE + ["--markdown"]) == 0
    assert "| metric | value |" in capsys.readouterr().out


def test_serve_replays_a_trace_file(capsys, tmp_path):
    path = str(tmp_path / "trace.csv")
    payload = InferenceRequest(model="opt-6.7b", config="S", seq_len=500, gen_tokens=4)
    write_trace(path, PoissonWorkload(0.5, payload, seed=1).generate(10))
    assert main(
        ["serve", "opt-6.7b", "--workload", "trace", "--trace", path,
         "--num-requests", "10"]
    ) == 0
    assert "10 x opt-6.7b" in capsys.readouterr().out


def test_serve_find_max_qps_reports_capacity(capsys):
    assert main(
        ["serve", "opt-6.7b", "--config", "S", "--gen-tokens", "4",
         "--num-requests", "30", "--slo-e2e", "60", "--find-max-qps"]
    ) == 0
    output = capsys.readouterr().out
    assert "Capacity search" in output
    assert "max sustainable qps" in output


def test_serve_find_max_qps_requires_an_slo():
    with pytest.raises(SystemExit):
        main(["serve", "opt-6.7b", "--find-max-qps"])


def test_serve_trace_workload_requires_a_path():
    with pytest.raises(SystemExit):
        main(["serve", "opt-6.7b", "--workload", "trace"])


def test_serve_rejects_unknown_scheduler():
    with pytest.raises(SystemExit):
        main(_BASE + ["--scheduler", "lottery"])


def test_serve_trace_defaults_to_the_whole_trace(capsys, tmp_path):
    path = str(tmp_path / "short.csv")
    payload = InferenceRequest(model="opt-6.7b", config="S", seq_len=500, gen_tokens=4)
    write_trace(path, PoissonWorkload(0.5, payload, seed=1).generate(5))
    assert main(["serve", "opt-6.7b", "--workload", "trace", "--trace", path]) == 0
    assert "5 x opt-6.7b" in capsys.readouterr().out


def test_serve_find_max_qps_rejects_non_poisson_workloads():
    with pytest.raises(SystemExit, match="Poisson"):
        main(["serve", "opt-6.7b", "--workload", "onoff", "--slo-e2e", "60",
              "--find-max-qps"])


def test_find_max_qps_show_probes_prints_the_trail(capsys):
    assert main(
        ["serve", "opt-6.7b", "--config", "S", "--gen-tokens", "4",
         "--num-requests", "40", "--slo-e2e", "60",
         "--find-max-qps", "--show-probes"]
    ) == 0
    output = capsys.readouterr().out
    assert "Probe trail" in output
    section = output.split("Probe trail")[1]
    probe_lines = [line for line in section.strip().splitlines()[3:] if line.strip()]
    # One row per probe, each carrying a rate and a met/violated verdict.
    assert len(probe_lines) >= 2
    assert all(("yes" in line) or ("no" in line) for line in probe_lines)
    assert any("yes" in line for line in probe_lines)


def test_find_max_qps_without_show_probes_stays_quiet(capsys):
    assert main(
        ["serve", "opt-6.7b", "--config", "S", "--gen-tokens", "4",
         "--num-requests", "40", "--slo-e2e", "60", "--find-max-qps"]
    ) == 0
    assert "Probe trail" not in capsys.readouterr().out


def test_serve_replays_a_bundled_trace(capsys):
    assert main(
        ["serve", "opt-6.7b", "--workload", "trace", "--bundled-trace", "diurnal",
         "--num-requests", "25", "--scheduler", "continuous"]
    ) == 0
    assert "trace workload" in capsys.readouterr().out


def test_unknown_bundled_trace_is_a_clean_cli_error():
    with pytest.raises(SystemExit, match="available: diurnal"):
        main(["serve", "opt-6.7b", "--workload", "trace",
              "--bundled-trace", "diurnall"])


def test_conflicting_or_misplaced_trace_flags_error_cleanly(tmp_path):
    path = str(tmp_path / "t.csv")
    payload = InferenceRequest(model="opt-6.7b", seq_len=100, gen_tokens=2)
    write_trace(path, PoissonWorkload(1.0, payload, seed=0).generate(3))
    with pytest.raises(SystemExit, match="not both"):
        main(["serve", "opt-6.7b", "--workload", "trace",
              "--trace", path, "--bundled-trace", "diurnal"])
    with pytest.raises(SystemExit, match="--workload trace"):
        main(["serve", "opt-6.7b", "--workload", "poisson",
              "--bundled-trace", "diurnal"])


def test_find_max_qps_rejects_dangling_trace_flags():
    """The search branch must not silently drop --bundled-trace."""
    with pytest.raises(SystemExit, match="--workload trace"):
        main(["serve", "opt-6.7b", "--slo-e2e", "60", "--find-max-qps",
              "--bundled-trace", "diurnal"])


def test_serve_show_probes_requires_a_capacity_search():
    with pytest.raises(SystemExit, match="--find-max-qps"):
        main(_BASE + ["--show-probes"])


def test_serve_show_cache_stats_prints_counters(capsys):
    assert main(_BASE + ["--show-cache-stats"]) == 0
    output = capsys.readouterr().out
    assert "Cache stats" in output
    assert "latency hits" in output
    assert "backend evaluations" in output


def test_serve_find_max_qps_show_cache_stats_covers_the_search(capsys):
    assert main(
        ["serve", "opt-6.7b", "--config", "S", "--gen-tokens", "4",
         "--num-requests", "30", "--slo-e2e", "60", "--find-max-qps",
         "--show-cache-stats"]
    ) == 0
    output = capsys.readouterr().out
    assert "max sustainable qps" in output
    assert "Cache stats" in output
