"""The ``--trace-out`` / ``--metrics-out`` CLI flags and grid cache stats."""

import json

import pytest

from repro.cli import main
from repro.obs import MetricsSnapshot

_SERVE = [
    "serve", "opt-6.7b", "--config", "S", "--gen-tokens", "4",
    "--qps", "0.5", "--num-requests", "20", "--seed", "0",
]
_FLEET = [
    "fleet", "opt-6.7b", "--config", "S", "--gen-tokens", "4",
    "--qps", "1.0", "--num-requests", "20", "--seed", "0",
]


def test_serve_trace_out_writes_perfetto_json(capsys, tmp_path):
    path = tmp_path / "trace.json"
    assert main(_SERVE + ["--trace-out", str(path)]) == 0
    assert "Perfetto JSON" in capsys.readouterr().out
    document = json.loads(path.read_text())
    events = document["traceEvents"]
    assert {e["ph"] for e in events} <= {"M", "X", "i"}
    tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert {"device", "requests"} <= tracks


def test_serve_trace_out_never_changes_the_csv(capsys, tmp_path):
    bare, traced = tmp_path / "bare.csv", tmp_path / "traced.csv"
    assert main(_SERVE + ["--csv", str(bare)]) == 0
    assert main(
        _SERVE + ["--csv", str(traced), "--trace-out", str(tmp_path / "t.json")]
    ) == 0
    capsys.readouterr()
    assert bare.read_bytes() == traced.read_bytes()


def test_serve_metrics_out_round_trips(capsys, tmp_path):
    path = tmp_path / "metrics.prom"
    assert main(_SERVE + ["--metrics-out", str(path)]) == 0
    assert "Prometheus text" in capsys.readouterr().out
    text = path.read_text()
    snapshot = MetricsSnapshot.from_prometheus(text)
    assert snapshot.value("repro_requests_total", state="arrived") == 20
    assert snapshot.to_prometheus() == text


def test_fleet_trace_and_metrics_out(capsys, tmp_path):
    trace, metrics = tmp_path / "trace.json", tmp_path / "metrics.prom"
    assert main(
        _FLEET + ["--trace-out", str(trace), "--metrics-out", str(metrics)]
    ) == 0
    capsys.readouterr()
    tracks = {
        e["args"]["name"]
        for e in json.loads(trace.read_text())["traceEvents"]
        if e["ph"] == "M"
    }
    assert "router" in tracks and "device0" in tracks
    snapshot = MetricsSnapshot.from_prometheus(metrics.read_text())
    assert snapshot.value("repro_requests_total", state="arrived") == 20


def test_trace_out_rejects_capacity_search(tmp_path):
    path = str(tmp_path / "t.json")
    with pytest.raises(SystemExit, match="capacity/sizing"):
        main(_SERVE + ["--find-max-qps", "--slo-e2e", "120", "--trace-out", path])
    with pytest.raises(SystemExit, match="capacity/sizing"):
        main(
            _FLEET
            + ["--size-for-qps", "1", "--slo-e2e", "120", "--trace-out", path]
        )


_SLO = ["--slo-ttft", "10", "--slo-e2e", "60"]


def test_serve_timeline_out_writes_the_windowed_csv(capsys, tmp_path):
    from repro.obs import TIMELINE_CSV_FIELDS

    path = tmp_path / "timeline.csv"
    assert main(
        _SERVE + ["--timeline-out", str(path), "--timeline-window", "5"]
    ) == 0
    assert "timeline windows" in capsys.readouterr().out
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TIMELINE_CSV_FIELDS)
    rows = [line.split(",") for line in lines[1:]]
    arrivals = sum(int(cells[3]) for cells in rows)
    completions = sum(int(cells[4]) for cells in rows)
    assert arrivals == completions == 20


def test_serve_timeline_never_changes_the_csv(capsys, tmp_path):
    bare, observed = tmp_path / "bare.csv", tmp_path / "observed.csv"
    assert main(_SERVE + _SLO + ["--csv", str(bare)]) == 0
    assert main(
        _SERVE
        + _SLO
        + [
            "--csv", str(observed),
            "--timeline-out", str(tmp_path / "t.csv"),
            "--alerts",
            "--attribution",
        ]
    ) == 0
    capsys.readouterr()
    assert bare.read_bytes() == observed.read_bytes()


def test_serve_alerts_require_an_slo():
    with pytest.raises(SystemExit, match="SLO"):
        main(_SERVE + ["--alerts"])


def test_serve_alerts_print_the_log_or_say_none_fired(capsys):
    assert main(_SERVE + _SLO + ["--alerts"]) == 0
    output = capsys.readouterr().out
    assert "Alerts" in output  # the table, or "Alerts: none fired"


def test_serve_attribution_prints_the_tables(capsys):
    assert main(_SERVE + ["--attribution"]) == 0
    output = capsys.readouterr().out
    assert "Critical-path attribution" in output
    assert "Makespan chains" in output
    assert "queue (aggregate)" in output


def test_fleet_timeline_and_attribution(capsys, tmp_path):
    from repro.obs import TIMELINE_CSV_FIELDS

    path = tmp_path / "timeline.csv"
    assert main(
        _FLEET + _SLO + ["--timeline-out", str(path), "--alerts", "--attribution"]
    ) == 0
    output = capsys.readouterr().out
    assert "Alerts" in output
    assert "Critical-path attribution" in output
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TIMELINE_CSV_FIELDS)
    assert sum(int(line.split(",")[4]) for line in lines[1:]) == 20


def test_timeline_flags_reject_capacity_search(tmp_path):
    path = str(tmp_path / "t.csv")
    with pytest.raises(SystemExit, match="capacity/sizing"):
        main(
            _SERVE
            + ["--find-max-qps", "--slo-e2e", "120", "--timeline-out", path]
        )
    with pytest.raises(SystemExit, match="capacity/sizing"):
        main(
            _FLEET
            + ["--size-for-qps", "1", "--slo-e2e", "120", "--alerts"]
        )


def test_grid_show_cache_stats(capsys):
    assert main(
        ["grid", "opt-6.7b", "--seq-lens", "500", "--show-cache-stats"]
    ) == 0
    output = capsys.readouterr().out
    assert "Cache stats" in output
    assert "backend evaluations" in output
    assert "in flight" not in output


def test_grid_without_the_flag_stays_quiet(capsys):
    assert main(["grid", "opt-6.7b", "--seq-lens", "500"]) == 0
    assert "Cache stats" not in capsys.readouterr().out
