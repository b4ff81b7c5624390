"""The metrics registry, Prometheus round trip, and report absorption."""

import math

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.fleet import build_fleet, get_router, simulate_fleet
from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    fleet_snapshot,
    serving_snapshot,
)
from repro.serving import (
    BackendCostModel,
    ContinuousBatchScheduler,
    PoissonWorkload,
    SLOSpec,
    simulate,
)

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=8)


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    requests = registry.counter("requests_total", "Requests seen")
    requests.inc(3, state="ok")
    requests.inc(1, state="err")
    registry.gauge("depth", "Queue depth").set(7)
    histogram = registry.histogram("latency_seconds", "Latency", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        histogram.observe(value)
    return registry


# -- primitives ---------------------------------------------------------------

def test_counter_accumulates_per_label_set():
    snapshot = _registry().snapshot()
    assert snapshot.value("requests_total", state="ok") == 3
    assert snapshot.value("requests_total", state="err") == 1
    assert snapshot.value("requests_total", state="nope") is None


def test_counters_are_monotonic():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("c").inc(-1)


def test_kind_conflicts_are_rejected():
    registry = MetricsRegistry()
    registry.counter("x", "first")
    with pytest.raises(ValueError):
        registry.gauge("x")
    # Same kind re-registration shares the family.
    registry.counter("x").inc(2)
    registry.counter("x").inc(3)
    assert registry.snapshot().value("x") == 5


def test_histogram_expands_to_exposition_samples():
    snapshot = _registry().snapshot()
    assert snapshot.value("latency_seconds_bucket", le="0.1") == 1
    assert snapshot.value("latency_seconds_bucket", le="1") == 2
    assert snapshot.value("latency_seconds_bucket", le="+Inf") == 3
    assert snapshot.value("latency_seconds_count") == 3
    assert snapshot.value("latency_seconds_sum") == pytest.approx(5.55)


# -- exposition round trip ----------------------------------------------------

def test_prometheus_text_is_sorted_and_byte_stable():
    text = _registry().snapshot().to_prometheus()
    assert text.startswith("# HELP depth Queue depth\n# TYPE depth gauge\n")
    assert 'requests_total{state="err"} 1' in text
    assert text == _registry().snapshot().to_prometheus()


def test_prometheus_round_trip_is_byte_identical():
    snapshot = _registry().snapshot()
    text = snapshot.to_prometheus()
    parsed = MetricsSnapshot.from_prometheus(text)
    assert parsed.to_prometheus() == text
    assert parsed.samples == snapshot.samples
    assert parsed.families == snapshot.families


def test_label_values_escape_and_unescape():
    registry = MetricsRegistry()
    weird = 'multi\nline "quoted" back\\slash'
    registry.counter("odd_total").inc(1, label=weird)
    snapshot = registry.snapshot()
    parsed = MetricsSnapshot.from_prometheus(snapshot.to_prometheus())
    assert parsed.value("odd_total", label=weird) == 1


@pytest.mark.parametrize(
    "weird",
    [
        "trailing backslash \\",
        'closer-lookalike "} inside',
        "commas, everywhere, }",
        'all of it: \\ "quoted"\nand, {braces}',
        "\\n literal, not a newline",
    ],
)
def test_hostile_label_values_round_trip(weird):
    registry = MetricsRegistry()
    registry.counter("odd_total").inc(1, label=weird)
    parsed = MetricsSnapshot.from_prometheus(
        registry.snapshot().to_prometheus()
    )
    assert parsed.value("odd_total", label=weird) == 1


def test_help_text_escapes_newlines_and_backslashes():
    registry = MetricsRegistry()
    help_text = "first line\nsecond \\ line"
    registry.gauge("g", help_text).set(1)
    text = registry.snapshot().to_prometheus()
    # The exposition stays one line per directive ...
    assert "# HELP g first line\\nsecond \\\\ line\n" in text
    # ... and the parse restores the original text.
    parsed = MetricsSnapshot.from_prometheus(text)
    assert parsed.families["g"] == ("gauge", help_text)
    assert parsed.to_prometheus() == text


@pytest.mark.parametrize(
    "line",
    [
        'm{a=x} 1',               # unquoted label value
        'm{a="x} 1',              # missing sample separator / closing quote
        'm{a} 1',                 # no "=" at all
        'm{a="x"y"} 1',           # unescaped interior quote
        'm{a="x\\"} 1',           # backslash swallows the closing quote
    ],
)
def test_malformed_sample_lines_are_rejected(line):
    text = f"# TYPE m counter\n{line}\n"
    with pytest.raises(ValueError):
        MetricsSnapshot.from_prometheus(text)


def test_inf_and_nan_values_round_trip():
    registry = MetricsRegistry()
    registry.gauge("g").set(math.inf, which="pos")
    registry.gauge("g").set(-math.inf, which="neg")
    snapshot = registry.snapshot()
    parsed = MetricsSnapshot.from_prometheus(snapshot.to_prometheus())
    assert parsed.value("g", which="pos") == math.inf
    assert parsed.value("g", which="neg") == -math.inf


def test_to_prometheus_writes_the_file(tmp_path):
    path = tmp_path / "metrics.prom"
    text = _registry().snapshot().to_prometheus(str(path))
    assert path.read_text() == text


# -- delta --------------------------------------------------------------------

def test_delta_subtracts_counters_and_keeps_gauges():
    registry = MetricsRegistry()
    registry.counter("hits_total").inc(5)
    registry.gauge("level").set(10)
    earlier = registry.snapshot()
    registry.counter("hits_total").inc(2)
    registry.gauge("level").set(4)
    delta = registry.snapshot().delta(earlier)
    assert delta.value("hits_total") == 2
    assert delta.value("level") == 4  # a gauge is a level, not a sum


def test_delta_with_itself_zeroes_counters():
    snapshot = _registry().snapshot()
    delta = snapshot.delta(snapshot)
    assert delta.value("requests_total", state="ok") == 0
    assert delta.value("latency_seconds_count") == 0
    assert delta.value("depth") == 7


def test_delta_treats_missing_samples_as_zero():
    registry = MetricsRegistry()
    registry.counter("new_total").inc(4)
    delta = registry.snapshot().delta(MetricsSnapshot({}, {}))
    assert delta.value("new_total") == 4


def test_delta_across_disjoint_label_sets():
    registry = MetricsRegistry()
    registry.counter("hits_total").inc(5, route="old")
    earlier = registry.snapshot()
    registry.counter("hits_total").inc(3, route="new")
    delta = registry.snapshot().delta(earlier)
    # The old label set is unchanged (delta 0); the new one appears whole.
    assert delta.value("hits_total", route="old") == 0
    assert delta.value("hits_total", route="new") == 3
    # A sample only the earlier snapshot had simply drops out.
    shrunk = MetricsRegistry()
    shrunk.counter("hits_total").inc(1, route="new")
    delta = shrunk.snapshot().delta(registry.snapshot())
    assert delta.value("hits_total", route="old") is None


def test_delta_surfaces_counter_resets_as_negative():
    registry = MetricsRegistry()
    registry.counter("restarts_total").inc(10)
    earlier = registry.snapshot()
    restarted = MetricsRegistry()
    restarted.counter("restarts_total").inc(2)
    delta = restarted.snapshot().delta(earlier)
    # The caller sees the reset rather than a silently wrong rate.
    assert delta.value("restarts_total") == -8


def test_delta_of_an_unchanged_histogram_is_all_zero():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat", buckets=(1.0,))
    histogram.observe(0.5)
    earlier = registry.snapshot()
    delta = registry.snapshot().delta(earlier)
    assert delta.value("lat_bucket", le="1") == 0
    assert delta.value("lat_bucket", le="+Inf") == 0
    assert delta.value("lat_count") == 0
    assert delta.value("lat_sum") == 0


def test_delta_of_a_never_observed_histogram_has_no_samples():
    registry = MetricsRegistry()
    registry.histogram("lat", buckets=(1.0,))
    # A registered-but-empty histogram exposes no samples, so neither
    # does its delta — absent, not zero, on both sides.
    delta = registry.snapshot().delta(MetricsSnapshot({}, {}))
    assert delta.value("lat_count") is None
    assert delta.value("lat_bucket", le="+Inf") is None
    assert "lat" in delta.families


# -- report absorption --------------------------------------------------------

def _serve_report(cost=None):
    arrivals = PoissonWorkload(3.0, PAYLOAD, seed=5).generate(60)
    return simulate(
        arrivals,
        cost if cost is not None else ToyBackend(),
        ContinuousBatchScheduler(max_batch=4),
        slo=SLOSpec(ttft_s=10.0, e2e_s=60.0),
    )


def test_serving_snapshot_matches_the_report():
    report = _serve_report()
    snapshot = serving_snapshot(report)
    assert snapshot.value("repro_requests_total", state="arrived") == 60
    assert snapshot.value("repro_requests_total", state="completed") == (
        report.num_completed
    )
    assert snapshot.value("repro_makespan_seconds") == report.makespan_s
    assert snapshot.value("repro_events_total") == report.num_events
    queue = report.event_queue
    assert snapshot.value("repro_event_queue_ops_total", op="push") == queue["pushes"]
    assert snapshot.value("repro_event_queue_ops_total", op="pop") == queue["pops"]
    assert snapshot.value("repro_ttft_seconds_count") == len(report.ttfts)
    assert snapshot.value("repro_ttft_seconds_sum") == pytest.approx(
        sum(report.ttfts)
    )
    assert snapshot.value("repro_slo_met_total") == report._met_count(report.slo)


def test_serving_snapshot_absorbs_cost_model_caches():
    cost = BackendCostModel(ToyBackend())
    report = _serve_report(cost)
    snapshot = serving_snapshot(report, cost_model=cost)
    info = cost.cache_info()
    for layer in ("latency", "profile"):
        for result, key in (("hit", "hits"), ("miss", "misses")):
            assert snapshot.value(
                "repro_backend_cache_total", layer=layer, result=result
            ) == info[f"{layer}_{key}"]
        assert snapshot.value("repro_backend_cache_size", layer=layer) == (
            info[f"{layer}_size"]
        )
    assert snapshot.value("repro_backend_cache_evictions_total") is None


def test_fleet_snapshot_labels_per_device_samples():
    arrivals = PoissonWorkload(6.0, PAYLOAD, seed=5).generate(80)
    fleet = build_fleet(
        [ToyBackend()] * 3,
        scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4),
    )
    report = simulate_fleet(arrivals, fleet, get_router("jsq"))
    snapshot = fleet_snapshot(report, cost_models=[d.cost for d in fleet])
    assert snapshot.value("repro_requests_total", state="arrived") == 80
    assert snapshot.value("repro_events_total") == report.num_events
    total_routed = sum(
        snapshot.value("repro_router_decisions_total", router="jsq", device=str(i))
        or 0
        for i in range(3)
    )
    assert total_routed == 80
    for index, device_report in enumerate(report.device_reports):
        assert snapshot.value(
            "repro_device_utilization", device=str(index)
        ) == pytest.approx(device_report.utilization)
    # Per-device cost models absorb under their backend index label.
    assert snapshot.value(
        "repro_backend_cache_size", layer="latency", backend="0"
    ) is not None
    # Fleet snapshots round-trip like any other.
    text = snapshot.to_prometheus()
    assert MetricsSnapshot.from_prometheus(text).to_prometheus() == text
