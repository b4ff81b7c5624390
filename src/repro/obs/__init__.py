"""repro.obs — deterministic tracing, metrics, timelines and alerts.

Five independent instruments over the serving/fleet/memory stack:

* :mod:`repro.obs.recorder` — sim-time span/instant tracer with a
  zero-overhead disabled default, byte-stable Perfetto export, and a
  :class:`TeeRecorder` for composing observers on one seam;
* :mod:`repro.obs.metrics` — labeled counters/gauges/histograms behind
  one :class:`MetricsSnapshot` with Prometheus text exposition;
* :mod:`repro.obs.timeline` — a :class:`TimelineCollector` folding the
  event loop's resolved requests and ended occupancies (plus memory and
  fault instants) into fixed-width windows on the simulated clock
  (rates, goodput, queue depth, utilization, KV traffic, exact
  per-window latency percentiles) with CSV and gauge-view exports;
* :mod:`repro.obs.alerts` — declarative threshold / sustained /
  SLO-burn-rate rules evaluated as windows close, yielding a
  deterministic :class:`AlertLog` of fire/resolve events;
* :mod:`repro.obs.critpath` — :func:`critical_path` attribution over a
  recorded span stream: per-request and tail phase breakdowns, flash
  I/O shares, and each device's makespan-critical occupancy chain.

The cardinal rule, enforced by the byte-identity test battery: attaching
any of these never changes what the simulation computes — traces,
reports and makespans are identical with and without observers.
"""

from repro.obs.alerts import (
    AlertEvent,
    AlertLog,
    AlertRule,
    BurnRateRule,
    SustainedRule,
    ThresholdRule,
    burn_rate_pack,
    evaluate_alerts,
)
from repro.obs.critpath import (
    CriticalPathReport,
    OccupancyChain,
    RequestAttribution,
    critical_path,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    fleet_snapshot,
    serving_snapshot,
)
from repro.obs.recorder import (
    DECODE,
    PREFILL,
    QUEUE,
    REFILL,
    NullRecorder,
    Recorder,
    SpanRecorder,
    TeeRecorder,
    record_request_phases,
)
from repro.obs.timeline import TIMELINE_CSV_FIELDS, TimelineCollector

__all__ = [
    "AlertEvent",
    "AlertLog",
    "AlertRule",
    "BurnRateRule",
    "Counter",
    "CriticalPathReport",
    "DECODE",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRecorder",
    "OccupancyChain",
    "PREFILL",
    "QUEUE",
    "Recorder",
    "REFILL",
    "RequestAttribution",
    "SpanRecorder",
    "SustainedRule",
    "TeeRecorder",
    "ThresholdRule",
    "TIMELINE_CSV_FIELDS",
    "TimelineCollector",
    "burn_rate_pack",
    "critical_path",
    "evaluate_alerts",
    "fleet_snapshot",
    "record_request_phases",
    "serving_snapshot",
]
