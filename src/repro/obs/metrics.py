"""Labeled metrics registry with Prometheus-style text exposition.

The simulators already count a lot — event-loop iterations, backend
cache hits, KV spill/refill/GC activity, router decisions — but each
counter lives on whichever object happened to own it.  This module gives
them one home: a :class:`MetricsRegistry` of labeled counters, gauges
and histograms, snapshotted into an immutable :class:`MetricsSnapshot`
that renders Prometheus text exposition, parses it back
(:meth:`MetricsSnapshot.from_prometheus`), and diffs against another
snapshot (:meth:`MetricsSnapshot.delta`).

:func:`serving_snapshot` and :func:`fleet_snapshot` absorb a finished
report (plus optional backend cost models) into a snapshot, so the CLI's
``--metrics-out`` and the tests need no per-counter plumbing.

Everything here is derived from simulation state, so snapshots are as
deterministic as the run that produced them; the exposition sorts
families, samples and labels, making the text byte-stable.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Histogram bucket bounds (seconds) sized for simulated serving
#: latencies: sub-millisecond steps up to multi-minute end-to-end times.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.01,
    0.1,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)

#: ``(label, value)`` pairs, sorted by label — the sample key.
_Labels = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_number(value: float) -> str:
    """Prometheus sample value rendering; integers drop the ``.0``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _parse_number(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unquote_label(quoted: str) -> str:
    """Validate and unescape one ``"..."`` label value from exposition.

    Strict: rejects (``ValueError``) anything :func:`_escape_label`
    could not have produced — a missing quote, an unescaped interior
    quote, or a backslash that swallows the closing quote — instead of
    silently mis-parsing the line.
    """
    if len(quoted) < 2 or quoted[0] != '"' or quoted[-1] != '"':
        raise ValueError(f"label value must be double-quoted: {quoted!r}")
    out: List[str] = []
    it = iter(quoted[1:-1])
    for char in it:
        if char == "\\":
            nxt = next(it, None)
            if nxt is None:
                raise ValueError(f"label value ends in a bare backslash: {quoted!r}")
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
        elif char == '"':
            raise ValueError(f"unescaped quote inside label value: {quoted!r}")
        else:
            out.append(char)
    return "".join(out)


def _escape_help(text: str) -> str:
    """HELP-line escaping (Prometheus spec: ``\\`` and newlines only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _unescape_help(text: str) -> str:
    out: List[str] = []
    it = iter(text)
    for char in it:
        if char == "\\":
            nxt = next(it, "")
            out.append({"n": "\n", "\\": "\\"}.get(nxt, nxt))
        else:
            out.append(char)
    return "".join(out)


class _Family:
    """One named metric family: type, help text, labeled samples."""

    __slots__ = ("name", "kind", "help", "samples", "buckets")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        #: labels -> value for counter/gauge; labels -> [bucket counts...,
        #: sum, count] for histograms (bucket counts are cumulative).
        self.samples: Dict[_Labels, object] = {}
        self.buckets = tuple(buckets) if buckets is not None else None


class Counter:
    """Monotonic labeled counter."""

    __slots__ = ("_family",)

    def __init__(self, family: _Family) -> None:
        self._family = family

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        key = _label_key(labels)
        samples = self._family.samples
        samples[key] = samples.get(key, 0.0) + amount


class Gauge:
    """Labeled gauge: set to the latest observed value."""

    __slots__ = ("_family",)

    def __init__(self, family: _Family) -> None:
        self._family = family

    def set(self, value: float, **labels: str) -> None:
        self._family.samples[_label_key(labels)] = float(value)


class Histogram:
    """Labeled histogram with cumulative buckets, sum and count."""

    __slots__ = ("_family",)

    def __init__(self, family: _Family) -> None:
        self._family = family

    def observe(self, value: float, **labels: str) -> None:
        family = self._family
        key = _label_key(labels)
        state = family.samples.get(key)
        if state is None:
            state = family.samples[key] = [0] * len(family.buckets) + [0.0, 0]
        for index, bound in enumerate(family.buckets):
            if value <= bound:
                state[index] += 1
        state[-2] += value
        state[-1] += 1


class MetricsRegistry:
    """A set of metric families; snapshot it to read or export."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, kind, help_text, buckets)
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        return family

    def counter(self, name: str, help_text: str = "") -> Counter:
        return Counter(self._family(name, "counter", help_text))

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return Gauge(self._family(name, "gauge", help_text))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return Histogram(self._family(name, "histogram", help_text, buckets))

    def snapshot(self) -> "MetricsSnapshot":
        """Freeze the current sample values into a snapshot.

        Histograms expand into their exposition samples
        (``*_bucket{le=...}`` cumulative counts, ``*_sum``, ``*_count``)
        so the snapshot is a flat, immutable number-per-key mapping.
        """
        families: Dict[str, Tuple[str, str]] = {}
        samples: Dict[Tuple[str, _Labels], float] = {}
        for name, family in self._families.items():
            families[name] = (family.kind, family.help)
            if family.kind != "histogram":
                for labels, value in family.samples.items():
                    samples[(name, labels)] = float(value)
                continue
            bounds = list(family.buckets) + [math.inf]
            for labels, state in family.samples.items():
                counts = list(state[:-2]) + [state[-1]]
                for bound, count in zip(bounds, counts):
                    le = (("le", _format_number(bound)),)
                    samples[(name + "_bucket", labels + le)] = float(count)
                samples[(name + "_sum", labels)] = float(state[-2])
                samples[(name + "_count", labels)] = float(state[-1])
        return MetricsSnapshot(families, samples)


class MetricsSnapshot:
    """Immutable view of a registry's samples at one moment.

    Supports Prometheus text exposition (:meth:`to_prometheus`), parsing
    that text back (:meth:`from_prometheus` — the round trip is
    byte-identical), point lookups (:meth:`value`) and differencing
    (:meth:`delta`).
    """

    __slots__ = ("families", "samples")

    def __init__(
        self,
        families: Dict[str, Tuple[str, str]],
        samples: Dict[Tuple[str, _Labels], float],
    ) -> None:
        #: family name -> (type, help text)
        self.families = dict(families)
        #: (sample name, sorted labels) -> value
        self.samples = dict(samples)

    def __len__(self) -> int:
        return len(self.samples)

    def value(self, name: str, **labels: str) -> Optional[float]:
        """One sample's value, or None when absent."""
        return self.samples.get((name, _label_key(labels)))

    def _family_of_sample(self, sample_name: str) -> str:
        if sample_name in self.families:
            return sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if base in self.families:
                    return base
        return sample_name

    def to_prometheus(self, path: Optional[str] = None) -> str:
        """Prometheus text exposition, sorted and therefore byte-stable."""
        grouped: Dict[str, List[Tuple[str, _Labels, float]]] = {}
        for (sample_name, labels), value in self.samples.items():
            grouped.setdefault(self._family_of_sample(sample_name), []).append(
                (sample_name, labels, value)
            )
        lines: List[str] = []
        for family_name in sorted(set(self.families) | set(grouped)):
            kind, help_text = self.families.get(family_name, ("untyped", ""))
            if help_text:
                lines.append(f"# HELP {family_name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {family_name} {kind}")
            for sample_name, labels, value in sorted(
                grouped.get(family_name, ()),
                key=lambda item: (item[0], item[1]),
            ):
                if labels:
                    rendered = ",".join(
                        f'{key}="{_escape_label(val)}"' for key, val in labels
                    )
                    lines.append(
                        f"{sample_name}{{{rendered}}} {_format_number(value)}"
                    )
                else:
                    lines.append(f"{sample_name} {_format_number(value)}")
        text = "\n".join(lines) + "\n" if lines else ""
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text

    @classmethod
    def from_prometheus(cls, text: str) -> "MetricsSnapshot":
        """Parse text exposition back into a snapshot.

        Inverse of :meth:`to_prometheus` for everything this module
        emits: ``snapshot.to_prometheus()`` parsed and re-rendered is
        byte-identical.
        """
        families: Dict[str, Tuple[str, str]] = {}
        helps: Dict[str, str] = {}
        samples: Dict[Tuple[str, _Labels], float] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("# HELP "):
                name, _, help_text = line[len("# HELP ") :].partition(" ")
                helps[name] = _unescape_help(help_text)
                continue
            if line.startswith("# TYPE "):
                name, _, kind = line[len("# TYPE ") :].partition(" ")
                families[name] = (kind, helps.get(name, ""))
                continue
            if line.startswith("#"):
                continue
            if "{" in line:
                sample_name, _, rest = line.partition("{")
                rendered, closed, value_text = rest.rpartition("} ")
                if not closed:
                    raise ValueError(f"malformed sample line: {line!r}")
                labels: List[Tuple[str, str]] = []
                for part in _split_labels(rendered):
                    key, equals, quoted = part.partition("=")
                    if not equals or not key:
                        raise ValueError(
                            f"malformed label {part!r} in line: {line!r}"
                        )
                    labels.append((key, _unquote_label(quoted)))
                samples[(sample_name, tuple(labels))] = _parse_number(
                    value_text.strip()
                )
            else:
                sample_name, _, value_text = line.rpartition(" ")
                samples[(sample_name, ())] = _parse_number(value_text)
        return cls(families, samples)

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """What changed since ``earlier``.

        Counter and histogram samples subtract (a sample absent earlier
        counts as 0); gauges keep this snapshot's value — a gauge is a
        level, not an accumulation.
        """
        samples: Dict[Tuple[str, _Labels], float] = {}
        for key, value in self.samples.items():
            family = self._family_of_sample(key[0])
            kind = self.families.get(family, ("untyped", ""))[0]
            if kind == "gauge":
                samples[key] = value
            else:
                samples[key] = value - earlier.samples.get(key, 0.0)
        return MetricsSnapshot(self.families, samples)


def _split_labels(rendered: str) -> Iterable[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in rendered:
        if escaped:
            current.append(char)
            escaped = False
        elif char == "\\":
            current.append(char)
            escaped = True
        elif char == '"':
            current.append(char)
            in_quotes = not in_quotes
        elif char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        parts.append("".join(current))
    return parts


# -- absorption: reports -> registry ----------------------------------------


def _absorb_serving(
    registry: MetricsRegistry,
    report,
    device: Optional[str] = None,
) -> None:
    """Fold one ServingReport's counters into the registry.

    ``device`` labels every sample when given (the fleet view); the
    single-device view emits unlabeled samples.
    """
    labels = {} if device is None else {"device": device}
    requests = registry.counter(
        "repro_requests_total", "Requests by lifecycle state"
    )
    requests.inc(report.num_requests, state="arrived", **labels)
    requests.inc(report.num_completed, state="completed", **labels)
    registry.counter(
        "repro_output_tokens_total", "Generated tokens across completed requests"
    ).inc(report.total_output_tokens, **labels)
    registry.gauge("repro_makespan_seconds", "Simulated makespan").set(
        report.makespan_s, **labels
    )
    registry.gauge(
        "repro_busy_seconds", "Device-busy simulated seconds"
    ).set(report.busy_s, **labels)
    registry.gauge(
        "repro_queue_depth_max", "Maximum waiting-queue depth"
    ).set(report.max_queue_depth, **labels)
    if report.num_events is not None:
        registry.counter(
            "repro_events_total", "Event-loop iterations processed"
        ).inc(report.num_events, **labels)
    event_queue = getattr(report, "event_queue", None)
    if event_queue is not None:
        ops = registry.counter(
            "repro_event_queue_ops_total", "Event heap operations"
        )
        ops.inc(event_queue["pushes"], op="push", **labels)
        ops.inc(event_queue["pops"], op="pop", **labels)
        registry.gauge(
            "repro_event_queue_max_depth", "Peak event heap size"
        ).set(event_queue["max_depth"], **labels)
    if report.slo is not None:
        registry.counter(
            "repro_slo_met_total", "Requests meeting the attached SLO"
        ).inc(report._met_count(report.slo), **labels)
    memory = report.memory
    if memory is not None:
        kv_ops = registry.counter(
            "repro_kv_memory_ops_total", "KV spill/refill operations"
        )
        kv_ops.inc(memory.spill_events, op="spill", **labels)
        kv_ops.inc(memory.refill_events, op="refill", **labels)
        kv_bytes = registry.counter(
            "repro_kv_memory_bytes_total", "KV bytes spilled/refilled"
        )
        kv_bytes.inc(memory.spill_bytes, op="spill", **labels)
        kv_bytes.inc(memory.refill_bytes, op="refill", **labels)
        pages = registry.counter(
            "repro_flash_pages_total", "Flash pages written/read"
        )
        pages.inc(memory.flash_pages_written, op="write", **labels)
        pages.inc(memory.flash_pages_read, op="read", **labels)
        registry.counter(
            "repro_flash_gc_page_copies_total", "Pages relocated by flash GC"
        ).inc(memory.gc_page_copies, **labels)
        registry.counter(
            "repro_flash_erases_total", "Flash block erases"
        ).inc(memory.erases, **labels)
        registry.gauge(
            "repro_dram_high_water_bytes", "Peak DRAM pool occupancy"
        ).set(memory.dram_high_water_bytes, **labels)
    for metric, unit_name in (
        ("ttft", "repro_ttft_seconds"),
        ("tpot", "repro_tpot_seconds"),
        ("e2e", "repro_e2e_seconds"),
        ("queue_wait", "repro_queue_wait_seconds"),
    ):
        histogram = registry.histogram(
            unit_name, f"Per-request {metric} latency"
        )
        for value in report._sorted_metric(metric):
            histogram.observe(value, **labels)


def _absorb_cache_info(
    registry: MetricsRegistry, cache_info, backend: Optional[str] = None
) -> None:
    labels = {} if backend is None else {"backend": backend}
    cache = registry.counter(
        "repro_backend_cache_total", "Backend latency and profile cache lookups"
    )
    for layer in ("latency", "profile"):
        cache.inc(cache_info[f"{layer}_hits"], layer=layer, result="hit", **labels)
        cache.inc(cache_info[f"{layer}_misses"], layer=layer, result="miss", **labels)
    size = registry.gauge(
        "repro_backend_cache_size", "Memoized cache entries per layer"
    )
    size.set(cache_info["latency_size"], layer="latency", **labels)
    size.set(cache_info["profile_size"], layer="profile", **labels)


def serving_snapshot(report, cost_model=None) -> MetricsSnapshot:
    """One ServingReport (plus optional BackendCostModel) as a snapshot."""
    registry = MetricsRegistry()
    _absorb_serving(registry, report)
    if cost_model is not None:
        _absorb_cache_info(registry, cost_model.cache_info())
    return registry.snapshot()


def fleet_snapshot(report, cost_models=None) -> MetricsSnapshot:
    """One FleetReport as a snapshot: fleet-wide plus per-device samples."""
    registry = MetricsRegistry()
    # The merged view carries the loop's global event and heap counters.
    _absorb_serving(registry, report._merged)
    routed = registry.counter(
        "repro_router_decisions_total", "Requests routed per device"
    )
    for index, device_report in enumerate(report.device_reports):
        device = str(index)
        routed.inc(device_report.num_requests, router=report.router_name, device=device)
        registry.gauge(
            "repro_device_utilization", "Per-device busy fraction of the makespan"
        ).set(device_report.utilization, device=device)
        registry.gauge(
            "repro_busy_seconds", "Device-busy simulated seconds"
        ).set(device_report.busy_s, device=device)
        memory = device_report.memory
        if memory is not None:
            kv_ops = registry.counter(
                "repro_kv_memory_ops_total", "KV spill/refill operations"
            )
            kv_ops.inc(memory.spill_events, op="spill", device=device)
            kv_ops.inc(memory.refill_events, op="refill", device=device)
    if cost_models is not None:
        for index, cost_model in enumerate(cost_models):
            _absorb_cache_info(registry, cost_model.cache_info(), backend=str(index))
    return registry.snapshot()
