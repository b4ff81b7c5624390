"""Seeded arrival-process generators for the serving simulator.

Four traffic shapes cover the usual serving studies:

* :class:`PoissonWorkload` — memoryless arrivals at a mean rate (the
  default open-loop load model),
* :class:`ConstantRateWorkload` — perfectly paced arrivals (lower bound
  on queueing),
* :class:`OnOffWorkload` — bursty traffic: Poisson arrivals during "on"
  windows separated by silent "off" windows,
* :class:`TraceWorkload` — replay of a recorded trace (CSV or an explicit
  request list), for reproducing a measured traffic pattern.

Every generator is seeded and purely computational: the same seed yields
the byte-identical arrival sequence on every run, and nothing here reads
the wall clock.  The payload may be a single
:class:`repro.api.request.InferenceRequest` (homogeneous traffic) or a
callable ``(rng, index) -> InferenceRequest`` drawing per-request shapes
from the generator's seeded RNG (heterogeneous traffic).
"""

from __future__ import annotations

import csv
import os
import random
from typing import Callable, Iterator, List, Optional, Sequence, Union

from repro.api.request import InferenceRequest
from repro.serving.request import ServingRequest

#: A fixed payload or a seeded per-request payload factory.
PayloadLike = Union[InferenceRequest, Callable[[random.Random, int], InferenceRequest]]

#: Column order of the on-disk trace format (see :func:`write_trace`).
TRACE_FIELDS = ["arrival_s", "model", "config", "seq_len", "gen_tokens", "batch_size"]

#: Production-shaped trace fixtures shipped with the package.
TRACES_DIR = os.path.join(os.path.dirname(__file__), "traces")


class WorkloadGenerator:
    """Base class: a seeded arrival process over a payload source."""

    def __init__(self, payload: PayloadLike, *, seed: int = 0):
        self.payload = payload
        self.seed = seed

    # -- subclass hook -------------------------------------------------------
    def _arrival_times(self, num_requests: int, rng: random.Random) -> List[float]:
        raise NotImplementedError

    # -- generation ----------------------------------------------------------
    def generate(self, num_requests: int) -> List[ServingRequest]:
        """The first ``num_requests`` arrivals of this process, in order."""
        return list(self.stream(num_requests))

    def stream(self, num_requests: int) -> Iterator[ServingRequest]:
        """The first ``num_requests`` arrivals, yielded one at a time.

        Arrival times are drawn up front (they are cheap floats, and the
        RNG consumes them before any payload draw), but the per-request
        payloads — the bulky part of a heterogeneous stream — are built
        only as the consumer pulls them.  Feeding ``stream(n)`` to a
        ``keep_records=False`` simulation keeps whole-stream state out of
        memory.
        """
        if num_requests < 1:
            raise ValueError("num_requests must be at least 1")
        rng = random.Random(self.seed)
        times = self._arrival_times(num_requests, rng)
        payload = self.payload
        if isinstance(payload, InferenceRequest):
            # A constant payload skips the per-item dispatch entirely —
            # this is the million-request hot path.
            return (
                ServingRequest(when, index, payload)
                for index, when in enumerate(times)
            )
        return (
            ServingRequest(when, index, payload(rng, index))
            for index, when in enumerate(times)
        )


class PoissonWorkload(WorkloadGenerator):
    """Open-loop Poisson arrivals at ``rate_qps`` requests per second."""

    def __init__(self, rate_qps: float, payload: PayloadLike, *, seed: int = 0):
        if rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        super().__init__(payload, seed=seed)
        self.rate_qps = rate_qps

    def _arrival_times(self, num_requests: int, rng: random.Random) -> List[float]:
        times, now = [], 0.0
        for _ in range(num_requests):
            now += rng.expovariate(self.rate_qps)
            times.append(now)
        return times


class ConstantRateWorkload(WorkloadGenerator):
    """Perfectly paced arrivals: request ``i`` arrives at ``i / rate_qps``."""

    def __init__(self, rate_qps: float, payload: PayloadLike, *, seed: int = 0):
        if rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        super().__init__(payload, seed=seed)
        self.rate_qps = rate_qps

    def _arrival_times(self, num_requests: int, rng: random.Random) -> List[float]:
        return [index / self.rate_qps for index in range(num_requests)]


class OnOffWorkload(WorkloadGenerator):
    """Bursty traffic: Poisson at ``burst_qps`` during on-windows only.

    The process alternates ``on_seconds`` of Poisson arrivals with
    ``off_seconds`` of silence.  Arrivals are drawn on a compressed
    "active time" axis and mapped onto the wall axis by inserting the off
    windows, so the burst statistics inside each on-window are exactly
    Poisson and the whole sequence stays seed-deterministic.
    """

    def __init__(
        self,
        burst_qps: float,
        payload: PayloadLike,
        *,
        on_seconds: float = 1.0,
        off_seconds: float = 1.0,
        seed: int = 0,
    ):
        if burst_qps <= 0:
            raise ValueError("burst_qps must be positive")
        if on_seconds <= 0 or off_seconds < 0:
            raise ValueError("on_seconds must be positive and off_seconds >= 0")
        super().__init__(payload, seed=seed)
        self.burst_qps = burst_qps
        self.on_seconds = on_seconds
        self.off_seconds = off_seconds

    def _arrival_times(self, num_requests: int, rng: random.Random) -> List[float]:
        times, active = [], 0.0
        period = self.on_seconds + self.off_seconds
        for _ in range(num_requests):
            active += rng.expovariate(self.burst_qps)
            window, offset = divmod(active, self.on_seconds)
            times.append(window * period + offset)
        return times


class TraceWorkload:
    """Replay of an explicit, pre-timestamped request sequence."""

    def __init__(self, requests: Sequence[ServingRequest]):
        if not requests:
            raise ValueError("a trace must contain at least one request")
        self._requests = sorted(requests)

    @classmethod
    def from_csv(cls, path: str) -> "TraceWorkload":
        """Load a trace written by :func:`write_trace` (or by hand)."""
        requests = []
        with open(path, newline="") as handle:
            for index, row in enumerate(csv.DictReader(handle)):
                requests.append(
                    ServingRequest(
                        arrival_s=float(row["arrival_s"]),
                        request_id=index,
                        request=InferenceRequest(
                            model=row["model"],
                            config=row.get("config") or None,
                            seq_len=int(row["seq_len"]),
                            gen_tokens=int(row["gen_tokens"]),
                            batch_size=int(row.get("batch_size") or 1),
                        ),
                    )
                )
        return cls(requests)

    def generate(self, num_requests: Optional[int] = None) -> List[ServingRequest]:
        """The whole trace, or its first ``num_requests`` arrivals."""
        if num_requests is None:
            return list(self._requests)
        if num_requests < 1:
            raise ValueError("num_requests must be at least 1")
        if num_requests > len(self._requests):
            raise ValueError(
                f"trace has only {len(self._requests)} requests, "
                f"{num_requests} were requested"
            )
        return self._requests[:num_requests]


def list_bundled_traces() -> List[str]:
    """Names of the trace fixtures shipped under ``repro/serving/traces``."""
    if not os.path.isdir(TRACES_DIR):
        return []
    return sorted(
        name[: -len(".csv")]
        for name in os.listdir(TRACES_DIR)
        if name.endswith(".csv")
    )


def load_bundled_trace(name: str) -> TraceWorkload:
    """A bundled production-shaped trace as a :class:`TraceWorkload`.

    Two fixtures ship with the package:

    * ``"diurnal"`` — a day-shaped load curve compressed to ~10 simulated
      minutes: sine-modulated Poisson arrivals (quiet night, busy peak)
      with chat-shaped heavy-tailed generation lengths;
    * ``"flash_crowd"`` — a quiet baseline rate hit by a ~40x arrival
      spike (a link going viral), then back to the baseline.
    """
    path = os.path.join(TRACES_DIR, f"{name}.csv")
    if not os.path.isfile(path):
        available = ", ".join(list_bundled_traces()) or "none"
        raise KeyError(f"unknown bundled trace {name!r}; available: {available}")
    return TraceWorkload.from_csv(path)


def write_trace(path: str, requests: Sequence[ServingRequest]) -> None:
    """Persist arrivals as CSV so :meth:`TraceWorkload.from_csv` can replay them."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TRACE_FIELDS)
        for serving_request in sorted(requests):
            request = serving_request.request
            writer.writerow(
                [
                    serving_request.arrival_s,
                    request.model_name,
                    request.config or "",
                    request.seq_len,
                    request.gen_tokens,
                    request.batch_size,
                ]
            )
