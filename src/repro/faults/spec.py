"""Deterministic fault schedules and client resilience policies.

Everything here is a pure function of its inputs — there is no wall
clock and no global random state, so a :class:`FaultSpec` with a fixed
seed produces the same per-device fault schedule on every run, on every
platform, regardless of ``PYTHONHASHSEED``.  That is what makes chaos
runs *pinnable*: the acceptance tests assert exact availability and
time-to-recover numbers, not distributions.

Two ways to describe faults
---------------------------

*Explicit windows* (``crash_windows`` / ``slow_windows``) name exact
``(device, start_s, duration_s)`` intervals and are the right tool for
examples and pinned tests ("device 1 crashes at t=120 for 45 s").

*Random schedules* (``crash_mtbf_s`` / ``slow_mtbf_s``) draw
exponentially distributed gaps and durations from a per-device
``random.Random`` seeded with a string key — ``random.Random`` hashes
string seeds with SHA-512 internally, so the stream is stable across
interpreter runs.  Both styles compose: explicit windows merge into the
random stream.

Per-device schedules are lazy, infinite iterators: the event loop only
materialises fault events up to the simulated horizon it actually
reaches.

Tie-breaking inside a schedule
------------------------------

When two fault transitions land on the same instant for the same
device, *ends sort before starts* (``RECOVER`` < ``SLOW_END`` <
``CRASH`` < ``SLOW_START``), so a back-to-back recover/crash pair never
leaves the device in a zero-width ambiguous state.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from math import inf
from typing import Iterable, Iterator, Optional, Tuple

__all__ = [
    "CRASH",
    "RECOVER",
    "SLOW_START",
    "SLOW_END",
    "FaultEvent",
    "FaultSpec",
    "FaultInjector",
    "RetryPolicy",
]

#: Fault transition kinds, in same-instant tie-break order (ends first).
RECOVER = "recover"
SLOW_END = "slow_end"
CRASH = "crash"
SLOW_START = "slow_start"

#: Same-instant tie-break priorities: ends before starts.
_PRIORITY = {RECOVER: 0, SLOW_END: 1, CRASH: 2, SLOW_START: 3}


def _unit(seed: int, *parts: object) -> float:
    """A deterministic, platform-stable draw in ``[0, 1)``.

    Keyed on ``(seed, parts)`` through SHA-256 so the same request /
    attempt pair always sees the same value — a retry of request 7
    reshuffles nothing else in the run.
    """
    digest = hashlib.sha256(repr((seed,) + parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _check_positive(name: str, value: float) -> None:
    """Reject anything but a finite number above 0 (NaN included)."""
    if not 0 < value < inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _window_ok(window: tuple) -> bool:
    """A window starts at a finite time >= 0 and lasts a finite time > 0."""
    return 0 <= window[1] < inf and 0 < window[2] < inf


@dataclass(frozen=True)
class FaultEvent:
    """One fault transition on one device, on the simulated clock."""

    time_s: float
    action: str
    #: Slowdown multiplier carried by :data:`SLOW_START` events.
    factor: float = 1.0


@dataclass(frozen=True)
class FaultSpec:
    """A seeded description of what goes wrong, and when.

    All times are simulated seconds.  ``None`` MTBFs disable that
    random stream; explicit windows are always honoured.
    """

    #: Base seed for every random stream derived from this spec.
    seed: int = 0
    #: Mean time between crash onsets per device (exponential gaps).
    crash_mtbf_s: Optional[float] = None
    #: Mean time to recovery once crashed (exponential durations).
    crash_mttr_s: float = 30.0
    #: Mean time between slowdown onsets per device.
    slow_mtbf_s: Optional[float] = None
    #: Mean slowdown duration.
    slow_duration_s: float = 30.0
    #: Latency multiplier applied while a slowdown window is open.
    slow_factor: float = 2.0
    #: Per-attempt probability that a finished attempt is judged failed.
    flaky_prob: float = 0.0
    #: Explicit crash windows: ``(device, start_s, duration_s)``.
    crash_windows: Tuple[Tuple[int, float, float], ...] = ()
    #: Explicit slowdown windows: ``(device, start_s, duration_s)`` or
    #: ``(device, start_s, duration_s, factor)``.
    slow_windows: Tuple[Tuple[float, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "crash_windows", tuple(tuple(w) for w in self.crash_windows)
        )
        object.__setattr__(
            self, "slow_windows", tuple(tuple(w) for w in self.slow_windows)
        )
        if self.crash_mtbf_s is not None:
            _check_positive("crash_mtbf_s", self.crash_mtbf_s)
        if self.slow_mtbf_s is not None:
            _check_positive("slow_mtbf_s", self.slow_mtbf_s)
        _check_positive("crash_mttr_s", self.crash_mttr_s)
        _check_positive("slow_duration_s", self.slow_duration_s)
        _check_positive("slow_factor", self.slow_factor)
        if not 0.0 <= self.flaky_prob <= 1.0:
            raise ValueError(f"flaky_prob must be in [0, 1], got {self.flaky_prob}")
        for window in self.crash_windows:
            if len(window) != 3:
                raise ValueError(f"crash window must be (device, start, duration): {window}")
            if not _window_ok(window):
                raise ValueError(f"bad crash window {window}")
        for window in self.slow_windows:
            if len(window) not in (3, 4):
                raise ValueError(
                    f"slow window must be (device, start, duration[, factor]): {window}"
                )
            if not (_window_ok(window) and all(0 < f < inf for f in window[3:])):
                raise ValueError(f"bad slow window {window}")

    @property
    def any_faults(self) -> bool:
        return bool(
            self.crash_mtbf_s
            or self.slow_mtbf_s
            or self.flaky_prob
            or self.crash_windows
            or self.slow_windows
        )


def _window_stream(
    windows: Iterable[Tuple[float, ...]],
    start_action: str,
    end_action: str,
    default_factor: float,
) -> Iterator[Tuple[float, int, FaultEvent]]:
    """Explicit windows as a sorted (time, priority, event) stream."""
    for window in sorted(windows, key=lambda w: w[1]):
        start, duration = window[1], window[2]
        factor = window[3] if len(window) > 3 else default_factor
        yield (start, _PRIORITY[start_action], FaultEvent(start, start_action, factor))
        end = start + duration
        yield (end, _PRIORITY[end_action], FaultEvent(end, end_action))


def _random_stream(
    rng: "random.Random",
    mtbf_s: float,
    mean_duration_s: float,
    start_action: str,
    end_action: str,
    factor: float,
) -> Iterator[Tuple[float, int, FaultEvent]]:
    """An infinite, lazily drawn alternating up/down stream."""
    now = 0.0
    while True:
        now += rng.expovariate(1.0 / mtbf_s)
        yield (now, _PRIORITY[start_action], FaultEvent(now, start_action, factor))
        now += rng.expovariate(1.0 / mean_duration_s)
        yield (now, _PRIORITY[end_action], FaultEvent(now, end_action))


class _DeviceSchedule:
    """Lazy cursor over one device's merged fault stream."""

    __slots__ = ("head", "_events")

    def __init__(self, events: Iterator[FaultEvent]) -> None:
        self._events = events
        self.head: Optional[FaultEvent] = next(events, None)

    @property
    def head_time(self) -> Optional[float]:
        return None if self.head is None else self.head.time_s

    def pop(self) -> FaultEvent:
        event = self.head
        if event is None:
            raise IndexError("pop from exhausted fault schedule")
        self.head = next(self._events, None)
        return event


class FaultInjector:
    """Materialises a :class:`FaultSpec` into per-device schedules.

    One injector is built per run; :meth:`cursor` hands the event loop a
    lazy iterator per device, and :meth:`attempt_fails` answers the
    flaky-failure question for a finished attempt with a draw keyed on
    ``(request_id, attempt)`` — deterministic, and independent of every
    other draw in the run.
    """

    def __init__(self, spec: FaultSpec, num_devices: int) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        self.spec = spec
        self.num_devices = num_devices
        self._schedules = [
            _DeviceSchedule(self._events(device)) for device in range(num_devices)
        ]

    def _events(self, device: int) -> Iterator[FaultEvent]:
        spec = self.spec
        streams = []
        crash_windows = [w for w in spec.crash_windows if w[0] == device]
        if crash_windows:
            streams.append(_window_stream(crash_windows, CRASH, RECOVER, 1.0))
        slow_windows = [w for w in spec.slow_windows if w[0] == device]
        if slow_windows:
            streams.append(
                _window_stream(slow_windows, SLOW_START, SLOW_END, spec.slow_factor)
            )
        if spec.crash_mtbf_s is not None:
            rng = random.Random(f"{spec.seed}/crash/{device}")
            streams.append(
                _random_stream(rng, spec.crash_mtbf_s, spec.crash_mttr_s, CRASH, RECOVER, 1.0)
            )
        if spec.slow_mtbf_s is not None:
            rng = random.Random(f"{spec.seed}/slow/{device}")
            streams.append(
                _random_stream(
                    rng, spec.slow_mtbf_s, spec.slow_duration_s, SLOW_START, SLOW_END, spec.slow_factor
                )
            )
        merged = heapq.merge(*streams, key=lambda item: (item[0], item[1]))
        return (item[2] for item in merged)

    def cursor(self, device: int) -> _DeviceSchedule:
        return self._schedules[device]

    def attempt_fails(self, request_id: int, attempt: int, salt: str = "") -> bool:
        """Whether a finished attempt is judged a flaky failure.

        ``salt`` separates draw streams that share a (request, attempt)
        key — the engine passes ``"hedge"`` for hedge attempts so a hedge
        and its primary get independent verdicts.
        """
        prob = self.spec.flaky_prob
        if prob <= 0.0:
            return False
        return _unit(self.spec.seed, "flaky", request_id, attempt, salt) < prob


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry (and optional hedging) knobs.

    ``max_attempts`` counts the first attempt: the default of 3 means
    "retry twice".  Backoff is exponential with deterministic jitter —
    the jitter draw is keyed on ``(request_id, attempt)`` so schedules
    are reproducible yet decorrelated across requests.
    """

    max_attempts: int = 3
    backoff_s: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.0
    seed: int = 0
    #: When set, a hedge attempt is dispatched if the first token has
    #: not been produced this many seconds after arrival.
    hedge_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.max_attempts >= 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0 <= self.backoff_s < inf:
            raise ValueError(f"backoff_s must be >= 0 and finite, got {self.backoff_s}")
        _check_positive("multiplier", self.multiplier)
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.hedge_after_s is not None:
            _check_positive("hedge_after_s", self.hedge_after_s)

    def delay_s(self, attempt: int, request_id: int) -> float:
        """Backoff before attempt ``attempt + 1`` (``attempt`` just failed)."""
        delay = self.backoff_s * self.multiplier ** (attempt - 1)
        if self.jitter:
            unit = _unit(self.seed, "retry", request_id, attempt)
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return delay
