"""Timestamped serving requests and their lifecycle records.

A :class:`ServingRequest` is what a workload generator emits: an
:class:`repro.api.request.InferenceRequest` payload stamped with an
arrival time on the simulated clock.  The simulator wraps each one in a
mutable :class:`RequestRecord` that accumulates the lifecycle timestamps
(prefill start, first token, finish) from which every SLO metric — queue
wait, TTFT, time-per-output-token, end-to-end latency — is derived.

Fault-injected runs (:mod:`repro.faults`) additionally track resilience
state per record: the attempt count, client retries, the per-attempt
dispatch times, and a terminal ``outcome`` for requests that never
produced a usable result (``"shed"``, ``"timed_out"``, ``"failed"``).
On plain runs every one of those fields keeps its default, so records
from fault-free simulations are unchanged.

All times are seconds on the *simulated* clock; nothing in
:mod:`repro.serving` ever reads the wall clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.api.request import InferenceRequest


@dataclass(frozen=True, order=True, slots=True)
class ServingRequest:
    """One arrival: *when* a request shows up and *what* it asks for.

    Ordering is (arrival time, request id), so a sorted stream of
    serving requests is exactly the order the simulator must see them.
    """

    arrival_s: float
    request_id: int
    request: InferenceRequest = field(compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_s) or self.arrival_s < 0:
            raise ValueError(
                f"arrival_s must be finite and non-negative, got {self.arrival_s!r}"
            )


@dataclass(slots=True)
class RequestRecord:
    """Lifecycle of one :class:`ServingRequest` through the simulator.

    The scheduler stamps ``prefill_start_s`` and ``first_token_s`` when it
    places the request on the device; the event loop stamps ``finish_s``
    when the occupancy that completes it ends.
    """

    source: ServingRequest
    prefill_start_s: Optional[float] = None
    first_token_s: Optional[float] = None
    finish_s: Optional[float] = None

    # -- resilience state (fault-injected runs only) --------------------------
    #: Dispatches to a device on a fault-aware run: 1 once delivered, +1
    #: per client retry and per crash re-queue.  Plain runs leave it 0.
    attempts: int = 0
    #: Client retries dispatched for this request (flaky failures only).
    retries: int = 0
    #: Terminal non-success state: None (pending or served), "shed",
    #: "timed_out", or "failed".  Any non-None outcome is an SLO miss.
    outcome: Optional[str] = None
    #: Simulated dispatch time of each attempt, in order (None until the
    #: first dispatch on a fault-aware run; plain runs never populate it).
    attempt_s: Optional[list] = None
    #: This record is a hedge attempt spawned by a
    #: :class:`repro.faults.RetryPolicy`, not a client request — it never
    #: appears in reports or traces (its stamps are copied to the primary
    #: record if it wins).
    hedge: bool = False
    #: Marked by the loop's fault handling when the record should be
    #: silently dropped from a waiting queue (hedge resolved elsewhere).
    cancelled: bool = False

    # -- delegation ----------------------------------------------------------
    @property
    def request(self) -> InferenceRequest:
        return self.source.request

    @property
    def request_id(self) -> int:
        return self.source.request_id

    @property
    def arrival_s(self) -> float:
        return self.source.arrival_s

    @property
    def completed(self) -> bool:
        return self.finish_s is not None

    # -- derived SLO metrics -------------------------------------------------
    @property
    def queue_wait_s(self) -> float:
        """Seconds between arrival and first touching the device."""
        return self.prefill_start_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Time to first token as the *user* sees it: queue wait + prefill."""
        return self.first_token_s - self.arrival_s

    @property
    def e2e_s(self) -> float:
        """End-to-end latency from arrival to the last generated token."""
        return self.finish_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Time per output token over the decode phase of this request."""
        return (self.finish_s - self.first_token_s) / self.request.gen_tokens
