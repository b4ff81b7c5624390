"""Deterministic fault injection, client resilience, and failover.

``repro.faults`` makes the serving and fleet simulators chaos-testable
without giving up a single guarantee they already make: fault schedules
are seeded and wall-clock-free, so a chaos run is as replayable as a
clean one — the acceptance tests pin exact availability and
time-to-recover numbers, byte for byte.

Three layers compose:

* **Injection** — a :class:`FaultSpec` describes crashes (with MTTR
  recovery), transient slowdowns (latency multipliers) and flaky
  per-attempt failures, as explicit windows or seeded random schedules;
  a :class:`FaultInjector` materialises it into lazy per-device
  streams delivered as FAULT events through the shared event core.
* **Client policies** — per-request deadlines, a :class:`RetryPolicy`
  (capped attempts, exponential backoff with seeded jitter) and
  optional hedged requests, tracked per attempt on each
  :class:`repro.serving.RequestRecord`.
* **Graceful degradation** — health-aware routing
  (``get_router("failover")``, or ``exclude_unhealthy=True`` on any
  policy) ejects crashed and slowed replicas and re-admits them on
  recovery, while schedulers shed requests whose deadline already
  expired; the outcomes land on the reports as a :class:`FaultReport`
  (availability, time-to-recover, shed/timed-out/failed/retry counts).

Entry points: pass ``faults=``/``retry=``/``deadline_s=`` straight to
:func:`repro.serving.simulate` or :func:`repro.fleet.simulate_fleet`.
Either arms the event loop's fault handling (:mod:`repro.faults.engine`);
with all three unset the loop runs as if this package did not exist.
"""

from repro.faults.engine import FaultGate
from repro.faults.report import FaultReport
from repro.faults.spec import (
    CRASH,
    RECOVER,
    SLOW_END,
    SLOW_START,
    FaultEvent,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
)

__all__ = [
    "CRASH",
    "RECOVER",
    "SLOW_START",
    "SLOW_END",
    "FaultEvent",
    "FaultGate",
    "FaultInjector",
    "FaultReport",
    "FaultSpec",
    "RetryPolicy",
]
