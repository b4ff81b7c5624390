"""Exact pins of what the observers export on memory-model runs.

The timeline CSV, the alert log's rows and the Perfetto JSON are
deterministic under a fixed seed, so these tests compare the sha256 of
each with a pinned digest.  Two runs are observed, coalesced and with
``max_steps=1``:

* ``fleet`` — the 4 KV-model ``headroom`` replicas of the memory battery
  in ``tests/fleet/test_fleet_coalescing.py``, with a crash, a slowdown,
  flaky verdicts and client retries, hedges and a deadline;
* ``single`` — one KV-model device whose DRAM fills and spills, with
  coalesced decode runs.

Each run is observed twice, by a bare :class:`TimelineCollector` and by
``TeeRecorder(SpanRecorder(), timeline)``; both timelines must export
the same bytes.  A change that must not move an observer's output has to
pass these unchanged.  After a change that moves one on purpose, print
the new digests with ``PYTHONPATH=src python tests/obs/test_obs_pins.py``.
"""

import hashlib
import random

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.fleet import build_fleet, get_router, simulate_fleet
from repro.memory import MemorySpec
from repro.obs import SpanRecorder, TeeRecorder, TimelineCollector, burn_rate_pack
from repro.serving import (
    ContinuousBatchScheduler,
    PoissonWorkload,
    SLOSpec,
    simulate,
)

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=2.0, e2e_s=10.0, min_attainment=0.9)
WINDOW_S = 10.0

#: A crash and a slowdown inside the busy region, flaky verdicts with
#: client retries, hedges after 2 s and a deadline that bites.
CHAOS = dict(
    faults=FaultSpec(
        crash_windows=((0, 30.0, 10.0),),
        slow_windows=((1, 50.0, 20.0, 2.5),),
        flaky_prob=0.05,
        seed=3,
    ),
    retry=RetryPolicy(max_attempts=3, backoff_s=0.5, hedge_after_s=2.0),
    deadline_s=8.0,
)


def _mixed_payload(rng: random.Random, index: int) -> InferenceRequest:
    return PAYLOAD.with_overrides(gen_tokens=rng.choice([1, 7, 24, 64]))


def _fleet(max_steps, recorder):
    fleet = build_fleet(
        [ToyBackend(ttft=0.3, step=0.1)] * 4,
        scheduler_factory=lambda: ContinuousBatchScheduler(
            max_batch=2, memory=MemorySpec(dram_bytes=2**29)
        ),
    )
    arrivals = PoissonWorkload(3.0, _mixed_payload, seed=11).generate(200)
    return simulate_fleet(
        arrivals,
        fleet,
        get_router("headroom"),
        slo=SLO,
        max_steps=max_steps,
        recorder=recorder,
        **CHAOS,
    )


def _single(max_steps, recorder):
    arrivals = PoissonWorkload(1.0, _mixed_payload, seed=11).generate(150)
    return simulate(
        arrivals,
        ToyBackend(ttft=0.3, step=0.1),
        ContinuousBatchScheduler(max_batch=4, memory=MemorySpec(dram_bytes=2**30)),
        slo=SLO,
        max_steps=max_steps,
        recorder=recorder,
    )


RUNS = {"fleet": _fleet, "single": _single}


def _timeline() -> TimelineCollector:
    return TimelineCollector(
        window_s=WINDOW_S,
        slo=SLO,
        rules=burn_rate_pack(SLO.min_attainment, WINDOW_S),
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(run: str, max_steps) -> dict:
    """The observed run's digests, checking that both timelines agree."""
    bare = _timeline()
    RUNS[run](max_steps, bare)
    spans, timeline = SpanRecorder(), _timeline()
    report = RUNS[run](max_steps, TeeRecorder(spans, timeline))
    assert timeline.to_csv() == bare.to_csv()
    assert timeline.alert_log == bare.alert_log == report.alerts
    return {
        "timeline": _digest(timeline.to_csv()),
        "alerts": _digest(repr(report.alerts.summary_rows()[1])),
        "perfetto": _digest(spans.to_perfetto()),
    }


CASES = [(run, steps) for run in sorted(RUNS) for steps in (None, 1)]

PINS = {
    ("fleet", None): {
        "timeline": "192aa8eea80a6abfce51b5d0c0ff0beb5e946f37604e551f48dc46cdf999be36",
        "alerts": "bfaabd8c451f80e4e519d6238fcbf916da1618adfaccecf6bfe827459dd85b13",
        "perfetto": "f577502875be9b6f625aa2ca2ac0b3564b9dbc752157d16f54736c743a916560",
    },
    ("fleet", 1): {
        "timeline": "a8f9ab853fe44a5126889375328d2ef4bac927a26218fb6900860664d8c2d556",
        "alerts": "bfaabd8c451f80e4e519d6238fcbf916da1618adfaccecf6bfe827459dd85b13",
        "perfetto": "e2ce46b19bdd15112a2058650fa1cce323b992469ded0cd91ac8ae033609806d",
    },
    ("single", None): {
        "timeline": "7ff7116b60a8e8393813db48404caad5beab49b68fd57c7e7f5d002f90ecdf6e",
        "alerts": "f135739ee2176c04d5b3ced74669b8b6d23519a4c0c1715709bbd93dae31277f",
        "perfetto": "fd80c8a789f3cbbb010e9b560d9f318a46c0da056df4154095277c50db54e7c9",
    },
    ("single", 1): {
        "timeline": "4e3c37d83b7b5befdd276aac3b1d42121599f584dd63bde6588a8460a119c74e",
        "alerts": "f135739ee2176c04d5b3ced74669b8b6d23519a4c0c1715709bbd93dae31277f",
        "perfetto": "a1f4c908054efe78732323c007b49c26151cf29bdcde6fd16a9579d8db773a3a",
    },
}


@pytest.mark.parametrize(
    "run, max_steps",
    CASES,
    ids=[f"{run}-{'coalesced' if steps is None else 'step'}" for run, steps in CASES],
)
def test_observer_outputs_match_their_pins(run, max_steps):
    assert digests(run, max_steps) == PINS[(run, max_steps)]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {digests(*case)!r},")
