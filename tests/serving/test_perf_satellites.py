"""Satellites of the perf PR: cache counters and cheap capacity probes."""

from collections import Counter

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.serving import (
    BackendCostModel,
    ContinuousBatchScheduler,
    FCFSScheduler,
    PoissonWorkload,
    ServingRequest,
    SLOSpec,
    find_max_qps,
    simulate,
)
from repro.serving.request import RequestRecord

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=10)
SLO = SLOSpec(e2e_s=10.0, min_attainment=0.9)


# -- BackendCostModel.cache_info ----------------------------------------------

def test_cost_model_cache_info_counts_latency_and_profile_traffic():
    backend = ToyBackend()
    cost = BackendCostModel(backend)
    info = cost.cache_info()
    assert info["latency_hits"] == info["latency_misses"] == 0
    cost.ttft(PAYLOAD)
    cost.ttft(PAYLOAD)
    cost.decode_step(PAYLOAD, batch_size=4)
    info = cost.cache_info()
    assert info["latency_misses"] == 2
    assert info["latency_hits"] == 1
    assert info["latency_size"] == 2
    assert info["profile_misses"] == backend.calls == 2
    assert info["profile_size"] == 2


def test_cost_model_interns_identical_payload_objects():
    """Repeated queries on one payload object are pure dict hits."""
    cost = BackendCostModel(ToyBackend())
    for _ in range(50):
        cost.decode_step(PAYLOAD, batch_size=2)
    info = cost.cache_info()
    assert info["latency_misses"] == 1
    assert info["latency_hits"] == 49


def test_cost_model_shares_results_across_equal_but_distinct_payloads():
    """An equal payload built separately reuses the keyed cache (one
    profile), it just pays one extra keyed lookup."""
    backend = ToyBackend()
    cost = BackendCostModel(backend)
    twin = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=10)
    assert twin == PAYLOAD and twin is not PAYLOAD
    assert cost.ttft(PAYLOAD) == cost.ttft(twin)
    assert backend.calls == 1
    assert cost.cache_info()["latency_misses"] == 1


def test_latency_table_grows_with_shapes_not_with_payload_objects():
    """A factory that builds a fresh payload per request still prices
    from one entry per (shape, batch width, field)."""
    shapes = ((128, 4), (512, 16), (1024, 64))

    def fresh(rng, index):
        seq_len, gen_tokens = shapes[rng.randrange(len(shapes))]
        return InferenceRequest(model="opt-6.7b", seq_len=seq_len, gen_tokens=gen_tokens)

    arrivals = PoissonWorkload(2.0, fresh, seed=0).generate(5000)
    assert len({id(arrival.request) for arrival in arrivals}) == 5000
    backend = ToyBackend(0.2, 0.05)
    cost = BackendCostModel(backend)
    simulate(arrivals, cost, ContinuousBatchScheduler(max_batch=8))
    info = cost.cache_info()
    # One ttft and up to eight decode-step widths per shape.
    assert info["latency_size"] == info["latency_misses"] <= len(shapes) * (1 + 8)
    assert info["profile_misses"] == backend.calls


class _PayloadPricedCost:
    """A cost model whose decode step depends on the payload and the batch
    width, counting the decode-step queries per (payload, width)."""

    def __init__(self):
        self.queries = Counter()

    @staticmethod
    def price(request, lanes):
        return request.seq_len / 1000 + lanes / 100

    def ttft(self, request, batch_size=None):
        return 0.5

    def decode_step(self, request, batch_size=None):
        self.queries[(request, batch_size)] += 1
        return self.price(request, batch_size)


def test_a_mixed_batch_steps_at_its_slowest_payload_priced_once_per_width():
    """Every decode run, with one payload or several, steps at the maximum
    of its distinct payloads' prices at the batch's lanes, and the cost
    model is asked for each (payload, lanes) pair once per run."""
    short = InferenceRequest(model="opt-6.7b", seq_len=100, gen_tokens=3)
    long = InferenceRequest(model="opt-6.7b", seq_len=900, gen_tokens=7, batch_size=2)
    records = [
        RequestRecord(ServingRequest(0.0, index, (short, long, short)[index % 3]))
        for index in range(24)
    ]
    cost = _PayloadPricedCost()
    scheduler = ContinuousBatchScheduler(max_batch=4)
    for record in records:
        scheduler.enqueue(record, 0.0)
    now, admitted, batch, mixed = 0.0, 0, [], 0
    while True:
        lanes = sum(record.request.batch_size for record in batch)
        payloads = {id(record.request): record.request for record in batch}
        occupancy = scheduler.next_occupancy(now, cost)
        if occupancy is None:
            break
        if occupancy.kind == "prefill":
            # Admission is FIFO: the next enqueued record joins the batch.
            batch.append(records[admitted])
            admitted += 1
        else:
            mixed += len(payloads) > 1
            step = max(cost.price(request, lanes) for request in payloads.values())
            end = now + step
            for _ in range(occupancy.steps - 1):
                end += step
            assert occupancy.end_s == end
            batch = [record for record in batch if record not in occupancy.completed]
        now = occupancy.end_time(now)
    assert admitted == len(records) and not batch
    assert mixed > len(cost.queries)
    assert set(cost.queries.values()) == {1}


def test_simulate_accepts_a_prebuilt_cost_model():
    cost = BackendCostModel(ToyBackend())
    arrivals = PoissonWorkload(1.0, PAYLOAD, seed=0).generate(20)
    a = simulate(arrivals, cost, FCFSScheduler())
    b = simulate(arrivals, cost, FCFSScheduler())
    assert a.to_csv() == b.to_csv()
    # The second run resolved every latency from the shared caches.
    assert cost.cache_info()["profile_misses"] == 1


# -- find_max_qps satellites --------------------------------------------------

def test_default_capacity_search_stays_within_a_small_eval_budget():
    """Regression: the whole default search costs O(1) backend evaluations
    (memoization makes probes shape-bound, not request-bound)."""
    backend = ToyBackend(ttft=0.5, step=0.1)
    capacity = find_max_qps(backend, PAYLOAD, SLO, num_requests=200, seed=3)
    assert len(capacity.probes) >= 3
    assert backend.calls <= 2


def test_immediate_bisection_termination_reuses_the_bracket_report():
    """A huge rel_tol ends the search right after bracketing: exactly the
    bracket's two probes, no re-simulation of the returned rate."""
    backend = ToyBackend(ttft=0.5, step=0.1)
    capacity = find_max_qps(
        backend, PAYLOAD, SLO, num_requests=100, seed=3, rel_tol=10.0
    )
    assert len(capacity.probes) == 2
    assert [met for _, met in capacity.probes] == [True, False]
    assert capacity.max_qps == capacity.probes[0][0]
    assert capacity.report.meets_slo()


def test_fail_fast_search_finds_the_same_rate_as_the_full_search():
    kwargs = dict(num_requests=150, seed=7)
    full = find_max_qps(ToyBackend(), PAYLOAD, SLO, fail_fast=False, **kwargs)
    fast = find_max_qps(ToyBackend(), PAYLOAD, SLO, fail_fast=True, **kwargs)
    assert fast.max_qps == full.max_qps
    assert fast.probes == full.probes
    assert fast.report.to_csv() == full.report.to_csv()
    assert not fast.report.early_exit  # the winning probe ran to completion


def test_search_shares_one_cost_model_across_probes():
    cost = BackendCostModel(ToyBackend(ttft=0.5, step=0.1))
    capacity = find_max_qps(
        "unused", PAYLOAD, SLO, num_requests=100, seed=3, cost=cost
    )
    assert capacity.report.meets_slo()
    info = cost.cache_info()
    assert info["latency_misses"] <= 3
    assert info["latency_hits"] > info["latency_misses"]


def test_percentiles_sort_each_metric_exactly_once(monkeypatch):
    """p50/p95/p99 — and any repeat query — share one sort per metric."""
    import repro.serving.metrics as metrics_mod

    arrivals = PoissonWorkload(3.0, PAYLOAD, seed=1).generate(60)
    report = simulate(arrivals, ToyBackend(), FCFSScheduler(), slo=SLO)
    sort_calls = []
    real_sorted = sorted

    def counting_sorted(values, *args, **kwargs):
        sort_calls.append(1)
        return real_sorted(values, *args, **kwargs)

    monkeypatch.setattr(metrics_mod, "sorted", counting_sorted, raising=False)
    report.percentiles("ttft")
    report.percentiles("ttft")
    assert len(sort_calls) == 1
    for metric in ("tpot", "e2e", "queue_wait"):
        report.percentiles(metric)
        report.percentiles(metric)
    assert len(sort_calls) == 4
