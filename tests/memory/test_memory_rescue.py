"""Sharding as a capacity rescue, and memory-aware fleet machinery.

The paper's core trade: a model (or a KV working set) that cannot live
on one chip fits once a :class:`ShardingSpec` aggregates the flash and
DRAM of ``tp x pp`` chips.  These tests cover both rescue paths — the
weight image through ``CambriconBackend.with_capacity_scale`` and the
KV footprint through ``MemorySpec.scaled`` inside :func:`size_fleet` —
plus the ``headroom`` router that steers by free KV DRAM.
"""

from dataclasses import replace

import pytest

from serving_toys import ToyBackend

from repro.api import CambriconBackend, InferenceRequest
from repro.core import get_config
from repro.fleet import (
    MemoryHeadroomRouter,
    ShardedBackend,
    ShardingSpec,
    build_fleet,
    get_router,
    simulate_fleet,
    size_fleet,
)
from repro.memory import MemorySpec
from repro.serving import ContinuousBatchScheduler, PoissonWorkload, SLOSpec
from repro.units import MiB


def _tiny_flash_backend(blocks_per_plane: int = 16) -> CambriconBackend:
    """A Cambricon chip whose flash array cannot hold llama2-7b's weights."""
    config = get_config("S")
    config = replace(
        config, flash=replace(config.flash, blocks_per_plane=blocks_per_plane)
    )
    return CambriconBackend(config=config)


REQUEST = InferenceRequest(model="llama2-7b", seq_len=64, gen_tokens=2)


# -- with_capacity_scale ------------------------------------------------------

def test_capacity_scale_multiplies_only_the_flash_capacity():
    base = _tiny_flash_backend()
    scaled = base.with_capacity_scale(4)
    assert scaled.capacity_scale == 4
    assert scaled.config.flash.blocks_per_plane == base.config.flash.blocks_per_plane
    assert base.run(REQUEST).out_of_memory
    result = scaled.run(REQUEST)
    assert result.supported and not result.out_of_memory
    assert base.cache_key != scaled.cache_key  # memoization must not alias them
    # Scales compose multiplicatively and validate their input.
    assert base.with_capacity_scale(2).with_capacity_scale(2).capacity_scale == 4
    assert base.with_capacity_scale(1) is base
    with pytest.raises(ValueError):
        base.with_capacity_scale(0)
    with pytest.raises(TypeError):
        base.with_capacity_scale(2.0)


def test_capacity_scale_leaves_prebuilt_engines_alone():
    from repro.core import InferenceEngine

    backend = CambriconBackend(engine=InferenceEngine(get_config("S")))
    assert backend.with_capacity_scale(4) is backend


def test_sharded_backend_rescues_the_oom_config():
    base = _tiny_flash_backend()
    sharded = ShardedBackend(base, ShardingSpec(tensor_parallel=4))
    result = sharded.run(REQUEST)
    assert result.supported and not result.out_of_memory
    assert "tp4" in result.backend_name
    # The transform still applies: four chips decode faster than the
    # rescued single-image run.
    solo = base.with_capacity_scale(4).run(REQUEST)
    assert result.decode_step_seconds < solo.decode_step_seconds


def test_sharded_backend_passes_oom_through_without_the_hook():
    class NoHook:
        name = "nohook"

        def run(self, request):
            return _tiny_flash_backend().run(request)

    sharded = ShardedBackend(NoHook(), ShardingSpec(tensor_parallel=4))
    result = sharded.run(REQUEST)
    assert result.out_of_memory
    assert "tp4" in result.backend_name


def test_trivial_sharding_never_rescues():
    base = _tiny_flash_backend()
    assert ShardedBackend(base, ShardingSpec()).run(REQUEST).out_of_memory


# -- size_fleet: weight OOM skipped, sharding wins ----------------------------

def test_size_fleet_skips_oom_shardings_and_picks_the_rescued_one():
    slo = SLOSpec(e2e_s=1000.0, min_attainment=0.9)
    result = size_fleet(
        _tiny_flash_backend(),
        REQUEST,
        slo,
        target_qps=0.05,
        shardings=[ShardingSpec(), ShardingSpec(tensor_parallel=4)],
        num_requests=8,
        max_replicas=4,
    )
    assert result.sharding.tensor_parallel == 4
    assert result.report.meets_slo()
    # The single-chip candidate was probed once, found OOM, and skipped.
    trivial = [p for p in result.probes if p.sharding.is_trivial]
    assert len(trivial) == 1 and not trivial[0].met


# -- size_fleet: KV OOM rescued by the scaled MemorySpec ----------------------

#: One chip: a 256 MiB prompt fits neither 128 MiB of DRAM nor the
#: 64 MiB spill cap.  Four chips: 512 MiB of DRAM admits it outright.
KV_TIGHT = MemorySpec(dram_bytes=128 * MiB, spill_capacity_bytes=64 * MiB)
KV_PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=12)


def test_size_fleet_memory_spec_scales_with_sharding_and_reports_spills():
    slo = SLOSpec(e2e_s=1000.0, min_attainment=0.9)
    result = size_fleet(
        ToyBackend(),
        KV_PAYLOAD,
        slo,
        target_qps=1.0,
        shardings=[ShardingSpec(), ShardingSpec(tensor_parallel=4)],
        scheduler_factory=lambda memory=None: ContinuousBatchScheduler(
            max_batch=4, memory=memory
        ),
        memory=KV_TIGHT,
        num_requests=30,
        max_replicas=4,
    )
    assert result.sharding.num_devices == 4
    trivial = [p for p in result.probes if p.sharding.is_trivial]
    assert len(trivial) == 1 and not trivial[0].met
    memories = [r.memory for r in result.report.device_reports]
    assert all(m is not None for m in memories)
    # Under load the admitted batch outgrows even 4 chips' DRAM: the
    # rescue is flash spill space, and the report shows the traffic.
    assert sum(m.spill_bytes for m in memories) > 0
    assert sum(m.refill_bytes for m in memories) > 0


def test_size_fleet_without_memory_rejects_nothing():
    """The memory parameter defaults off: plain searches are unchanged."""
    slo = SLOSpec(e2e_s=1000.0, min_attainment=0.9)
    result = size_fleet(
        ToyBackend(), KV_PAYLOAD, slo, target_qps=1.0,
        num_requests=10, max_replicas=2,
    )
    assert result.num_replicas >= 1
    assert all(r.memory is None for r in result.report.device_reports)


# -- the headroom router ------------------------------------------------------

def _memory_fleet(spec):
    return build_fleet(
        [ToyBackend(ttft=1.0, step=0.1)] * 3,
        scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4, memory=spec),
    )


def test_headroom_router_steers_to_the_replica_with_free_dram():
    spec = MemorySpec(dram_bytes=384 * MiB)
    arrivals = PoissonWorkload(2.0, KV_PAYLOAD, seed=5).generate(60)
    report = simulate_fleet(
        arrivals, _memory_fleet(spec), get_router("headroom"), max_steps=1
    )
    assert report.num_completed == 60
    # Every replica took work: headroom spreads load like a queue policy.
    assert all(n > 0 for n in report.requests_per_device)


def test_headroom_router_degrades_to_jsq_without_memory_models():
    arrivals = PoissonWorkload(3.0, KV_PAYLOAD, seed=7).generate(80)
    fleet = lambda: build_fleet([ToyBackend()] * 3)  # noqa: E731
    headroom = simulate_fleet(arrivals, fleet(), MemoryHeadroomRouter())
    jsq = simulate_fleet(arrivals, fleet(), get_router("jsq"))
    assert headroom.to_csv() == jsq.to_csv()


def test_headroom_router_is_registered():
    assert get_router("headroom").name == "headroom"
