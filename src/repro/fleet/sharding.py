"""Sharding transforms: derive a multi-chip device from a base backend.

A :class:`ShardingSpec` describes how one *replica* of the fleet is built
out of base devices — ``tensor_parallel`` chips splitting every layer and
``pipeline_parallel`` stages splitting the layer stack — and
:class:`ShardedBackend` applies the spec to any registered
:class:`repro.api.backend.Backend` as a pure per-phase latency transform:

* **Tensor parallel** (degree *t*): compute phases divide by *t*; every
  prefill pass and every decode step pays one aggregate all-reduce whose
  latency grows with the partner count, ``allreduce_s * (t - 1)``.
* **Pipeline parallel** (degree *p*, applied after TP): the first token
  must traverse all *p* stages, so TTFT gains ``handoff_s * (p - 1)`` of
  stage-boundary latency; the steady-state decode *step clock* — the
  interval between token batches leaving the pipeline when the serving
  schedulers keep enough sequences in flight to fill it — drops to
  ``step / p + handoff_s``.

The transform is analytical and deliberately coarse: communication is a
fixed latency per synchronization point (bandwidth folded in).  Memory
capacity is judged *across the replica*: a spec of ``n`` chips divides
the weight footprint ``n`` ways, so when the base device reports OOM the
sharded backend re-runs it with ``n``-fold capacity (through the base's
``with_capacity_scale`` hook, when it offers one) before applying the
latency transform — this is how sharding rescues configs that cannot
hold the model on one chip.  Backends without the hook keep the old
behaviour: capacity judged on the base device, OOM passed through.

The pipeline-parallel step clock is the *loaded-regime* figure by
construction: it models token batches streaming through a full pipeline,
which is what fleet capacity and SLO studies load devices with.  For a
solitary sequence on an otherwise idle replica it is optimistic — one
sequence's tokens traverse the stages strictly in order, so its true
decode latency is the undivided step plus handoffs.  Latency-critical
single-stream studies should use tensor parallelism (whose transform is
exact at any load) rather than pipeline degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from repro.api.backend import Backend, get_backend
from repro.api.request import InferenceRequest
from repro.api.result import DECODE_PHASE, PREFILL_PHASE, RunResult

#: Default per-sync all-reduce latency between tensor-parallel chips (s).
#: Chiplet-class interconnect: a few microseconds of link latency plus the
#: activation payload; one aggregate sync per prefill pass / decode step.
DEFAULT_ALLREDUCE_S = 20e-6

#: Default activation-handoff latency per pipeline-stage boundary (s).
DEFAULT_HANDOFF_S = 10e-6


@dataclass(frozen=True)
class ShardingSpec:
    """How one fleet replica is assembled from base devices."""

    tensor_parallel: int = 1
    pipeline_parallel: int = 1
    allreduce_s: float = DEFAULT_ALLREDUCE_S
    handoff_s: float = DEFAULT_HANDOFF_S

    def __post_init__(self) -> None:
        for name in ("tensor_parallel", "pipeline_parallel"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        for name in ("allreduce_s", "handoff_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def num_devices(self) -> int:
        """Base devices consumed by one replica built to this spec."""
        return self.tensor_parallel * self.pipeline_parallel

    @property
    def is_trivial(self) -> bool:
        return self.tensor_parallel == 1 and self.pipeline_parallel == 1

    @property
    def label(self) -> str:
        """Short suffix for device names, e.g. ``"tp2pp4"`` (empty if trivial)."""
        parts = []
        if self.tensor_parallel > 1:
            parts.append(f"tp{self.tensor_parallel}")
        if self.pipeline_parallel > 1:
            parts.append(f"pp{self.pipeline_parallel}")
        return "".join(parts)

    # -- the latency transform ----------------------------------------------
    def transform_ttft(self, ttft_s: float) -> float:
        """Prefill latency of the sharded replica."""
        t, p = self.tensor_parallel, self.pipeline_parallel
        sharded = ttft_s / t + self.allreduce_s * (t - 1)
        return sharded + self.handoff_s * (p - 1)

    def transform_step(self, step_s: float) -> float:
        """Steady-state decode step clock of the sharded replica."""
        t, p = self.tensor_parallel, self.pipeline_parallel
        sharded = step_s / t + self.allreduce_s * (t - 1)
        if p > 1:
            sharded = sharded / p + self.handoff_s
        return sharded

    def comm_step_seconds(self) -> float:
        """Interconnect share of one sharded decode step."""
        comm = self.allreduce_s * (self.tensor_parallel - 1)
        if self.pipeline_parallel > 1:
            comm = comm / self.pipeline_parallel + self.handoff_s
        return comm


class ShardedBackend:
    """A base backend scaled by a :class:`ShardingSpec`.

    A regular :class:`repro.api.backend.Backend`: it can be registered,
    memoized by the :class:`repro.api.runner.ExperimentRunner` (its
    ``cache_key`` folds in the base identity and every spec constant) and
    priced by :class:`repro.serving.simulator.BackendCostModel`, so fleet
    devices built from it reuse the whole serving stack unchanged.
    """

    def __init__(self, base: Union[str, Backend], spec: ShardingSpec):
        self.base = get_backend(base) if isinstance(base, str) else base
        self.spec = spec
        suffix = spec.label
        self.name = self.base.name if not suffix else f"{self.base.name}-{suffix}"
        #: Lazily-built capacity-scaled twin for the OOM rescue path.
        self._rescue: Backend = None

    # -- runner integration --------------------------------------------------
    @property
    def cache_key(self) -> str:
        base_key = getattr(self.base, "cache_key", self.base.name)
        spec = self.spec
        return (
            f"shard[{base_key}|tp={spec.tensor_parallel}|pp={spec.pipeline_parallel}"
            f"|ar={spec.allreduce_s!r}|ho={spec.handoff_s!r}]"
        )

    def normalize_request(self, request: InferenceRequest) -> InferenceRequest:
        normalize = getattr(self.base, "normalize_request", None)
        return request if normalize is None else normalize(request)

    # -- execution -----------------------------------------------------------
    def run(self, request: InferenceRequest) -> RunResult:
        base = self.base.run(request)
        if self.spec.is_trivial:
            return base
        if base.out_of_memory:
            # The replica's n chips hold n times the base capacity: retry
            # on a capacity-scaled twin when the base backend offers one
            # (the sharding rescue), otherwise pass the OOM through.
            if self._rescue is None:
                hook = getattr(self.base, "with_capacity_scale", None)
                if hook is not None:
                    self._rescue = hook(self.spec.num_devices)
            if self._rescue is not None:
                base = self._rescue.run(request)
            if base.out_of_memory:
                return replace(
                    base, backend_name=f"{base.backend_name} x{self.spec.label}"
                )

        ttft = self.spec.transform_ttft(base.time_to_first_token_s)
        step = self.spec.transform_step(base.decode_step_seconds)
        # Scale the whole decode phase by the per-step ratio so KV-growth
        # shape (later steps slower) survives the transform.
        step_ratio = (
            step / base.decode_step_seconds if base.decode_step_seconds > 0 else 1.0
        )
        decode = base.phase_seconds.get(
            DECODE_PHASE, base.total_seconds - base.time_to_first_token_s
        ) * step_ratio
        phase_seconds = dict(base.phase_seconds)
        phase_seconds[PREFILL_PHASE] = ttft
        phase_seconds[DECODE_PHASE] = decode

        comm = self.spec.comm_step_seconds()
        bottleneck = "interconnect" if comm >= step - comm else base.bottleneck
        return replace(
            base,
            backend_name=f"{base.backend_name} x{self.spec.label}",
            tokens_per_second=(
                base.tokens_per_second / step_ratio if step_ratio > 0 else 0.0
            ),
            time_to_first_token_s=ttft,
            decode_step_seconds=step,
            total_seconds=ttft + decode,
            phase_seconds=phase_seconds,
            bottleneck=bottleneck,
        )
