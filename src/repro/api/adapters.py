"""Backend adapters wrapping the existing performance models.

Four built-in backends expose every system of the paper's evaluation
through the uniform :class:`repro.api.backend.Backend` protocol:

* :class:`CambriconBackend` — the Cambricon-LLM chiplet (Table II configs),
* :class:`FlexGenSSDBackend` / :class:`FlexGenDRAMBackend` — A100 offloading,
* :class:`MLCLLMBackend` — the smartphone DRAM baseline.

Each adapter generalizes its system's single-token decode model to the full
:class:`repro.api.request.InferenceRequest` semantics: prefill (time to
first token), ``gen_tokens`` decode steps with a growing KV cache (sampled
at the first and last context length and averaged — both models are linear
in context), and ``batch_size`` (weight streaming amortizes across the
batch; KV traffic and attention compute scale with it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.api.request import InferenceRequest
from repro.api.result import DECODE_PHASE, PREFILL_PHASE, RunResult
from repro.baselines.common import BaselineResult, OffloadingBaseline
from repro.baselines.flexgen import FlexGenDRAM, FlexGenSSD
from repro.baselines.mlc_llm import MLCLLM
from repro.core.config import CambriconLLMConfig, get_config
from repro.core.engine import InferenceEngine
from repro.core.metrics import DecodeReport
from repro.energy.model import CambriconEnergyModel, FlexGenSSDEnergyModel
from repro.llm.workload import PrefillWorkload


@dataclass
class CambriconBackend:
    """The Cambricon-LLM performance model behind the unified API.

    Parameters
    ----------
    config:
        Fixed hardware configuration.  When ``None`` the request's
        ``config`` key selects a Table-II preset (default ``"L"``).
    engine:
        Pre-built :class:`InferenceEngine` (takes precedence over
        ``config``); used by ablation studies that set engine flags.

    An instance keeps one engine per effective config, so the engine's
    per-model weight plan outlives a request.  Beside it, the instance
    memoizes per (engine config, model, seq_len) what a context fixes:
    the successful single-token decode report, the prompt's prefill ops
    and the energy per token.  None of them depends on the batch width,
    so a serving scheduler that prices a shape at eight widths pays for
    each once.  The memos belong to the instance, die with it, and are
    never shared with a :meth:`with_capacity_scale` twin.
    """

    config: Optional[CambriconLLMConfig] = None
    engine: Optional[InferenceEngine] = None
    name: str = "cambricon"
    #: Flash capacity multiplier: ``n`` means the weights may occupy ``n``
    #: chips' worth of flash.  Set by :meth:`with_capacity_scale` when a
    #: :class:`repro.fleet.sharding.ShardedBackend` rescues an OOM config
    #: by dividing the weight image across its replica's chips.
    capacity_scale: int = 1
    _engines: Dict[CambriconLLMConfig, InferenceEngine] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _reports: Dict[tuple, DecodeReport] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _prefill_ops: Dict[tuple, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _energy: Dict[tuple, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- runner integration --------------------------------------------------
    @property
    def cache_key(self) -> str:
        """Memoization identity: every knob that can change the result.

        The full config repr (not just name/size) plus the engine's ablation
        flags, so e.g. an ``offload_to_npu=False`` backend never collides
        with the default one in the runner cache.
        """
        config = self.engine.config if self.engine is not None else self.config
        flags = ""
        if self.engine is not None:
            engine = self.engine
            flags = (
                f"|offload={engine.offload_to_npu}|tile={engine.tile}"
                f"|sim={engine.use_simulator}"
            )
        body = "per-request" if config is None else repr(config)
        return f"{self.name}[{body}{flags}|cap={self.capacity_scale}]"

    def normalize_request(self, request: InferenceRequest) -> InferenceRequest:
        """Drop fields this instance ignores so memoization can collapse them."""
        if (self.engine is not None or self.config is not None) and (
            request.config is not None
        ):
            request = request.with_overrides(config=None)
        if self.engine is not None and (
            request.weight_bits is not None or request.activation_bits is not None
        ):
            request = request.with_overrides(weight_bits=None, activation_bits=None)
        return request

    def with_capacity_scale(self, num_devices: int) -> "CambriconBackend":
        """A twin whose flash array holds ``num_devices`` chips' capacity.

        The sharding rescue hook: only the *capacity* grows (more blocks
        per plane) — channel counts, bandwidths and timings stay those of
        one chip, so the latency transform remains the sharded backend's
        job.  A backend built around a pre-built ``engine`` is returned
        unchanged (its config is pinned; the rescue cannot apply).
        """
        if isinstance(num_devices, bool) or not isinstance(num_devices, int):
            raise TypeError(f"num_devices must be an int, got {num_devices!r}")
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        if self.engine is not None or num_devices == 1:
            return self
        from dataclasses import replace

        return replace(self, capacity_scale=self.capacity_scale * num_devices)

    # -- execution -----------------------------------------------------------
    def _engine_for(self, request: InferenceRequest) -> InferenceEngine:
        if self.engine is not None:
            return self.engine
        config = self.config or get_config(request.config or "L")
        if request.weight_bits is not None or request.activation_bits is not None:
            config = config.with_quantization(
                request.weight_bits or config.weight_bits,
                request.activation_bits or config.activation_bits,
            )
        if self.capacity_scale > 1:
            from dataclasses import replace

            config = replace(
                config,
                flash=replace(
                    config.flash,
                    blocks_per_plane=config.flash.blocks_per_plane
                    * self.capacity_scale,
                ),
            )
        engine = self._engines.get(config)
        if engine is None:
            engine = self._engines[config] = InferenceEngine(config)
        return engine

    def _decode_report(
        self, engine: InferenceEngine, model, seq_len: int
    ) -> DecodeReport:
        key = (engine.config, model, seq_len)
        report = self._reports.get(key)
        if report is None:
            report = self._reports[key] = engine.decode_report(model, seq_len=seq_len)
        return report

    def run(self, request: InferenceRequest) -> RunResult:
        engine = self._engine_for(request)
        try:
            first = self._decode_report(engine, request.model, request.seq_len)
        except ValueError as exc:
            return RunResult(
                backend_name=engine.config.name,
                model_name=request.model_name,
                request=request,
                tokens_per_second=0.0,
                time_to_first_token_s=float("inf"),
                decode_step_seconds=float("inf"),
                total_seconds=float("inf"),
                phase_seconds={},
                traffic_bytes_per_token=0.0,
                bottleneck="capacity",
                out_of_memory=True,
                error=str(exc),
            )

        batch = request.batch_size
        step_first, parts = self._step_seconds(first, batch)
        if request.gen_tokens > 1 and request.final_seq_len != request.seq_len:
            last = self._decode_report(engine, request.model, request.final_seq_len)
            step_last, _ = self._step_seconds(last, batch)
            step_seconds = 0.5 * (step_first + step_last)
        else:
            step_seconds = step_first

        ttft = self._prefill_seconds(engine, first, request)
        decode_seconds = request.gen_tokens * step_seconds
        traffic = first.traffic
        traffic_per_token = (
            (traffic.d2d_stream_bytes + traffic.d2d_vector_bytes) / batch
            + traffic.dram_kv_bytes
            + traffic.dram_activation_bytes
        )
        key = (engine.config, request.model, request.seq_len)
        energy = self._energy.get(key)
        if energy is None:
            energy = self._energy[key] = (
                CambriconEnergyModel(engine)
                .report_for_decode(first, seq_len=request.seq_len, model=request.model)
                .energy_joules
            )
        return RunResult(
            backend_name=engine.config.name,
            model_name=first.model_name,
            request=request,
            tokens_per_second=batch / step_seconds,
            time_to_first_token_s=ttft,
            decode_step_seconds=step_seconds,
            total_seconds=ttft + decode_seconds,
            phase_seconds={PREFILL_PHASE: ttft, DECODE_PHASE: decode_seconds},
            traffic_bytes_per_token=traffic_per_token,
            energy_joules_per_token=energy,
            bottleneck=max(parts, key=parts.__getitem__),
            detail=first,
            notes={"alpha": first.alpha, "channel_utilization": first.channel_utilization},
        )

    # -- latency model -------------------------------------------------------
    @staticmethod
    def _step_seconds(
        report: DecodeReport, batch: int
    ) -> Tuple[float, Dict[str, float]]:
        """One decode step of a batch, from the per-layer timing breakdown.

        Weight delivery and pipeline sync are shared by the whole batch;
        KV-cache fetch, attention and SFU work scale per sequence.  At
        ``batch == 1`` this reduces exactly to ``report.token_seconds``.
        """
        timing = report.layer_timing
        parts = {
            "weight-delivery": report.num_layers * timing.weight_seconds,
            "kv-fetch": report.num_layers * batch * timing.kv_seconds,
            "sfu": report.num_layers * batch * timing.sfu_seconds,
            "sync": report.num_layers * timing.sync_seconds,
        }
        step = sum(parts.values()) + report.lm_head_seconds
        return step, parts

    def _prefill_seconds(
        self, engine: InferenceEngine, report: DecodeReport, request: InferenceRequest
    ) -> float:
        """Prefill latency: one pass over the weights overlapped with compute.

        Prefill processes all prompt tokens as one batched GeMM, so the
        weights are streamed once (at the decode steady-state delivery rate)
        while the NPU's systolic array grinds through the prompt's ops; the
        slower of the two bounds the phase.
        """
        config = engine.config
        key = (config, request.model, request.seq_len)
        ops = self._prefill_ops.get(key)
        if ops is None:
            ops = self._prefill_ops[key] = PrefillWorkload(
                request.model,
                prompt_len=request.seq_len,
                weight_bits=config.weight_bits,
                activation_bits=config.activation_bits,
                kv_bits=config.kv_bits,
            ).total_ops
        weight_pass = report.traffic.flash_internal_bytes / report.combined_weight_rate
        compute = config.npu.systolic.compute_seconds(request.batch_size * ops)
        return max(weight_pass, compute)


class OffloadingBackend:
    """Adapter exposing any :class:`OffloadingBaseline` through the API.

    Only FlexGen-SSD has an energy model, so only its results fill the
    :attr:`RunResult.energy_joules_per_token` hook.
    """

    def __init__(self, baseline: OffloadingBaseline, name: Optional[str] = None):
        self.baseline = baseline
        self.name = name if name is not None else baseline.name.lower()

    @property
    def cache_key(self) -> str:
        return f"{self.name}:{self.baseline!r}"

    def normalize_request(self, request: InferenceRequest) -> InferenceRequest:
        """Offloading baselines have fixed hardware and precision."""
        if (
            request.config is not None
            or request.weight_bits is not None
            or request.activation_bits is not None
        ):
            request = request.with_overrides(
                config=None, weight_bits=None, activation_bits=None
            )
        return request

    def run(self, request: InferenceRequest) -> RunResult:
        baseline = self.baseline
        single: BaselineResult = baseline.decode_result(
            request.model, seq_len=request.seq_len
        )
        if single.out_of_memory:
            return RunResult(
                backend_name=baseline.name,
                model_name=single.model_name,
                request=request,
                tokens_per_second=0.0,
                time_to_first_token_s=float("inf"),
                decode_step_seconds=float("inf"),
                total_seconds=float("inf"),
                phase_seconds={},
                traffic_bytes_per_token=0.0,
                bottleneck=single.bottleneck,
                out_of_memory=True,
                error=f"{single.model_name} exceeds the weight capacity of {baseline.name}",
                detail=single,
            )

        batch = request.batch_size
        workload = baseline.workload(request.model, seq_len=request.seq_len)
        weight_bytes = workload.gemv_weight_bytes
        kv_first = workload.kv_cache_bytes
        kv_last = kv_first
        if request.gen_tokens > 1 and request.final_seq_len != request.seq_len:
            kv_last = baseline.workload(
                request.model, seq_len=request.final_seq_len
            ).kv_cache_bytes
        kv_mean = 0.5 * (kv_first + kv_last)

        step_seconds, bottleneck = self._step_seconds(weight_bytes, kv_mean, batch)
        # Prefill streams the weights once; all prompt positions share the pass.
        ttft = weight_bytes / baseline.offload_bandwidth + baseline.per_token_overhead_s
        decode_seconds = request.gen_tokens * step_seconds
        energy = None
        if isinstance(baseline, FlexGenSSD):
            energy = (
                FlexGenSSDEnergyModel(baseline)
                .report(request.model, seq_len=request.seq_len)
                .energy_joules
            )
        return RunResult(
            backend_name=baseline.name,
            model_name=single.model_name,
            request=request,
            tokens_per_second=batch / step_seconds,
            time_to_first_token_s=ttft,
            decode_step_seconds=step_seconds,
            total_seconds=ttft + decode_seconds,
            phase_seconds={PREFILL_PHASE: ttft, DECODE_PHASE: decode_seconds},
            traffic_bytes_per_token=(
                weight_bytes * baseline.traffic_multiplier / batch + kv_mean
            ),
            energy_joules_per_token=energy,
            bottleneck=bottleneck,
            detail=single,
        )

    def _step_seconds(
        self, weight_bytes: float, kv_bytes: float, batch: int
    ) -> Tuple[float, str]:
        """One decode step: the whole batch shares the weight stream."""
        baseline = self.baseline
        offload_seconds = weight_bytes / baseline.offload_bandwidth
        bottleneck = "offload-bandwidth"
        compute_seconds = 0.0
        if baseline.compute_bandwidth is not None:
            compute_seconds = (
                weight_bytes + batch * kv_bytes
            ) / baseline.compute_bandwidth
            if compute_seconds > offload_seconds:
                bottleneck = "compute-memory-bandwidth"
        return (
            max(offload_seconds, compute_seconds) + baseline.per_token_overhead_s,
            bottleneck,
        )


class FlexGenSSDBackend(OffloadingBackend):
    """FlexGen streaming INT8 weights from an NVMe SSD (Table III)."""

    def __init__(self, **baseline_kwargs: float):
        super().__init__(FlexGenSSD(**baseline_kwargs), name="flexgen-ssd")


class FlexGenDRAMBackend(OffloadingBackend):
    """FlexGen streaming INT8 weights from host DRAM over PCIe (Table III)."""

    def __init__(self, **baseline_kwargs: float):
        super().__init__(FlexGenDRAM(**baseline_kwargs), name="flexgen-dram")


class MLCLLMBackend(OffloadingBackend):
    """MLC-LLM running W4 models out of smartphone DRAM (Fig. 9b)."""

    def __init__(self, **baseline_kwargs: float):
        super().__init__(MLCLLM(**baseline_kwargs), name="mlc-llm")
