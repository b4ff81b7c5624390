"""End-to-end decode performance model of Cambricon-LLM.

The :class:`InferenceEngine` combines the flash steady-state model (or the
discrete-event simulator), the NPU model and the LLM workload model into the
per-token figures the paper reports: decode tokens/s, channel utilisation,
and per-token data movement.

Per-layer latency model
-----------------------
Each decoder layer of a decode step costs::

    t_layer = max(t_weights, t_npu_compute)          # weight GeMVs, overlapped
            + max(0, t_kv_fetch - t_qkv_weights)     # exposed KV-cache fetch
            + t_attention_compute + t_sfu            # serial NPU work
            + t_sync                                 # pipeline fill per GeMV stage

``t_weights`` comes from the balanced flash/NPU split: the flash Compute
Cores consume ``alpha`` of the layer's weight bytes while the remainder is
streamed through the channels to the NPU, and with the optimal ``alpha`` both
finish together.  The KV-cache fetch from DRAM does not depend on the current
layer's projections, so it overlaps with the Q/K/V weight streaming and only
its uncovered remainder is exposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import CambriconLLMConfig
from repro.core.metrics import DecodeReport, LayerTiming, TrafficBreakdown
from repro.core.partition import WorkloadPartition
from repro.core.scheduler import build_layer_schedule
from repro.core.tiling import TileShape, TilingStrategy
from repro.flash.analytical import FlashSteadyStateModel
from repro.flash.simulator import ChannelSimulator
from repro.llm.models import ModelSpec, get_model
from repro.llm.operators import GeMVOp, Placement
from repro.llm.workload import DecodeWorkload


@dataclass(frozen=True)
class _WeightPlan:
    """The context-free half of a decode report for one model.

    The flash/NPU weight split is fixed by the engine and the model alone:
    the tile, the delivery rates and ``alpha``, the weight half of a
    layer's timing and the weight and vector traffic.  Only the KV fetch,
    attention and SFU work read the context.
    """

    tile: TileShape
    flash_rate: float
    stream_rate: float
    alpha: float
    efficiency: float
    #: Per layer: the overlapped weight GeMVs, and the Q/K/V streaming the
    #: KV fetch hides behind.
    weight_seconds: float
    qkv_seconds: float
    lm_head_seconds: float
    weight_bytes: float
    streamed_bytes: float
    vector_bytes: float


@dataclass(frozen=True)
class InferenceEngine:
    """Decode-speed model for one Cambricon-LLM hardware configuration.

    Parameters
    ----------
    config:
        Hardware description (Table II presets or custom).
    offload_to_npu:
        ``True`` enables the hardware-aware tiling of Section V (weights split
        between flash and NPU); ``False`` reproduces the Fig. 14 ablation
        where every GeMV is executed in flash only.
    tile:
        Optional tile-shape override (Fig. 13 ablation); ``None`` selects the
        traffic-optimal tile.
    sync_stages_per_layer:
        Number of dependent GeMV stages per layer whose pipeline fill/drain is
        charged serially (Q/K/V, output projection, FFN up, FFN down).
    use_simulator:
        ``True`` calibrates the weight-delivery rates and channel utilisation
        with the discrete-event channel simulator instead of the closed-form
        model.

    The engine is frozen, so every report of one model shares one
    context-free :class:`_WeightPlan`, memoized per model spec on first
    use: the tile search and the rates (one channel-simulator run on the
    simulated path) are paid once per (engine, model), whatever the
    contexts it is asked for.
    """

    config: CambriconLLMConfig
    offload_to_npu: bool = True
    tile: Optional[TileShape] = None
    sync_stages_per_layer: int = 4
    use_simulator: bool = False
    _flash_model: FlashSteadyStateModel = field(init=False, repr=False)
    _tiling: TilingStrategy = field(init=False, repr=False)
    _plans: Dict[ModelSpec, _WeightPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.sync_stages_per_layer < 0:
            raise ValueError("sync_stages_per_layer must be non-negative")
        object.__setattr__(
            self,
            "_flash_model",
            FlashSteadyStateModel(
                geometry=self.config.flash,
                timing=self.config.timing,
                core=self.config.compute_core,
                slice_control=self.config.slice_control,
                weight_bits=self.config.weight_bits,
                activation_bits=self.config.activation_bits,
            ),
        )
        object.__setattr__(
            self,
            "_tiling",
            TilingStrategy(
                geometry=self.config.flash,
                weight_bits=self.config.weight_bits,
                activation_bits=self.config.activation_bits,
            ),
        )

    # -- helpers ------------------------------------------------------------
    def selected_tile(self) -> TileShape:
        """The tile shape in use (override or traffic-optimal)."""
        return self.tile if self.tile is not None else self._tiling.optimal_tile()

    def _build_workload(self, model: "ModelSpec | str", seq_len: int) -> DecodeWorkload:
        if isinstance(model, str):
            model = get_model(model)
        return DecodeWorkload(
            model,
            seq_len=seq_len,
            weight_bits=self.config.weight_bits,
            activation_bits=self.config.activation_bits,
            kv_bits=self.config.kv_bits,
        )

    def _weight_rates(self, workload: DecodeWorkload, tile: TileShape):
        """Return (flash_rate, stream_rate, alpha, efficiency) in bytes/s."""
        shapes = workload.per_layer_gemv_shapes()
        if workload.include_lm_head:
            head = workload.lm_head
            shapes = shapes + [(head.rows, head.cols)]
        # With no explicit override each matrix is tiled with its best-fitting
        # candidate shape; an override (Fig. 13 ablation) is applied verbatim.
        efficiency = self._tiling.matrix_efficiency(
            shapes, self.tile if self.tile is not None else None
        )
        partition = WorkloadPartition(
            flash_model=self._flash_model, tile=tile, core_utilization=efficiency
        )
        flash_rate = partition.flash_rate()
        stream_rate = partition.stream_rate() if self.offload_to_npu else 0.0
        if self.use_simulator:
            flash_rate, stream_rate = self._simulated_rates(
                workload, tile, flash_rate, stream_rate, efficiency
            )
        total = flash_rate + stream_rate
        alpha = flash_rate / total if total > 0 else 1.0
        return flash_rate, stream_rate, alpha, efficiency

    def _simulated_rates(self, workload, tile, flash_rate, stream_rate, efficiency):
        """Calibrate rates with one simulated per-channel layer window."""
        schedule = build_layer_schedule(
            workload, self.config, tile=tile, offload_to_npu=self.offload_to_npu
        )
        simulator = ChannelSimulator(
            geometry=self.config.flash,
            timing=self.config.timing,
            core=self.config.compute_core,
            slice_control=self.config.slice_control,
            weight_bits=self.config.weight_bits,
        )
        result = simulator.run(schedule.channel_workload(self.config))
        channels = self.config.channels
        simulated_flash = result.in_flash_rate * channels * efficiency
        simulated_stream = result.read_stream_rate * channels
        if not self.offload_to_npu:
            simulated_stream = 0.0
        return simulated_flash, simulated_stream

    # -- the context-free weight plan ---------------------------------------------
    def _weight_plan(self, workload: DecodeWorkload) -> _WeightPlan:
        """Price the weight GeMVs of ``workload``'s model; raises
        ``ValueError`` when they do not fit in flash."""
        weight_bytes = workload.gemv_weight_bytes
        if not self.config.flash.can_store(weight_bytes):
            raise ValueError(
                f"{workload.model.name} weights do not fit in the flash array of "
                f"{self.config.name}"
            )
        tile = self.selected_tile()
        flash_rate, stream_rate, alpha, efficiency = self._weight_rates(workload, tile)
        combined = flash_rate + stream_rate
        if combined <= 0:
            raise RuntimeError("weight delivery rate is zero")

        layer = workload.layers[0]
        layer_bytes = layer.weight_bytes
        t_flash = alpha * layer_bytes / flash_rate if flash_rate > 0 else 0.0
        t_stream = (
            (1.0 - alpha) * layer_bytes / stream_rate if stream_rate > 0 else 0.0
        )
        streamed_elements = (1.0 - alpha) * sum(
            op.weight_elements for op in layer.gemv_ops
        )
        t_npu_compute = self.config.npu.weight_stream_compute_seconds(streamed_elements)
        qkv_bytes = sum(
            op.weight_bytes
            for op in layer.gemv_ops
            if op.name in ("w_q", "w_k", "w_v")
        )

        tile_bytes = self._tiling.tile_elements * self.config.weight_bits / 8
        num_tiles = alpha * weight_bytes / tile_bytes if tile_bytes > 0 else 0.0
        return _WeightPlan(
            tile=tile,
            flash_rate=flash_rate,
            stream_rate=stream_rate,
            alpha=alpha,
            efficiency=efficiency,
            weight_seconds=max(t_flash, t_stream, t_npu_compute),
            qkv_seconds=qkv_bytes / combined,
            lm_head_seconds=(
                workload.lm_head.weight_bytes / combined
                if workload.include_lm_head
                else 0.0
            ),
            weight_bytes=weight_bytes,
            streamed_bytes=(1.0 - alpha) * weight_bytes,
            vector_bytes=num_tiles * self._tiling.tile_transfer_bytes(tile),
        )

    # -- per-layer latency -------------------------------------------------------
    def _layer_timing(self, workload: DecodeWorkload, plan: _WeightPlan) -> LayerTiming:
        layer = workload.layers[0]
        # KV-cache fetch overlaps with the Q/K/V projection streaming.
        t_kv_fetch = self.config.npu.dram.transfer_seconds(layer.kv_bytes)
        attention_ops = sum(
            op.ops
            for op in layer.operators
            if op.placement is Placement.NPU_AND_DRAM
        )
        t_attention_compute = self.config.npu.systolic.compute_seconds(attention_ops)
        t_kv_exposed = max(0.0, t_kv_fetch - plan.qkv_seconds) + t_attention_compute

        sfu_like = [
            op
            for op in layer.operators
            if op.placement is Placement.NPU_ONLY and not isinstance(op, GeMVOp)
        ]
        sfu_elements = sum(getattr(op, "elements", 0) for op in sfu_like)
        t_sfu = self.config.npu.sfu_seconds(sfu_elements, invocations=len(sfu_like))

        t_sync = self.sync_stages_per_layer * (
            self.config.timing.read_seconds
            + self.config.timing.register_transfer_seconds
        )
        return LayerTiming(
            weight_seconds=plan.weight_seconds,
            kv_seconds=t_kv_exposed,
            sfu_seconds=t_sfu,
            sync_seconds=t_sync,
        )

    # -- public API -----------------------------------------------------------------
    def decode_report(
        self, model: "ModelSpec | str", seq_len: int = 1000
    ) -> DecodeReport:
        """Model the decode of one token and return the full report.

        The single-token model that
        :class:`repro.api.adapters.CambriconBackend` builds prefill, batch
        and multi-token semantics on.  Raises ``ValueError`` when the
        model's weights do not fit in flash.
        """
        from repro.api.request import InferenceRequest

        # Fail on a bad model or context as a request does.
        InferenceRequest(model=model, seq_len=seq_len)
        workload = self._build_workload(model, seq_len)
        spec = workload.model
        plan = self._plans.get(spec)
        if plan is None:
            plan = self._plans[spec] = self._weight_plan(workload)
        combined = plan.flash_rate + plan.stream_rate

        layer_timing = self._layer_timing(workload, plan)
        token_seconds = (
            spec.num_layers * layer_timing.total_seconds + plan.lm_head_seconds
        )
        tokens_per_second = 1.0 / token_seconds

        traffic = self._traffic(workload, plan)
        utilization = self._channel_utilization(traffic, token_seconds)

        return DecodeReport(
            model_name=spec.name,
            config_name=self.config.name,
            tokens_per_second=tokens_per_second,
            token_seconds=token_seconds,
            alpha=plan.alpha,
            tile=str(plan.tile),
            channel_utilization=utilization,
            combined_weight_rate=combined,
            flash_weight_rate=plan.flash_rate,
            stream_weight_rate=plan.stream_rate,
            traffic=traffic,
            layer_timing=layer_timing,
            lm_head_seconds=plan.lm_head_seconds,
            num_layers=spec.num_layers,
            notes={"tiling_efficiency": plan.efficiency, "seq_len": float(seq_len)},
        )

    def decode_speed(self, model: "ModelSpec | str", seq_len: int = 1000) -> float:
        """Convenience wrapper returning only tokens/s."""
        return self.decode_report(model, seq_len).tokens_per_second

    # -- traffic / utilisation ---------------------------------------------------------
    def _traffic(self, workload: DecodeWorkload, plan: _WeightPlan) -> TrafficBreakdown:
        kv_bytes = workload.kv_cache_bytes + workload.model.kv_cache_bytes(
            1, self.config.kv_bits
        )
        return TrafficBreakdown(
            flash_internal_bytes=plan.weight_bytes,
            d2d_stream_bytes=plan.streamed_bytes,
            d2d_vector_bytes=plan.vector_bytes,
            dram_kv_bytes=kv_bytes,
            dram_activation_bytes=workload.activation_bytes,
        )

    def _channel_utilization(
        self, traffic: TrafficBreakdown, token_seconds: float
    ) -> float:
        channel_bytes = traffic.d2d_stream_bytes + traffic.d2d_vector_bytes
        capacity = (
            self.config.channels
            * self.config.timing.channel_bandwidth
            * token_seconds
        )
        if capacity <= 0:
            return 0.0
        return min(1.0, channel_bytes / capacity)
