"""Shared machinery for the offloading baselines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.llm.models import ModelSpec, get_model
from repro.llm.workload import DecodeWorkload


@dataclass(frozen=True)
class BaselineResult:
    """Decode performance of a baseline on one model."""

    system_name: str
    model_name: str
    tokens_per_second: float
    token_seconds: float
    transfer_bytes_per_token: float
    bottleneck: str
    out_of_memory: bool = False

    @property
    def supported(self) -> bool:
        return not self.out_of_memory


@dataclass(frozen=True)
class OffloadingBaseline:
    """Generic bandwidth-bound offloading system.

    The decode step must move every weight byte from the offload tier to the
    compute device; ``traffic_multiplier`` captures extra hops (e.g. FlexGen's
    SSD → DRAM → GPU path roughly triples the bytes moved relative to the
    model size, as Fig. 16 reports).
    """

    name: str
    weight_bits: int
    offload_bandwidth: float
    traffic_multiplier: float = 1.0
    compute_bandwidth: Optional[float] = None
    weight_capacity_bytes: Optional[float] = None
    per_token_overhead_s: float = 0.0

    def workload(self, model: "ModelSpec | str", seq_len: int = 1000) -> DecodeWorkload:
        if isinstance(model, str):
            model = get_model(model)
        return DecodeWorkload(model, seq_len=seq_len, weight_bits=self.weight_bits)

    def decode_result(self, model: "ModelSpec | str", seq_len: int = 1000) -> BaselineResult:
        """Bandwidth-bound decode latency of one token.

        The single-token model that
        :class:`repro.api.adapters.OffloadingBackend` builds prefill, batch
        and multi-token semantics on.  A model over the weight capacity
        is an out-of-memory result, not an error.
        """
        from repro.api.request import InferenceRequest

        # Fail on a bad model or context as a request does.
        InferenceRequest(model=model, seq_len=seq_len)
        workload = self.workload(model, seq_len)
        spec = workload.model
        weight_bytes = workload.gemv_weight_bytes

        if (
            self.weight_capacity_bytes is not None
            and weight_bytes > self.weight_capacity_bytes
        ):
            return BaselineResult(
                system_name=self.name,
                model_name=spec.name,
                tokens_per_second=0.0,
                token_seconds=float("inf"),
                transfer_bytes_per_token=0.0,
                bottleneck="capacity",
                out_of_memory=True,
            )

        offload_seconds = weight_bytes / self.offload_bandwidth
        bottleneck = "offload-bandwidth"
        compute_seconds = 0.0
        if self.compute_bandwidth is not None:
            compute_seconds = (
                weight_bytes + workload.kv_cache_bytes
            ) / self.compute_bandwidth
            if compute_seconds > offload_seconds:
                bottleneck = "compute-memory-bandwidth"
        token_seconds = max(offload_seconds, compute_seconds) + self.per_token_overhead_s
        return BaselineResult(
            system_name=self.name,
            model_name=spec.name,
            tokens_per_second=1.0 / token_seconds,
            token_seconds=token_seconds,
            transfer_bytes_per_token=weight_bytes * self.traffic_multiplier
            + workload.kv_cache_bytes,
            bottleneck=bottleneck,
        )

    def decode_speed(self, model: "ModelSpec | str", seq_len: int = 1000) -> float:
        """Tokens/s (0.0 when the model does not fit)."""
        return self.decode_result(model, seq_len).tokens_per_second
