"""Whole-model decode and prefill workloads.

A :class:`DecodeWorkload` expands a model into the full per-token operator
stream (all layers plus the LM head) and exposes the aggregate quantities the
performance model, the traffic model and the roofline analysis consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from repro.llm.layers import build_decode_layer_ops, build_lm_head_op
from repro.llm.models import ModelSpec, get_model
from repro.llm.operators import GeMVOp, Operator


@dataclass
class LayerOps:
    """Operators of one decoder layer, with convenient per-layer aggregates."""

    index: int
    operators: List[Operator]

    @property
    def gemv_ops(self) -> List[GeMVOp]:
        """The weight GeMVs of this layer (the flash+NPU work)."""
        return [op for op in self.operators if isinstance(op, GeMVOp)]

    @property
    def weight_bytes(self) -> float:
        return sum(op.weight_bytes for op in self.operators)

    @property
    def kv_bytes(self) -> float:
        return sum(op.kv_bytes for op in self.operators)

    @property
    def activation_bytes(self) -> float:
        return sum(op.activation_bytes for op in self.operators)

    @property
    def compute_ops(self) -> float:
        return sum(op.ops for op in self.operators)


@dataclass
class DecodeWorkload:
    """One decode step (one generated token) of a model.

    Parameters
    ----------
    model:
        Architecture, or model name resolvable by :func:`repro.llm.get_model`.
    seq_len:
        Number of tokens already in the KV cache.
    weight_bits / activation_bits / kv_bits:
        Quantization widths; the paper's default configuration is W8A8 with a
        16-bit KV cache.
    include_lm_head:
        Whether to include the final vocabulary projection.  The paper's
        traffic numbers include it (the LM head weights also live in flash).
    """

    model: ModelSpec
    seq_len: int = 1000
    weight_bits: int = 8
    activation_bits: int = 8
    kv_bits: int = 16
    include_lm_head: bool = True
    _layers: List[LayerOps] = field(default_factory=list, repr=False)
    _lm_head: GeMVOp = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if isinstance(self.model, str):
            self.model = get_model(self.model)
        layer_ops = build_decode_layer_ops(
            self.model,
            seq_len=self.seq_len,
            weight_bits=self.weight_bits,
            activation_bits=self.activation_bits,
            kv_bits=self.kv_bits,
        )
        # Every decoder layer executes the same operator pattern during
        # decode, so expand once and replicate.
        self._layers = [
            LayerOps(index=i, operators=list(layer_ops))
            for i in range(self.model.num_layers)
        ]
        self._lm_head = build_lm_head_op(
            self.model,
            weight_bits=self.weight_bits,
            activation_bits=self.activation_bits,
        )

    # -- structure ----------------------------------------------------------
    @property
    def layers(self) -> Sequence[LayerOps]:
        return self._layers

    @property
    def lm_head(self) -> GeMVOp:
        return self._lm_head

    def iter_operators(self) -> Iterator[Operator]:
        """Iterate over every operator of the decode step in order."""
        for layer in self._layers:
            yield from layer.operators
        if self.include_lm_head:
            yield self._lm_head

    # -- aggregates -----------------------------------------------------------
    @property
    def gemv_weight_bytes(self) -> float:
        """Bytes of weights the GeMVs must stream per generated token."""
        total = sum(layer.weight_bytes for layer in self._layers)
        if self.include_lm_head:
            total += self._lm_head.weight_bytes
        return total

    @property
    def kv_cache_bytes(self) -> float:
        """KV-cache bytes read from DRAM per generated token."""
        return sum(layer.kv_bytes for layer in self._layers)

    @property
    def activation_bytes(self) -> float:
        total = sum(layer.activation_bytes for layer in self._layers)
        if self.include_lm_head:
            total += self._lm_head.activation_bytes
        return total

    @property
    def total_ops(self) -> float:
        """Arithmetic operations per generated token."""
        total = sum(layer.compute_ops for layer in self._layers)
        if self.include_lm_head:
            total += self._lm_head.ops
        return total

    @property
    def total_bytes(self) -> float:
        return self.gemv_weight_bytes + self.kv_cache_bytes + self.activation_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """Ops per byte of the whole decode step (≈2 for W8A8, see Fig. 1a)."""
        return self.total_ops / self.total_bytes

    def per_layer_gemv_shapes(self) -> List[tuple]:
        """(rows, cols) of every weight GeMV in one layer (used by the tiler)."""
        return [(op.rows, op.cols) for op in self._layers[0].gemv_ops]


@dataclass
class PrefillWorkload:
    """The prefill phase: all prompt tokens processed in parallel.

    Used only for the arithmetic-intensity comparison (Fig. 1a / 3a); the
    paper's performance evaluation reports decode throughput.
    """

    model: ModelSpec
    prompt_len: int = 512
    weight_bits: int = 8
    activation_bits: int = 8
    kv_bits: int = 16

    def __post_init__(self) -> None:
        if isinstance(self.model, str):
            self.model = get_model(self.model)
        if self.prompt_len <= 0:
            raise ValueError("prompt_len must be positive")
        self._layer_ops = build_decode_layer_ops(
            self.model,
            seq_len=0,
            weight_bits=self.weight_bits,
            activation_bits=self.activation_bits,
            kv_bits=self.kv_bits,
            batch_tokens=self.prompt_len,
        )

    @property
    def total_ops(self) -> float:
        return self.model.num_layers * sum(op.ops for op in self._layer_ops)

    @property
    def total_bytes(self) -> float:
        per_layer = sum(op.total_bytes for op in self._layer_ops)
        return self.model.num_layers * per_layer

    @property
    def arithmetic_intensity(self) -> float:
        """Ops per byte; two to three orders of magnitude above decode."""
        return self.total_ops / self.total_bytes
