"""Quantization schemes and tensor quantization helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class QuantScheme:
    """A (weight, activation) quantization operating point.

    Attributes
    ----------
    name:
        Display name, e.g. ``"W8A8"``.
    weight_bits / activation_bits:
        Bit widths of stored weights and of the activations moved between
        operators (and over the flash channel as input/result vectors).
    symmetric:
        Whether weight quantization is symmetric around zero (the paper's
        SmoothQuant INT8 setting is symmetric).
    """

    name: str
    weight_bits: int
    activation_bits: int
    symmetric: bool = True

    def __post_init__(self) -> None:
        if self.weight_bits <= 0 or self.activation_bits <= 0:
            raise ValueError("bit widths must be positive")

    @property
    def weight_bytes_per_element(self) -> float:
        return self.weight_bits / 8

    def model_bytes(self, parameters: float) -> float:
        """Weight footprint of a model with ``parameters`` weights."""
        if parameters < 0:
            raise ValueError("parameters must be non-negative")
        return parameters * self.weight_bytes_per_element


#: The paper's default operating point (Table II).
W8A8 = QuantScheme(name="W8A8", weight_bits=8, activation_bits=8)

#: The lower-bandwidth point evaluated in Fig. 11.
W4A16 = QuantScheme(name="W4A16", weight_bits=4, activation_bits=16)

#: MLC-LLM's 4-bit round-to-nearest weights with FP16 activations.
W4_RTN = QuantScheme(name="W4-RTN", weight_bits=4, activation_bits=16, symmetric=False)


def quantize_tensor(
    values: np.ndarray, bits: int = 8, symmetric: bool = True
) -> Tuple[np.ndarray, float]:
    """Quantize a float tensor to signed integers with a per-tensor scale.

    Returns ``(codes, scale)`` where ``values ≈ codes * scale``.  The scale is
    chosen so the largest-magnitude element maps to the integer extreme, which
    is exactly why weight outliers dominate the representable range — the
    observation the paper's ECC design builds on.
    """
    if bits < 2 or bits > 8:
        raise ValueError("bits must be between 2 and 8 for packed storage")
    if values.size == 0:
        raise ValueError("cannot quantize an empty tensor")
    if not symmetric:
        raise NotImplementedError("only symmetric quantization is implemented")
    qmax = 2 ** (bits - 1) - 1
    max_abs = float(np.max(np.abs(values)))
    scale = max_abs / qmax if max_abs > 0 else 1.0
    codes = np.clip(np.round(values / scale), -qmax - 1, qmax).astype(np.int8)
    return codes, scale


def dequantize_tensor(codes: np.ndarray, scale: float) -> np.ndarray:
    """Reconstruct float values from integer codes and a scale."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return codes.astype(np.float32) * scale
