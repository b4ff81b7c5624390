"""Error-injection accuracy study (Fig. 3b and Fig. 10).

The study packs the proxy model's INT8 weights into flash pages, encodes the
outlier ECC per page, injects bit flips at a given raw error rate into both
the data and the ECC spare area, optionally runs the on-die correction, and
measures the resulting task accuracy.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.accuracy.proxy_model import ProxyLLM, QuantizedProxyWeights
from repro.accuracy.tasks import SyntheticTask
from repro.ecc.codec import PageCodec
from repro.ecc.errors import BitFlipErrorModel


@dataclass(frozen=True)
class ErrorInjectionResult:
    """Accuracy at one raw flash error rate."""

    task_name: str
    error_rate: float
    baseline_accuracy: float
    accuracy_without_ecc: float
    accuracy_with_ecc: float

    @property
    def retention_without_ecc(self) -> float:
        """Fraction of the clean accuracy retained without the ECC."""
        return self.accuracy_without_ecc / self.baseline_accuracy

    @property
    def retention_with_ecc(self) -> float:
        """Fraction of the clean accuracy retained with the on-die ECC."""
        return self.accuracy_with_ecc / self.baseline_accuracy


class ErrorInjectionStudy:
    """Accuracy-vs-error-rate sweep for one task.

    Parameters
    ----------
    task:
        Synthetic task (see :func:`repro.accuracy.tasks.paper_tasks`).
    page_elements:
        Weights per flash page (16384 for 16 KB INT8 pages).
    protect_fraction:
        Fraction of values the ECC protects per page.
    trials:
        Independent error-injection trials averaged per data point.
    seed:
        Base seed; each (rate, trial) pair derives its own stream.
    """

    def __init__(
        self,
        task: SyntheticTask,
        page_elements: int = 16384,
        protect_fraction: float = 0.01,
        trials: int = 3,
        seed: int = 2024,
        model: Optional[ProxyLLM] = None,
    ) -> None:
        if trials <= 0:
            raise ValueError("trials must be positive")
        self.task = task
        self.trials = trials
        self.seed = seed
        self.codec = PageCodec(
            page_elements=page_elements, protect_fraction=protect_fraction
        )
        self.model = model if model is not None else ProxyLLM(task).fit()
        self.weights = self.model.quantize()
        self.baseline_accuracy = self.model.evaluate_quantized(self.weights)
        self._pages, self._padding = self._paginate(self.weights)
        self._ecc_blocks = [self.codec.encode(page) for page in self._pages]

    # -- pagination ------------------------------------------------------------
    def _paginate(self, weights: QuantizedProxyWeights):
        flat = weights.flat_codes()
        page_elements = self.codec.page_elements
        padding = (-flat.size) % page_elements
        padded = np.concatenate([flat, np.zeros(padding, dtype=np.int8)])
        pages = [
            padded[start:start + page_elements].copy()
            for start in range(0, padded.size, page_elements)
        ]
        return pages, padding

    def _reassemble(self, pages: List[np.ndarray]) -> QuantizedProxyWeights:
        flat = np.concatenate(pages)
        if self._padding:
            flat = flat[: -self._padding]
        return self.weights.from_flat(flat)

    # -- the study --------------------------------------------------------------
    def evaluate_rate(self, error_rate: float) -> ErrorInjectionResult:
        """Average accuracy with and without ECC at one raw error rate."""
        if error_rate < 0:
            raise ValueError("error_rate must be non-negative")
        accuracies_plain = []
        accuracies_ecc = []
        # A CRC, not ``hash()``: str hashes are salted per process, which
        # would make the injected bit flips change from run to run.
        rate_offset = zlib.crc32(f"{error_rate:.3e}".encode()) % 997
        for trial in range(self.trials):
            trial_seed = self.seed + 1000 * trial + rate_offset
            corrupted_pages = []
            corrected_pages = []
            for page_index, page in enumerate(self._pages):
                data_model = BitFlipErrorModel(
                    error_rate, seed=trial_seed + page_index
                )
                ecc_model = BitFlipErrorModel(
                    error_rate, seed=trial_seed + 7919 + page_index
                )
                corrupted = data_model.inject_bytes(page)
                corrupted_pages.append(corrupted)
                corrupted_ecc = self.codec.corrupt_ecc(
                    self._ecc_blocks[page_index], ecc_model
                )
                corrected_pages.append(self.codec.correct(corrupted, corrupted_ecc))
            accuracies_plain.append(
                self.model.evaluate_quantized(self._reassemble(corrupted_pages))
            )
            accuracies_ecc.append(
                self.model.evaluate_quantized(self._reassemble(corrected_pages))
            )
        return ErrorInjectionResult(
            task_name=self.task.name,
            error_rate=error_rate,
            baseline_accuracy=self.baseline_accuracy,
            accuracy_without_ecc=float(np.mean(accuracies_plain)),
            accuracy_with_ecc=float(np.mean(accuracies_ecc)),
        )

    def sweep(self, error_rates: Iterable[float]) -> List[ErrorInjectionResult]:
        """Run the study across a list of raw error rates."""
        return [self.evaluate_rate(rate) for rate in error_rates]
