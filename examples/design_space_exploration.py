"""Scenario: size the flash array for a target interactive experience.

A device vendor wants the cheapest chiplet that decodes a given model at a
target speed.  This example sweeps channel and chip counts (the paper's
Fig. 15 axes) through the unified experiment API: each candidate array is a
:class:`repro.api.CambriconBackend` with a scaled configuration, and one
:class:`repro.api.ExperimentRunner` evaluates them all concurrently — with
memoization, so re-running with a different speed target is free.
"""

from __future__ import annotations

import sys

from repro import CambriconBackend, ExperimentRunner, InferenceRequest, cambricon_llm_s
from repro.npu.buffers import BufferSpec
from repro.reporting import print_table

CHANNEL_OPTIONS = (4, 8, 16, 32)
CHIP_OPTIONS = (1, 2, 4, 8)

RUNNER = ExperimentRunner()


def candidate_backends(model: str):
    """One backend per flash-array design point that can hold the model."""
    backends = []
    for channels in CHANNEL_OPTIONS:
        for chips in CHIP_OPTIONS:
            config = cambricon_llm_s().with_flash_scale(
                channels=channels, chips_per_channel=chips
            )
            if not config.flash.can_store(75e9 if "70b" in model else 35e9):
                continue
            backends.append(CambriconBackend(config=config))
    return backends


def explore(model: str, target_tokens_per_second: float):
    backends = candidate_backends(model)
    # One request per backend; results come back in backend order.
    results = RUNNER.run_requests(backends, [InferenceRequest(model=model)])
    rows, best = [], None
    for backend, result in zip(backends, results):
        config = backend.config
        channels = config.flash.channels
        chips = config.flash.chips_per_channel
        buffer_bytes = BufferSpec.required_weight_buffer(channels, config.page_bytes)
        if result.out_of_memory:
            continue
        meets_target = result.tokens_per_second >= target_tokens_per_second
        rows.append(
            [
                channels,
                chips,
                config.flash.total_compute_cores,
                result.tokens_per_second,
                100 * result.notes["channel_utilization"],
                buffer_bytes / 1024,
                meets_target,
            ]
        )
        if meets_target:
            cost_proxy = channels * chips
            if best is None or cost_proxy < best[0]:
                best = (cost_proxy, channels, chips, result.tokens_per_second)
    return rows, best


def main(model: str = "llama2-7b", target: float = 10.0) -> None:
    rows, best = explore(model, target)
    print_table(
        f"Design space for {model} (target {target:.0f} token/s)",
        ["channels", "chips/ch", "cores", "token/s", "channel use (%)", "NPU buffer (KiB)", "meets target"],
        rows,
    )
    if best is None:
        print("\nNo swept configuration meets the target; increase parallelism.")
    else:
        _, channels, chips, speed = best
        print(
            f"\nSmallest configuration meeting the target: {channels} channels x "
            f"{chips} chips/channel ({speed:.1f} token/s)."
        )
    info = RUNNER.cache_info()
    print(f"(runner: {info['misses']} evaluations, {info['hits']} cache hits)")


if __name__ == "__main__":
    arguments = sys.argv[1:]
    model_name = arguments[0] if arguments else "llama2-7b"
    target_speed = float(arguments[1]) if len(arguments) > 1 else 10.0
    main(model_name, target_speed)
