"""Exact pins of the paper model's outputs.

The figure benchmarks assert loose bounds (orderings, speedup ranges), so
they cannot see a change that moves a decode report by one ulp.  These
tests render the paper model's outputs with ``repr`` (exact for floats)
over configs, models, contexts and the engine ablations, and compare the
sha256 of each group's rendering with a pinned digest.  A change that
must not move the model's numbers (a faster tiler, a report memo) has to
pass them unchanged; on a mismatch the assertion shows the rendering.

After a change that moves the numbers on purpose, print the new digests
with ``PYTHONPATH=src python tests/core/test_model_pins.py``.
"""

import hashlib

import pytest

from repro.api import CambriconBackend, InferenceRequest
from repro.core import InferenceEngine, TileShape, cambricon_llm_s, get_config

CONFIGS = ("S", "M", "L")
MODELS = ("opt-6.7b", "llama2-7b", "llama2-70b", "opt-66b")
#: Fig. 13's three tile shapes on Cambricon-LLM-S.
FIG13_TILES = (TileShape(256, 2048), TileShape(128, 4096), TileShape(4096, 128))
#: (seq_len, gen_tokens, batch_size): a half fraction of {128, 2048} x
#: {1, 64} x {1, 8} that still pairs every level of each two factors.
BACKEND_POINTS = ((128, 1, 1), (128, 64, 8), (2048, 1, 8), (2048, 64, 1))


def _decode_line(engine, model, seq_len):
    try:
        report = engine.decode_report(model, seq_len=seq_len)
    except ValueError as exc:
        return f"{model} seq={seq_len} raises {exc}"
    return f"{model} seq={seq_len} {report!r}"


def _run_line(backend, request):
    result = backend.run(request)
    fields = (
        result.tokens_per_second,
        result.time_to_first_token_s,
        result.decode_step_seconds,
        result.total_seconds,
        result.energy_joules_per_token,
        result.traffic_bytes_per_token,
        result.bottleneck,
        result.out_of_memory,
    )
    return f"{request!r} {fields!r}"


def _decode_lines(config):
    engine = InferenceEngine(get_config(config))
    lines = [_decode_line(engine, model, 1000) for model in MODELS]
    for model in ("llama2-7b", "llama2-70b"):
        lines += [_decode_line(engine, model, seq_len) for seq_len in (1, 4096)]
    return lines


def _ablation_lines():
    lines = []
    for config in CONFIGS:
        base = get_config(config)
        lines.append(
            _decode_line(InferenceEngine(base, offload_to_npu=False), "llama2-7b", 1000)
        )
        lines.append(
            _decode_line(
                InferenceEngine(base.with_quantization(4, 16)), "llama2-70b", 1000
            )
        )
        lines.append(
            _decode_line(InferenceEngine(base, use_simulator=True), "llama2-7b", 1000)
        )
    for tile in FIG13_TILES:
        lines.append(
            _decode_line(InferenceEngine(cambricon_llm_s(), tile=tile), "llama2-7b", 1000)
        )
    tiny = cambricon_llm_s().with_flash_scale(channels=1, chips_per_channel=1)
    lines.append(_decode_line(InferenceEngine(tiny), "llama2-70b", 1000))
    return lines


def _backend_lines(config):
    backend = CambriconBackend()
    return [
        _run_line(
            backend,
            InferenceRequest(
                model,
                config=config,
                seq_len=seq_len,
                gen_tokens=gen_tokens,
                batch_size=batch_size,
            ),
        )
        for model in ("llama2-7b", "llama2-70b")
        for seq_len, gen_tokens, batch_size in BACKEND_POINTS
    ]


def _twin_lines():
    request = InferenceRequest(
        "llama2-70b", config="S", seq_len=2048, gen_tokens=64, batch_size=8
    )
    return [_run_line(CambriconBackend().with_capacity_scale(2), request)]


GROUPS = {
    "decode-S": lambda: _decode_lines("S"),
    "decode-M": lambda: _decode_lines("M"),
    "decode-L": lambda: _decode_lines("L"),
    "ablations": _ablation_lines,
    "backend-S": lambda: _backend_lines("S"),
    "backend-M": lambda: _backend_lines("M"),
    "backend-L": lambda: _backend_lines("L"),
    "backend-capacity-twin": _twin_lines,
}

PINS = {
    "decode-S": "71cc93d02a1e1f6a497c9f6f2fa2b667dedbe1a5c67297fdd55c7655da3d5243",
    "decode-M": "d06098d217612ce477a66c085d3d71a70c3c02ffa9304253d91805ad7d710abb",
    "decode-L": "da79cd32b8abe56646227737afc355a4b646969f41ceb8aee6301c209763d28e",
    "ablations": "9dc3d39e82e9c618c2227efa4fc942286f22cef7523c7e5293ceb68a453146f3",
    "backend-S": "d12474a01e942977a2529b3e6192c3590f92366106e94dd9d3e9bc9d425e9725",
    "backend-M": "382bf30bea20abdf8d921f4307195df1ba28eeb7ca908ddcb02c7da7f931fb6d",
    "backend-L": "46b098082cbe1c1eb0b6e64efa29cf4b7663ec3321352b61d18364f0b5adf426",
    "backend-capacity-twin": "8ed59def415afa4bfe166a30587f07e4b22a133839d193779ff37cf3a4018107",
}


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_paper_model_outputs_match_their_pins(group):
    lines = GROUPS[group]()
    assert _digest(lines) == PINS[group], "\n".join(lines)


if __name__ == "__main__":
    for name, render in GROUPS.items():
        print(f'    "{name}": "{_digest(render())}",')
