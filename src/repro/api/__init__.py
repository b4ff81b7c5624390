"""Unified Backend/Request/Result API — the canonical way to run anything.

Every system in the repo (the Cambricon-LLM engine, the FlexGen and
MLC-LLM baselines, and any backend you register) is driven through the
same three types::

    from repro.api import ExperimentRunner, InferenceRequest, get_backend

    # One request on one backend:
    result = get_backend("cambricon").run(
        InferenceRequest(model="llama2-70b", config="L", seq_len=4000)
    )
    print(result.tokens_per_second, result.time_to_first_token_s)

    # A memoized grid over backends x models x contexts:
    runner = ExperimentRunner()
    results = runner.run_grid(
        backends=["cambricon", "flexgen-ssd", "mlc-llm"],
        models=["llama2-7b", "llama2-70b"],
        configs=["S", "L"],
        seq_lens=[1000, 4000],
    )
    print(results.to_markdown())
    best = results.best("tokens_per_second")

New systems plug in with one call::

    from repro.api import register_backend
    register_backend("my-system", MySystemBackend)
"""

from repro.api.adapters import (
    CambriconBackend,
    FlexGenDRAMBackend,
    FlexGenSSDBackend,
    MLCLLMBackend,
    OffloadingBackend,
)
from repro.api.backend import (
    Backend,
    get_backend,
    list_backends,
    register_backend,
    unregister_backend,
)
from repro.api.request import InferenceRequest
from repro.api.result import ResultSet, RunResult
from repro.api.runner import ExperimentRunner

# Built-in backends; overwrite=True keeps module re-imports idempotent.
register_backend("cambricon", CambriconBackend, overwrite=True)
register_backend("flexgen-ssd", FlexGenSSDBackend, overwrite=True)
register_backend("flexgen-dram", FlexGenDRAMBackend, overwrite=True)
register_backend("mlc-llm", MLCLLMBackend, overwrite=True)

__all__ = [
    "Backend",
    "InferenceRequest",
    "RunResult",
    "ResultSet",
    "ExperimentRunner",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "list_backends",
    "CambriconBackend",
    "OffloadingBackend",
    "FlexGenSSDBackend",
    "FlexGenDRAMBackend",
    "MLCLLMBackend",
]
