"""Grid experiment execution with memoization.

The :class:`ExperimentRunner` is the one sweep loop the repo needs: it
takes cartesian grids of (backend x model x config x seq_len x batch x
gen_tokens), executes each distinct request once, in order, memoizes
every (backend, request) pair so repeated or overlapping grids never
re-run the models, and returns a :class:`repro.api.result.ResultSet`.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.api.backend import Backend, get_backend
from repro.api.request import InferenceRequest
from repro.api.result import ResultSet, RunResult

BackendLike = Union[str, Backend]

#: Memoization key: (backend identity, normalized request).
_CacheKey = Tuple[str, InferenceRequest]


class ExperimentRunner:
    """Runs requests against backends, memoizing every result.

    Execution is serial, and the runner is not thread-safe; neither are
    the objects that share one (cost models, schedulers, a backend's own
    memo).  The models are quick analytical evaluations, so threads
    would buy nothing under the GIL.
    """

    def __init__(self):
        self._cache: Dict[_CacheKey, RunResult] = {}
        self._hits = 0
        self._misses = 0

    # -- single request ------------------------------------------------------
    def run(self, backend: BackendLike, request: InferenceRequest) -> RunResult:
        """Run one request, returning the cached result when available."""
        backend_obj = self._instantiate(backend)
        return self._run_key(backend_obj, self._key(backend_obj, request))

    def _run_key(self, backend_obj: Backend, key: _CacheKey) -> RunResult:
        """Cache-or-execute one key; a failed run counts no miss."""
        result = self._cache.get(key)
        if result is not None:
            self._hits += 1
            return result
        result = backend_obj.run(key[1])
        self._misses += 1
        self._cache[key] = result
        return result

    # -- grids ---------------------------------------------------------------
    def run_grid(
        self,
        backends: Sequence[BackendLike],
        models: Sequence[str],
        *,
        configs: Sequence[Optional[str]] = (None,),
        seq_lens: Sequence[int] = (1000,),
        batch_sizes: Sequence[int] = (1,),
        gen_tokens: Sequence[int] = (1,),
    ) -> ResultSet:
        """Evaluate the cartesian grid and return one unified ResultSet.

        Identical (backend, request) points — including points that only
        differ in fields a backend ignores, such as ``config`` for the
        offloading baselines — collapse to a single execution.
        """
        requests = [
            InferenceRequest(
                model=model,
                config=config,
                seq_len=seq_len,
                gen_tokens=gen,
                batch_size=batch,
            )
            for model, config, seq_len, batch, gen in product(
                models, configs, seq_lens, batch_sizes, gen_tokens
            )
        ]
        return self.run_requests(backends, requests)

    def run_requests(
        self,
        backends: Sequence[BackendLike],
        requests: Iterable[InferenceRequest],
    ) -> ResultSet:
        """Run every request on every backend, each distinct point once.

        Points run in first-appearance order.  A failing point does not
        stop the sweep: every other point runs and is cached, then the
        first failure is raised.
        """
        requests = list(requests)
        ordered: Dict[_CacheKey, Backend] = {}
        for backend in backends:
            backend_obj = self._instantiate(backend)
            for request in requests:
                key = self._key(backend_obj, request)
                if key in ordered:
                    self._hits += 1
                else:
                    ordered[key] = backend_obj

        results: List[RunResult] = []
        failure: Optional[Exception] = None
        for key, backend_obj in ordered.items():
            try:
                results.append(self._run_key(backend_obj, key))
            except Exception as exc:  # noqa: BLE001 - re-raised below
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure
        return ResultSet(results)

    # -- cache introspection -------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and the number of memoized results."""
        return {"hits": self._hits, "misses": self._misses, "size": len(self._cache)}

    def clear_cache(self) -> None:
        self._cache.clear()
        self._hits = 0
        self._misses = 0

    # -- internals -----------------------------------------------------------
    @staticmethod
    def _instantiate(backend: BackendLike) -> Backend:
        if isinstance(backend, str):
            return get_backend(backend)
        return backend

    @staticmethod
    def _key(backend_obj: Backend, request: InferenceRequest) -> _CacheKey:
        normalize = getattr(backend_obj, "normalize_request", None)
        if normalize is not None:
            request = normalize(request)
        identity = getattr(backend_obj, "cache_key", backend_obj.name)
        return (identity, request)
