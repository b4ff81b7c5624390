"""Command-line interface.

Installed as ``python -m repro``; every subcommand drives the unified
:mod:`repro.api` Backend/Request/Result layer:

* ``decode``  — decode-speed report for one model on one configuration,
* ``compare`` — Cambricon-LLM-S/M/L versus the FlexGen / MLC-LLM baselines,
* ``sweep``   — channel/chip scalability sweep for one model (Fig. 15 style),
* ``grid``    — cartesian (backend x model x config x seq_len x batch)
  experiment grid with memoized execution and CSV/markdown export,
* ``serve``   — discrete-event multi-request serving simulation (workload ->
  scheduler -> backend) with SLO percentiles, goodput and capacity search,
* ``fleet``   — multi-device fleet simulation (routing, sharding, mixed
  backends) and ``size_fleet`` capacity planning (``--size-for-qps``).

``serve`` and ``fleet`` share one setup step (:func:`_serving_setup`) and
one output step (:func:`_serving_output`); each keeps only its own search
or simulation call, title and rows.
"""

from __future__ import annotations

import argparse
import math
from functools import partial
from typing import List, NamedTuple, Optional

from repro.api import (
    CambriconBackend,
    ExperimentRunner,
    InferenceRequest,
    list_backends,
)
from repro.core import get_config
from repro.faults import FaultSpec, RetryPolicy
from repro.fleet import (
    ROUTERS,
    ShardingSpec,
    build_fleet,
    get_router,
    simulate_fleet,
    size_fleet,
)
from repro.llm.models import list_models
from repro.memory import MemorySpec
from repro.obs import (
    SpanRecorder,
    TeeRecorder,
    TimelineCollector,
    burn_rate_pack,
    critical_path,
    fleet_snapshot,
    serving_snapshot,
)
from repro.reporting import format_markdown_table, print_table
from repro.serving import (
    BackendCostModel,
    ConstantRateWorkload,
    ContinuousBatchScheduler,
    FCFSScheduler,
    OnOffWorkload,
    PoissonWorkload,
    SLOSpec,
    StaticBatchScheduler,
    TraceWorkload,
    find_max_qps,
    list_bundled_traces,
    load_bundled_trace,
    simulate,
)

_CAMBRICON_CONFIGS = ("S", "M", "L")
_BASELINE_BACKENDS = ("flexgen-ssd", "flexgen-dram", "mlc-llm")
_SCHEDULERS = {
    "fcfs": lambda args, memory=None: FCFSScheduler(),
    "static": lambda args, memory=None: StaticBatchScheduler(max_batch=args.max_batch),
    "continuous": lambda args, memory=None: ContinuousBatchScheduler(
        max_batch=args.max_batch, memory=memory
    ),
}


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts and sizes: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    """A float that is neither infinite nor NaN: the shared check of the
    float ``type=`` helpers below."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    """argparse ``type=`` for rates, durations and SLO bounds: a finite
    number above 0."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse ``type=`` for durations that may be 0: finite and >= 0."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def _fraction(text: str) -> float:
    """argparse ``type=`` for a share of requests: within (0, 1]."""
    value = _finite_float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _config_key(text: str) -> str:
    """argparse ``type=`` for hardware config keys: validated through
    :func:`get_config` and returned unchanged."""
    try:
        get_config(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return text


def _add_model_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "model",
        choices=list_models(),
        help="model to evaluate (paper zoo: OPT and Llama2 families)",
    )


def _speed_cell(result) -> object:
    return "OOM" if result.out_of_memory else result.tokens_per_second


def _decode_command(args: argparse.Namespace) -> int:
    backend = CambriconBackend(config=get_config(args.config))
    result = backend.run(InferenceRequest(model=args.model, seq_len=args.seq_len))
    if result.out_of_memory:
        print(f"{args.model} does not fit on {result.backend_name}: {result.error}")
        return 1
    report = result.detail
    print_table(
        f"Decode report — {report.model_name} on {report.config_name}",
        ["metric", "value"],
        [
            ["decode speed (token/s)", report.tokens_per_second],
            ["latency per token (ms)", 1e3 * report.token_seconds],
            ["time to first token (ms)", 1e3 * result.time_to_first_token_s],
            ["flash share alpha", report.alpha],
            ["tile", report.tile],
            ["channel utilisation (%)", 100 * report.channel_utilization],
            ["external traffic per token (GB)", report.traffic.external_bytes / 1e9],
            ["energy per token (J)", result.energy_joules_per_token],
            ["bottleneck", result.bottleneck],
        ],
    )
    return 0


def _compare_command(args: argparse.Namespace) -> int:
    runner = ExperimentRunner()
    rows = []
    for config in _CAMBRICON_CONFIGS:
        result = runner.run(
            "cambricon",
            InferenceRequest(model=args.model, config=config, seq_len=args.seq_len),
        )
        rows.append([result.backend_name, _speed_cell(result)])
    for backend in _BASELINE_BACKENDS:
        result = runner.run(
            backend, InferenceRequest(model=args.model, seq_len=args.seq_len)
        )
        rows.append([result.backend_name, _speed_cell(result)])
    print_table(
        f"Decode speed comparison — {args.model} at seq_len {args.seq_len} (token/s)",
        ["system", "token/s"],
        rows,
    )
    return 0


def _sweep_command(args: argparse.Namespace) -> int:
    base = get_config(args.config)
    request = InferenceRequest(model=args.model, seq_len=args.seq_len)
    rows = []
    for chips in args.chips:
        backend = CambriconBackend(
            config=base.with_flash_scale(chips_per_channel=chips)
        )
        result = backend.run(request)
        rows.append(
            [
                backend.config.flash.channels,
                chips,
                "OOM" if result.out_of_memory else result.tokens_per_second,
                (
                    100 * result.notes["channel_utilization"]
                    if result.supported
                    else "-"
                ),
            ]
        )
    print_table(
        f"Chip-count sweep — {args.model} on {base.name}",
        ["channels", "chips/channel", "token/s", "channel usage (%)"],
        rows,
    )
    return 0


def _show(args: argparse.Namespace, title: str, headers, rows, first=False) -> None:
    """Print one table: titled text, or a bare markdown table under
    ``--markdown``, set off by a blank line (as a text table's title line
    is) unless it is the ``first`` thing the command prints."""
    if not args.markdown:
        print_table(title, headers, rows)
        return
    if not first:
        print()
    print(format_markdown_table(headers, rows))


def _grid_command(args: argparse.Namespace) -> int:
    runner = ExperimentRunner()
    results = runner.run_grid(
        backends=args.backends or list_backends(),
        models=args.models,
        configs=args.configs,
        seq_lens=args.seq_lens,
        batch_sizes=args.batch_sizes,
        gen_tokens=args.gen_tokens,
    )
    _show(args, "Experiment grid", *results.to_rows(), first=True)
    if args.csv is not None:
        results.to_csv(args.csv)
        print(f"\nWrote {len(results)} rows to {args.csv}")
    info = runner.cache_info()
    print(f"\n{len(results)} results ({info['misses']} runs, {info['hits']} cache hits)")
    if args.show_cache_stats:
        rows = [
            ["profile hits", info["hits"]],
            ["profile misses", info["misses"]],
            ["backend evaluations", info["misses"]],
            ["profile entries", info["size"]],
        ]
        _show(args, "Cache stats", ["counter", "value"], rows)
    return 0


def _serving_slo(args: argparse.Namespace) -> Optional[SLOSpec]:
    if args.slo_ttft is None and args.slo_tpot is None and args.slo_e2e is None:
        return None
    return SLOSpec(
        ttft_s=args.slo_ttft,
        tpot_s=args.slo_tpot,
        e2e_s=args.slo_e2e,
        min_attainment=args.slo_attainment,
    )


def _serving_memory(args: argparse.Namespace) -> Optional[MemorySpec]:
    """The per-device :class:`repro.memory.MemorySpec` the flags ask for.

    ``--dram-gb`` / ``--flash`` carve a KV memory model out of the
    ``--config`` hardware description; only the continuous scheduler
    admits by footprint, so other schedulers reject the flags instead of
    silently ignoring them.
    """
    if args.dram_gb is None and args.flash_gb is None:
        return None
    if args.scheduler != "continuous":
        raise SystemExit(
            "--dram-gb/--flash model KV admission for the continuous "
            "scheduler; pass --scheduler continuous"
        )
    if args.dram_gb is not None and args.dram_gb <= 0:
        raise SystemExit("--dram-gb must be positive")
    if args.flash_gb is not None and args.flash_gb < 0:
        raise SystemExit("--flash must be non-negative")
    overrides = {}
    if args.dram_gb is not None:
        overrides["dram_bytes"] = int(args.dram_gb * (1 << 30))
    if args.flash_gb is not None:
        overrides["spill_capacity_bytes"] = int(args.flash_gb * (1 << 30))
    return MemorySpec.from_config(get_config(args.config), **overrides)


def _window(*arities: int):
    """A parser for ``DEV:START:DUR[:FACTOR]`` windows of ``arities`` parts."""

    def parse(value: str) -> tuple:
        parts = value.split(":")
        if len(parts) not in arities:
            raise ValueError(value)
        return (int(parts[0]),) + tuple(float(part) for part in parts[1:])

    return parse


#: ``--faults`` keys: the :class:`repro.faults.FaultSpec` field each sets,
#: its value parser, and whether it may repeat (stacking windows).  The
#: unknown-key error lists the keys in this order.
_FAULT_KEYS = {
    "crash-mtbf": ("crash_mtbf_s", float, False),
    "flaky": ("flaky_prob", float, False),
    "mttr": ("crash_mttr_s", float, False),
    "seed": ("seed", int, False),
    "slow-duration": ("slow_duration_s", float, False),
    "slow-factor": ("slow_factor", float, False),
    "slow-mtbf": ("slow_mtbf_s", float, False),
    "crash-window": ("crash_windows", _window(3), True),
    "slow-window": ("slow_windows", _window(3, 4), True),
}
#: ``--retry`` keys and their :class:`repro.faults.RetryPolicy` fields.
_RETRY_KEYS = {
    "attempts": ("max_attempts", int, False),
    "backoff": ("backoff_s", float, False),
    "hedge-after": ("hedge_after_s", float, False),
    "jitter": ("jitter", float, False),
    "multiplier": ("multiplier", float, False),
    "seed": ("seed", int, False),
}


def _parse_spec(flag: str, spec: str, keys: dict, build):
    """``flag``'s comma-separated ``key=value`` entries as ``build(**fields)``.

    ``keys`` maps each key to ``(field, parser, repeats)``; a repeating
    key collects its values into a tuple in entry order.  Keys are
    case-insensitive and blank entries are skipped.  Examples::

        --faults crash-mtbf=300,mttr=20,flaky=0.01,seed=7
        --faults crash-window=1:30:10,slow-window=0:60:30:2.5
        --retry attempts=3,backoff=0.5,multiplier=2,jitter=0.1
    """
    fields: dict = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        key, equals, value = entry.partition("=")
        key = key.strip().lower()
        if not equals:
            raise SystemExit(f"{flag}: expected key=value, got {entry!r}")
        if key not in keys:
            raise SystemExit(
                f"{flag}: unknown key {key!r}; known: {', '.join(keys)}"
            )
        field, parse, repeats = keys[key]
        try:
            parsed = parse(value)
        except (TypeError, ValueError):
            raise SystemExit(f"{flag}: bad value in {entry!r}")
        fields[field] = (fields.get(field, ()) + (parsed,)) if repeats else parsed
    try:
        return build(**fields)
    except ValueError as exc:
        raise SystemExit(f"{flag}: {exc}")


def _resilience_kwargs(args: argparse.Namespace, searching: bool) -> dict:
    """The ``faults=/retry=/deadline_s=`` kwargs the chaos flags ask for.

    A capacity/sizing search probes many simulations against the *clean*
    SLO question, so the chaos flags are rejected there rather than
    silently chaos-testing every probe.
    """
    if searching and (
        args.faults is not None or args.retry is not None or args.deadline_s is not None
    ):
        raise SystemExit(
            "--faults/--retry/--deadline-s chaos-test one simulation; they "
            "cannot follow a capacity/sizing search"
        )
    if args.deadline_s is not None and args.deadline_s <= 0:
        raise SystemExit("--deadline-s must be positive")
    faults = retry = None
    if args.faults is not None:
        faults = _parse_spec("--faults", args.faults, _FAULT_KEYS, FaultSpec)
        if not faults.any_faults:
            raise SystemExit(
                "--faults: the spec injects nothing; give it an MTBF, a window "
                "or a flaky probability"
            )
    if args.retry is not None:
        retry = _parse_spec("--retry", args.retry, _RETRY_KEYS, RetryPolicy)
    return {"faults": faults, "retry": retry, "deadline_s": args.deadline_s}


def _workload_arrivals(args: argparse.Namespace, payload: InferenceRequest):
    """The arrivals the workload flags describe: ``--num-requests`` of
    them (default 100; a replayed trace defaults to the whole trace)."""
    if args.workload == "trace":
        if args.trace is not None:
            workload = TraceWorkload.from_csv(args.trace)
        elif args.bundled_trace is not None:
            try:
                workload = load_bundled_trace(args.bundled_trace)
            except KeyError as exc:
                raise SystemExit(f"--bundled-trace: {exc.args[0]}")
        else:
            raise SystemExit(
                "--workload trace requires --trace PATH or --bundled-trace NAME"
            )
        return workload.generate(args.num_requests)
    if args.workload == "poisson":
        workload = PoissonWorkload(args.qps, payload, seed=args.seed)
    elif args.workload == "constant":
        workload = ConstantRateWorkload(args.qps, payload, seed=args.seed)
    else:
        workload = OnOffWorkload(
            args.qps,
            payload,
            on_seconds=args.on_seconds,
            off_seconds=args.off_seconds,
            seed=args.seed,
        )
    return workload.generate(100 if args.num_requests is None else args.num_requests)


def _serving_observers(
    args: argparse.Namespace, slo: Optional[SLOSpec], searching: bool
):
    """Build the run's observers: ``(recorder, span_recorder, timeline)``.

    ``recorder`` is what the simulation gets (a single observer, a
    ``TeeRecorder`` composing both, or None); ``span_recorder`` feeds
    ``--trace-out`` / ``--attribution`` and ``timeline`` feeds
    ``--timeline-out`` / ``--alerts``.  A capacity/sizing search runs
    many simulations; a single trace or timeline of "the search" would
    interleave them meaninglessly, so every observer flag is rejected
    there rather than silently recording the last probe.
    """
    wants_spans = args.trace_out is not None or args.attribution
    wants_timeline = args.timeline_out is not None or args.alerts
    if not wants_spans and not wants_timeline:
        return None, None, None
    if searching:
        raise SystemExit(
            "--trace-out/--attribution/--timeline-out/--alerts observe one "
            "simulation; they cannot follow a capacity/sizing search"
        )
    span_recorder = SpanRecorder() if wants_spans else None
    timeline = None
    if wants_timeline:
        rules = ()
        if args.alerts:
            if slo is None:
                raise SystemExit(
                    "--alerts evaluates SLO burn-rate rules; give it an SLO "
                    "(--slo-ttft/--slo-tpot/--slo-e2e)"
                )
            rules = burn_rate_pack(slo.min_attainment, args.timeline_window)
        timeline = TimelineCollector(
            window_s=args.timeline_window, slo=slo, rules=rules
        )
    if span_recorder is not None and timeline is not None:
        return TeeRecorder(span_recorder, timeline), span_recorder, timeline
    # NB: not ``span_recorder or timeline`` — an empty SpanRecorder is falsy.
    single = span_recorder if span_recorder is not None else timeline
    return single, span_recorder, timeline


class _Run(NamedTuple):
    """What one ``serve``/``fleet`` invocation runs with."""

    payload: InferenceRequest
    slo: Optional[SLOSpec]
    #: The per-device KV memory spec, or None.
    memory: Optional[MemorySpec]
    runner: ExperimentRunner
    #: Keyword arguments for ``simulate`` / ``simulate_fleet``.
    options: dict
    #: Feeds ``--trace-out`` / ``--attribution``; None unless asked for.
    span_recorder: Optional[SpanRecorder]
    #: Feeds ``--timeline-out`` / ``--alerts``; None unless asked for.
    timeline: Optional[TimelineCollector]


def _serving_setup(args: argparse.Namespace, search_flag: str, searching: bool) -> _Run:
    """The setup step ``serve`` and ``fleet`` share.

    Runs every check on the flags the two commands share, then builds the
    payload, SLO, memory spec, runner, observers and simulation options.
    ``search_flag`` names the command's capacity/sizing search flag and
    ``searching`` says whether it was given.
    """
    # Trace flags a run would silently drop (a search builds no workload).
    if args.trace is not None and args.bundled_trace is not None:
        raise SystemExit("pass either --trace or --bundled-trace, not both")
    if args.workload != "trace" and (
        args.trace is not None or args.bundled_trace is not None
    ):
        raise SystemExit(
            f"--trace/--bundled-trace replay a recorded trace; they do nothing "
            f"for a {args.workload!r} workload (use --workload trace)"
        )
    if args.show_probes and not searching:
        raise SystemExit(f"--show-probes requires {search_flag}")
    if args.stream_trace is not None:
        if args.csv is not None:
            raise SystemExit("pass either --stream-trace or --csv, not both")
        if searching:
            raise SystemExit(
                "--stream-trace streams one simulation's trace; it cannot "
                "follow a capacity/sizing search"
            )
    slo = _serving_slo(args)
    memory = _serving_memory(args)
    resilience = _resilience_kwargs(args, searching)
    recorder, span_recorder, timeline = _serving_observers(args, slo, searching)
    if searching:
        if slo is None:
            raise SystemExit(f"{search_flag} needs an SLO (--slo-ttft/tpot/e2e)")
        if args.workload != "poisson":
            raise SystemExit(
                f"{search_flag} probes a Poisson arrival process; "
                f"it cannot search a {args.workload!r} workload"
            )
    return _Run(
        payload=InferenceRequest(
            model=args.model,
            config=args.config,
            seq_len=args.seq_len,
            gen_tokens=args.gen_tokens,
        ),
        slo=slo,
        memory=memory,
        runner=ExperimentRunner(),
        options=dict(
            slo=slo,
            trace_sink=args.stream_trace,
            keep_records=args.stream_trace is None,
            recorder=recorder,
            **resilience,
        ),
        span_recorder=span_recorder,
        timeline=timeline,
    )


def _cache_stats_table(cost_models, runner: ExperimentRunner):
    """One (title, headers, rows) extra table for ``--show-cache-stats``.

    ``latency *`` counters aggregate the distinct cost models' scalar
    lookups; ``profile *`` is the shared runner's backend-eval view.
    """
    seen = set()
    latency = {"hits": 0, "misses": 0, "size": 0}
    for cost in cost_models:
        if id(cost) in seen:
            continue
        seen.add(id(cost))
        info = cost.cache_info()
        latency["hits"] += info["latency_hits"]
        latency["misses"] += info["latency_misses"]
        latency["size"] += info["latency_size"]
    profile = runner.cache_info()
    rows = [
        ["cost models", len(seen)],
        ["latency hits", latency["hits"]],
        ["latency misses", latency["misses"]],
        ["latency entries", latency["size"]],
        ["profile hits", profile["hits"]],
        ["profile misses", profile["misses"]],
        ["backend evaluations", profile["misses"]],
        ["profile entries", profile["size"]],
    ]
    return ("Cache stats", ["counter", "value"], rows)


def _serving_output(
    args: argparse.Namespace,
    run: _Run,
    report,
    title: str,
    *,
    cost_models,
    snapshot,
    lead_rows=(),
    tables=(),
    probes=None,
) -> int:
    """The output step ``serve`` and ``fleet`` share.

    Prints the report's summary under ``title`` (after the command's
    ``lead_rows``), the command's extra ``tables``, the cache counters of
    ``cost_models`` and the probe trail (``probes``: headers and rows),
    then writes and announces every output file the flags ask for.
    ``snapshot`` builds the ``--metrics-out`` metrics snapshot, so runs
    without the flag never pay for one.
    """
    headers, rows = report.summary_rows()
    _show(args, title, headers, list(lead_rows) + rows, first=True)
    for table in tables:
        _show(args, *table)
    if args.show_cache_stats:
        _show(args, *_cache_stats_table(cost_models, run.runner))
    if args.show_probes:
        _show(args, "Probe trail", *probes)
    if args.csv is not None:
        report.to_csv(args.csv)
        print(f"\nWrote {len(report.records)} request records to {args.csv}")
    if args.stream_trace is not None:
        print(f"\nStreamed {report.num_requests} request rows to {args.stream_trace}")
    if args.trace_out is not None:
        run.span_recorder.to_perfetto(args.trace_out)
        print(
            f"\nWrote {len(run.span_recorder.events)} trace events "
            f"(Perfetto JSON) to {args.trace_out}"
        )
    if args.metrics_out is not None:
        metrics = snapshot()
        metrics.to_prometheus(args.metrics_out)
        print(
            f"Wrote {len(metrics.samples)} metric samples "
            f"(Prometheus text) to {args.metrics_out}"
        )
    if args.timeline_out is not None:
        run.timeline.to_csv(args.timeline_out)
        print(
            f"Wrote {len(run.timeline.to_rows())} timeline windows "
            f"({run.timeline.window_s:g}s wide) to {args.timeline_out}"
        )
    if args.alerts:
        alert_headers, alert_rows = report.alerts.summary_rows()
        if alert_rows:
            _show(args, "Alerts (simulated clock)", alert_headers, alert_rows)
        else:
            print("\nAlerts: none fired")
    if args.attribution:
        analysis = critical_path(run.span_recorder)
        _show(args, "Critical-path attribution", *analysis.attribution_rows())
        _show(args, "Makespan chains", *analysis.chain_rows())
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    run = _serving_setup(args, "--find-max-qps", args.find_max_qps)
    cost = BackendCostModel(args.backend, runner=run.runner)
    scheduler_factory = partial(_SCHEDULERS[args.scheduler], args, memory=run.memory)
    lead_rows, probes = [], None
    if args.find_max_qps:
        capacity = find_max_qps(
            args.backend,
            run.payload,
            run.slo,
            scheduler_factory=scheduler_factory,
            num_requests=100 if args.num_requests is None else args.num_requests,
            seed=args.seed,
            runner=run.runner,
            cost=cost,
        )
        report = capacity.report
        lead_rows = [
            ["max sustainable qps", capacity.max_qps],
            ["capacity probes", len(capacity.probes)],
        ]
        title = (
            f"Capacity search — {args.model} on {report.backend_name} "
            f"({report.scheduler_name} scheduler)"
        )
        probes = (
            ["probe", "rate (qps)", "SLO met"],
            [
                [index + 1, rate, met]
                for index, (rate, met) in enumerate(capacity.probes)
            ],
        )
    else:
        arrivals = _workload_arrivals(args, run.payload)
        report = simulate(arrivals, cost, scheduler_factory(), **run.options)
        title = (
            f"Serving simulation — {len(arrivals)} x {args.model} "
            f"({args.workload} workload, {report.scheduler_name} scheduler)"
        )
    return _serving_output(
        args,
        run,
        report,
        title,
        cost_models=[cost],
        snapshot=lambda: serving_snapshot(report, cost_model=cost),
        lead_rows=lead_rows,
        probes=probes,
    )


def _parse_mix(spec: str) -> List[object]:
    """``--mix`` entries ("name=count", comma-separated) as backend objects.

    A name is a registered backend, or ``cambricon-<cfg>`` sugar pinning a
    Table-II configuration per device (``cambricon-s=4,flexgen-ssd=2``).
    """
    backends: List[object] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, equals, count_text = entry.partition("=")
        name = name.strip().lower()
        try:
            count = int(count_text) if equals else 1
        except ValueError:
            raise SystemExit(f"--mix: bad count in {entry!r}")
        if count < 1:
            raise SystemExit(f"--mix: count must be >= 1 in {entry!r}")
        if name in list_backends():
            backends.extend([name] * count)
            continue
        base, dash, config = name.rpartition("-")
        if dash and base == "cambricon":
            try:
                pinned = get_config(config.upper())
            except (KeyError, ValueError):
                raise SystemExit(f"--mix: unknown backend or config {name!r}")
            backends.extend(
                CambriconBackend(config=pinned) for _ in range(count)
            )
            continue
        raise SystemExit(
            f"--mix: unknown backend {name!r}; available: "
            f"{', '.join(list_backends())} (or cambricon-s/m/l)"
        )
    if not backends:
        raise SystemExit("--mix produced an empty fleet")
    return backends


def _fleet_command(args: argparse.Namespace) -> int:
    searching = args.size_for_qps is not None
    if searching and args.num_devices is not None:
        raise SystemExit(
            "--size-for-qps searches the replica count itself; "
            "it cannot honour --num-devices (cap it with --max-replicas)"
        )
    run = _serving_setup(args, "--size-for-qps", searching)
    sharding = ShardingSpec(tensor_parallel=args.tp, pipeline_parallel=args.pp)
    # Each replica owns the DRAM/flash of all its chips (tp x pp of them);
    # ``size_fleet`` re-derives the scaling itself per sharding candidate.
    device_memory = (
        None if run.memory is None else run.memory.scaled(sharding.num_devices)
    )
    scheduler_factory = partial(_SCHEDULERS[args.scheduler], args, memory=device_memory)
    lead_rows, probes = [], None
    if searching:
        if args.mix is not None:
            raise SystemExit(
                "--size-for-qps sizes a homogeneous fleet; it cannot search --mix"
            )
        cost_cache: dict = {}
        sizing = size_fleet(
            args.backend,
            run.payload,
            run.slo,
            args.size_for_qps,
            shardings=[sharding],
            scheduler_factory=scheduler_factory,
            router_factory=lambda: get_router(args.router),
            memory=run.memory,
            num_requests=100 if args.num_requests is None else args.num_requests,
            seed=args.seed,
            max_replicas=args.max_replicas,
            runner=run.runner,
            cost_cache=cost_cache,
        )
        cost_models = list(cost_cache.values())
        report = sizing.report
        won = sizing.sharding
        lead_rows = [
            ["replicas needed", sizing.num_replicas],
            [
                "sharding (tp x pp)",
                f"{won.tensor_parallel} x {won.pipeline_parallel}",
            ],
            ["total chips", sizing.num_chips],
            ["sizing probes", len(sizing.probes)],
        ]
        title = (
            f"Fleet sizing — {args.size_for_qps:g} qps of {args.model} "
            f"on {args.backend} ({args.router} router)"
        )
        probes = (
            ["probe", "replicas", "tp", "pp", "SLO met"],
            [
                [
                    index + 1,
                    probe.replicas,
                    probe.sharding.tensor_parallel,
                    probe.sharding.pipeline_parallel,
                    probe.met,
                ]
                for index, probe in enumerate(sizing.probes)
            ],
        )
    else:
        if args.mix is not None:
            backends = _parse_mix(args.mix)
        else:
            backends = [args.backend] * (
                2 if args.num_devices is None else args.num_devices
            )
        fleet = build_fleet(
            backends,
            scheduler_factory=scheduler_factory,
            sharding=sharding,
            runner=run.runner,
        )
        arrivals = _workload_arrivals(args, run.payload)
        report = simulate_fleet(arrivals, fleet, get_router(args.router), **run.options)
        cost_models = [device.cost for device in fleet]
        title = (
            f"Fleet simulation — {len(arrivals)} x {args.model} on "
            f"{len(fleet)} devices ({args.workload} workload, {args.router} router)"
        )
    return _serving_output(
        args,
        run,
        report,
        title,
        cost_models=cost_models,
        snapshot=lambda: fleet_snapshot(report, cost_models=cost_models),
        lead_rows=lead_rows,
        tables=[("Per-device breakdown",) + report.per_device_rows()],
        probes=probes,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cambricon-LLM reproduction: decode-speed and scalability models",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    decode = subparsers.add_parser("decode", help="decode-speed report for one model")
    _add_model_argument(decode)
    decode.add_argument(
        "--config", type=_config_key, default="L", help="S, M or L (default L)"
    )
    decode.add_argument(
        "--seq-len", type=_positive_int, default=1000, help="cached context length"
    )
    decode.set_defaults(handler=_decode_command)

    compare = subparsers.add_parser("compare", help="compare against the paper's baselines")
    _add_model_argument(compare)
    compare.add_argument("--seq-len", type=_positive_int, default=1000)
    compare.set_defaults(handler=_compare_command)

    sweep = subparsers.add_parser("sweep", help="chips-per-channel scalability sweep")
    _add_model_argument(sweep)
    sweep.add_argument("--config", type=_config_key, default="S")
    sweep.add_argument("--seq-len", type=_positive_int, default=1000)
    sweep.add_argument(
        "--chips", type=_positive_int, nargs="+", default=[1, 2, 4, 8, 16, 32],
        help="chips-per-channel values to sweep",
    )
    sweep.set_defaults(handler=_sweep_command)

    grid = subparsers.add_parser(
        "grid", help="run a backend x model x config x seq_len experiment grid"
    )
    grid.add_argument(
        "models", nargs="+", choices=list_models(), help="models to evaluate"
    )
    grid.add_argument(
        "--backends", nargs="+", default=None, metavar="NAME",
        type=str.lower, choices=list_backends(),
        help=f"registered backends (default: all — {', '.join(list_backends())})",
    )
    grid.add_argument(
        "--configs", type=_config_key, nargs="+", default=["L"], metavar="CFG",
        help="hardware configuration keys for backends that accept them (default L)",
    )
    grid.add_argument("--seq-lens", type=_positive_int, nargs="+", default=[1000])
    grid.add_argument("--batch-sizes", type=_positive_int, nargs="+", default=[1])
    grid.add_argument("--gen-tokens", type=_positive_int, nargs="+", default=[1])
    grid.add_argument("--csv", default=None, metavar="PATH", help="also write CSV here")
    grid.add_argument(
        "--markdown", action="store_true", help="print a markdown table instead"
    )
    grid.add_argument(
        "--show-cache-stats", action="store_true",
        help="print the shared ExperimentRunner's profile-cache counters "
             "(matches the serve/fleet flag)",
    )
    grid.set_defaults(handler=_grid_command)

    serve = subparsers.add_parser(
        "serve",
        help="simulate a multi-request serving workload with SLO metrics",
    )
    _add_serving_arguments(serve)
    serve.add_argument(
        "--find-max-qps", action="store_true",
        help="bisect for the highest Poisson rate that meets the SLO",
    )
    serve.set_defaults(handler=_serve_command)

    fleet = subparsers.add_parser(
        "fleet",
        help="simulate a multi-device fleet (routing, sharding, fleet sizing)",
    )
    _add_serving_arguments(fleet)
    fleet.add_argument(
        "--num-devices", type=_positive_int, default=None,
        help="replica count for a homogeneous fleet (default 2; "
             "incompatible with --size-for-qps, which searches the count)",
    )
    fleet.add_argument(
        "--router", choices=sorted(ROUTERS), default="jsq",
        help="routing policy (default jsq)",
    )
    fleet.add_argument(
        "--tp", type=_positive_int, default=1,
        help="tensor-parallel degree of every replica (default 1)",
    )
    fleet.add_argument(
        "--pp", type=_positive_int, default=1,
        help="pipeline-parallel degree of every replica (default 1)",
    )
    fleet.add_argument(
        "--mix", default=None, metavar="SPEC",
        help="heterogeneous fleet, e.g. 'cambricon-s=4,flexgen-ssd=2' "
             "(overrides --num-devices/--backend)",
    )
    fleet.add_argument(
        "--size-for-qps", type=_positive_float, default=None, metavar="QPS",
        help="search the smallest replica count sustaining this rate under the SLO",
    )
    fleet.add_argument(
        "--max-replicas", type=_positive_int, default=64,
        help="replica-search ceiling for --size-for-qps (default 64)",
    )
    fleet.set_defaults(handler=_fleet_command)
    return parser


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    """Payload, workload, scheduler, SLO and output flags shared by
    ``serve`` and ``fleet``."""
    _add_model_argument(parser)
    parser.add_argument(
        "--backend", default="cambricon", type=str.lower, choices=list_backends(),
        help="registered backend (default cambricon)",
    )
    parser.add_argument(
        "--config", type=_config_key, default="L",
        help="hardware config key (default L)",
    )
    parser.add_argument(
        "--seq-len", type=_positive_int, default=1000, help="prompt length"
    )
    parser.add_argument(
        "--gen-tokens", type=_positive_int, default=16,
        help="tokens generated per request",
    )
    parser.add_argument(
        "--workload", choices=("poisson", "constant", "onoff", "trace"),
        default="poisson", help="arrival process (default poisson)",
    )
    parser.add_argument(
        "--qps", type=_positive_float, default=1.0,
        help="mean arrival rate (burst rate for onoff; default 1.0)",
    )
    parser.add_argument(
        "--num-requests", type=_positive_int, default=None,
        help="arrivals to simulate (default 100; trace: the whole trace)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    parser.add_argument(
        "--on-seconds", type=_positive_float, default=1.0,
        help="onoff: burst window length",
    )
    parser.add_argument(
        "--off-seconds", type=_non_negative_float, default=1.0,
        help="onoff: silence window length",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="trace CSV to replay (with --workload trace)",
    )
    parser.add_argument(
        "--bundled-trace", default=None, metavar="NAME",
        help="bundled trace fixture to replay with --workload trace "
             f"({', '.join(list_bundled_traces()) or 'none shipped'})",
    )
    parser.add_argument(
        "--scheduler", choices=sorted(_SCHEDULERS), default="fcfs",
        help="request scheduler (default fcfs)",
    )
    parser.add_argument(
        "--max-batch", type=_positive_int, default=8,
        help="batch slots for static/continuous scheduling (default 8)",
    )
    parser.add_argument(
        "--dram-gb", type=_finite_float, default=None, metavar="GIB",
        help="model KV memory: per-chip DRAM budget in GiB (continuous "
             "scheduler only; admission blocks and cold KV spills to flash "
             "when it runs out)",
    )
    parser.add_argument(
        "--flash-gb", "--flash", type=_finite_float, default=None, metavar="GIB",
        dest="flash_gb",
        help="model KV memory: cap the per-chip flash spill area at this "
             "many GiB (default: whatever the --config flash array holds)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject seeded faults (repro.faults): comma-separated "
             "key=value pairs among seed, crash-mtbf, mttr, slow-mtbf, "
             "slow-duration, slow-factor, flaky, crash-window=DEV:START:DUR, "
             "slow-window=DEV:START:DUR[:FACTOR]; e.g. "
             "'crash-mtbf=300,mttr=20,flaky=0.01'",
    )
    parser.add_argument(
        "--retry", default=None, metavar="SPEC",
        help="client retry policy: key=value pairs among attempts, backoff, "
             "multiplier, jitter, seed, hedge-after; e.g. "
             "'attempts=3,backoff=0.5,multiplier=2'",
    )
    parser.add_argument(
        "--deadline-s", type=_finite_float, default=None, metavar="SEC",
        help="per-request deadline on the simulated clock: queued work past "
             "it is shed, finished work past it counts as timed out",
    )
    parser.add_argument(
        "--slo-ttft", type=_positive_float, default=None, help="TTFT SLO (s)"
    )
    parser.add_argument(
        "--slo-tpot", type=_positive_float, default=None,
        help="time-per-output-token SLO (s)",
    )
    parser.add_argument(
        "--slo-e2e", type=_positive_float, default=None, help="end-to-end SLO (s)"
    )
    parser.add_argument(
        "--slo-attainment", type=_fraction, default=0.95,
        help="fraction of requests that must meet the SLO (default 0.95)",
    )
    parser.add_argument(
        "--show-probes", action="store_true",
        help="print the probe trail of a capacity/sizing search",
    )
    parser.add_argument(
        "--show-cache-stats", action="store_true",
        help="print cost-model latency and backend-profile cache counters",
    )
    parser.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the per-request trace as CSV",
    )
    parser.add_argument(
        "--stream-trace", default=None, metavar="PATH",
        help="stream the per-request trace to PATH as requests finish "
             "(byte-identical to --csv but with O(in-flight) memory; "
             "incompatible with --csv and with the capacity/sizing searches)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record the simulation with a repro.obs SpanRecorder and write "
             "a Perfetto/Chrome trace-event JSON here (keyed on simulated "
             "time; never changes the simulation's results)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final report as a Prometheus text-format metrics "
             "snapshot (repro.obs.MetricsSnapshot exposition)",
    )
    parser.add_argument(
        "--timeline-out", default=None, metavar="PATH",
        help="fold the run into fixed-width metric windows on the simulated "
             "clock (repro.obs.TimelineCollector) and write them here as CSV "
             "(never changes the simulation's results)",
    )
    parser.add_argument(
        "--timeline-window", type=_positive_float, default=60.0, metavar="SEC",
        help="window width in simulated seconds for --timeline-out/--alerts "
             "(default 60)",
    )
    parser.add_argument(
        "--alerts", action="store_true",
        help="evaluate the default SLO burn-rate alert pack (fast + slow "
             "multiwindow rules) as timeline windows close and print the "
             "fire/resolve log; needs an SLO",
    )
    parser.add_argument(
        "--attribution", action="store_true",
        help="record the run's spans and print a critical-path attribution "
             "table (queue/prefill/decode shares, flash I/O, per-device "
             "makespan chains)",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="print a markdown table instead"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
