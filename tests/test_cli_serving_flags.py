"""The chaos, memory and streaming flags ``serve`` and ``fleet`` share.

Every case runs on both commands, so the two stay pinned to the same
flag handling: ``--faults``/``--retry`` spec parsing and its errors,
``--deadline-s``, ``--dram-gb``/``--flash`` and ``--stream-trace``.
"""

import pytest

import repro.cli
from repro.cli import main
from repro.faults import FaultSpec, RetryPolicy

_BASE = {
    "serve": [
        "serve", "opt-6.7b", "--config", "S", "--gen-tokens", "4",
        "--qps", "0.5", "--num-requests", "20", "--seed", "0",
    ],
    "fleet": [
        "fleet", "opt-6.7b", "--config", "S", "--gen-tokens", "4",
        "--qps", "1.0", "--num-requests", "20", "--seed", "0",
    ],
}
#: The search flag of each command, with its argument.
_SEARCH = {"serve": ["--find-max-qps"], "fleet": ["--size-for-qps", "1"]}
#: The simulation entry point each command calls.
_ENTRY = {"serve": "simulate", "fleet": "simulate_fleet"}


@pytest.fixture(params=sorted(_BASE))
def command(request):
    return request.param


@pytest.fixture
def spy(command, monkeypatch):
    """Run the command's simulation for real, keeping its keyword
    arguments (``kwargs``) and the report it returned (``report``)."""
    seen = {}
    original = getattr(repro.cli, _ENTRY[command])

    def run(*args, **kwargs):
        seen["kwargs"] = kwargs
        seen["report"] = original(*args, **kwargs)
        return seen["report"]

    monkeypatch.setattr(repro.cli, _ENTRY[command], run)
    return seen


def _fails(argv):
    """The message a command exits with."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return str(excinfo.value)


# -- --faults -------------------------------------------------------------------

def test_faults_scalar_keys_reach_the_spec(command, spy, capsys):
    spec = (
        "seed=7,crash-mtbf=300,mttr=20,slow-mtbf=400,slow-duration=15,"
        "slow-factor=2.5,flaky=0.01"
    )
    assert main(_BASE[command] + ["--faults", spec]) == 0
    assert spy["kwargs"]["faults"] == FaultSpec(
        seed=7,
        crash_mtbf_s=300.0,
        crash_mttr_s=20.0,
        slow_mtbf_s=400.0,
        slow_duration_s=15.0,
        slow_factor=2.5,
        flaky_prob=0.01,
    )
    assert "availability" in capsys.readouterr().out


def test_faults_keys_ignore_case_and_blank_entries(command, spy, capsys):
    assert main(_BASE[command] + ["--faults", " FLAKY=0.5, ,Seed=3,"]) == 0
    assert spy["kwargs"]["faults"] == FaultSpec(seed=3, flaky_prob=0.5)


def test_faults_windows_repeat_in_order(command, spy, capsys):
    spec = (
        "crash-window=0:5:3,slow-window=0:60:30:2.5,"
        "crash-window=0:30:10,slow-window=0:10:5"
    )
    assert main(_BASE[command] + ["--faults", spec]) == 0
    faults = spy["kwargs"]["faults"]
    assert faults.crash_windows == ((0, 5.0, 3.0), (0, 30.0, 10.0))
    assert faults.slow_windows == ((0, 60.0, 30.0, 2.5), (0, 10.0, 5.0))
    assert spy["report"].faults.crashes == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("flaky", "--faults: expected key=value, got 'flaky'"),
        (
            "crash-mtbf=300,bogus=1",
            "--faults: unknown key 'bogus'; known: crash-mtbf, flaky, mttr, "
            "seed, slow-duration, slow-factor, slow-mtbf, crash-window, "
            "slow-window",
        ),
        ("mttr=soon", "--faults: bad value in 'mttr=soon'"),
        ("seed=1.5", "--faults: bad value in 'seed=1.5'"),
        ("crash-window=0:5", "--faults: bad value in 'crash-window=0:5'"),
        ("crash-window=0:5:3:2", "--faults: bad value in 'crash-window=0:5:3:2'"),
        ("slow-window=0:5", "--faults: bad value in 'slow-window=0:5'"),
        (
            "slow-window=0:5:3:2:1",
            "--faults: bad value in 'slow-window=0:5:3:2:1'",
        ),
        ("crash-window=x:5:3", "--faults: bad value in 'crash-window=x:5:3'"),
        ("flaky=2", "--faults: flaky_prob must be in [0, 1], got 2.0"),
        ("crash-window=0:-1:3", "--faults: bad crash window (0, -1.0, 3.0)"),
        (
            "crash-mtbf=nan,mttr=5",
            "--faults: crash_mtbf_s must be positive and finite, got nan",
        ),
        (
            "slow-window=0:1:50:nan",
            "--faults: bad slow window (0, 1.0, 50.0, nan)",
        ),
        (
            "seed=3",
            "--faults: the spec injects nothing; give it an MTBF, a window "
            "or a flaky probability",
        ),
        (
            "",
            "--faults: the spec injects nothing; give it an MTBF, a window "
            "or a flaky probability",
        ),
    ],
)
def test_faults_errors_name_the_flag(command, spec, message):
    assert _fails(_BASE[command] + ["--faults", spec]) == message


# -- --retry and --deadline-s ------------------------------------------------------

def test_retry_keys_reach_the_policy(command, spy, capsys):
    spec = "attempts=4,backoff=0.25,multiplier=3,jitter=0.1,seed=5,hedge-after=30"
    assert main(_BASE[command] + ["--retry", spec]) == 0
    kwargs = spy["kwargs"]
    assert kwargs["retry"] == RetryPolicy(
        max_attempts=4,
        backoff_s=0.25,
        multiplier=3.0,
        jitter=0.1,
        seed=5,
        hedge_after_s=30.0,
    )
    assert kwargs["faults"] is None and kwargs["deadline_s"] is None


def test_an_empty_retry_spec_is_the_default_policy(command, spy, capsys):
    assert main(_BASE[command] + ["--retry", ""]) == 0
    assert spy["kwargs"]["retry"] == RetryPolicy()


@pytest.mark.parametrize(
    "spec, message",
    [
        ("attempts", "--retry: expected key=value, got 'attempts'"),
        (
            "tries=3",
            "--retry: unknown key 'tries'; known: attempts, backoff, "
            "hedge-after, jitter, multiplier, seed",
        ),
        ("attempts=many", "--retry: bad value in 'attempts=many'"),
        ("attempts=2.5", "--retry: bad value in 'attempts=2.5'"),
        ("attempts=0", "--retry: max_attempts must be >= 1, got 0"),
        ("jitter=1", "--retry: jitter must be in [0, 1), got 1.0"),
        (
            "attempts=3,backoff=nan",
            "--retry: backoff_s must be >= 0 and finite, got nan",
        ),
    ],
)
def test_retry_errors_name_the_flag(command, spec, message):
    assert _fails(_BASE[command] + ["--retry", spec]) == message


def test_deadline_reaches_the_run(command, spy, capsys):
    assert main(_BASE[command] + ["--deadline-s", "90"]) == 0
    kwargs = spy["kwargs"]
    assert kwargs["deadline_s"] == 90.0
    assert kwargs["faults"] is None and kwargs["retry"] is None


@pytest.mark.parametrize("value", ["0", "-5"])
def test_deadline_must_be_positive(command, value):
    assert _fails(_BASE[command] + ["--deadline-s", value]) == (
        "--deadline-s must be positive"
    )


@pytest.mark.parametrize(
    "flag",
    [["--faults", "flaky=0.1"], ["--retry", "attempts=2"], ["--deadline-s", "9"]],
)
def test_chaos_flags_cannot_follow_a_search(command, flag):
    argv = _BASE[command] + _SEARCH[command] + ["--slo-e2e", "60"] + flag
    assert _fails(argv) == (
        "--faults/--retry/--deadline-s chaos-test one simulation; they "
        "cannot follow a capacity/sizing search"
    )


# -- --dram-gb / --flash -------------------------------------------------------------

def test_memory_flags_size_every_device(command, spy, capsys):
    argv = _BASE[command] + [
        "--scheduler", "continuous", "--max-batch", "4",
        "--dram-gb", "0.375", "--flash", "8",
    ]
    assert main(argv) == 0
    report = spy["report"]
    reports = report.device_reports if command == "fleet" else [report]
    for device_report in reports:
        memory = device_report.memory
        assert memory.dram_capacity_bytes == 3 << 27  # 0.375 GiB
        # The spill area is the 8 GiB cap, rounded down to whole flash units.
        assert 0.999 * (8 << 30) < memory.spill_capacity_bytes <= 8 << 30


@pytest.mark.parametrize("scheduler", ["fcfs", "static"])
@pytest.mark.parametrize("flag", [["--dram-gb", "1"], ["--flash", "8"]])
def test_memory_flags_need_the_continuous_scheduler(command, scheduler, flag):
    argv = _BASE[command] + ["--scheduler", scheduler] + flag
    assert _fails(argv) == (
        "--dram-gb/--flash model KV admission for the continuous "
        "scheduler; pass --scheduler continuous"
    )


@pytest.mark.parametrize(
    "flag, message",
    [
        (["--dram-gb", "0"], "--dram-gb must be positive"),
        (["--dram-gb", "-1"], "--dram-gb must be positive"),
        (["--flash", "-1"], "--flash must be non-negative"),
    ],
)
def test_memory_flags_reject_bad_sizes(command, flag, message):
    argv = _BASE[command] + ["--scheduler", "continuous"] + flag
    assert _fails(argv) == message


# -- --stream-trace -------------------------------------------------------------

#: A hedged fleet whose hedges can win while their primaries wait to retry.
_HEDGED_FLEET = [
    "fleet", "opt-6.7b", "--config", "S", "--gen-tokens", "4",
    "--num-devices", "4", "--router", "jsq", "--qps", "0.3",
    "--num-requests", "120", "--scheduler", "continuous", "--max-batch", "4",
    "--faults", "flaky=0.2,seed=1", "--retry", "attempts=3,backoff=0.5,hedge-after=1",
]


@pytest.mark.parametrize(
    "argv, rows",
    [(_BASE["fleet"], 20), (_BASE["serve"], 20), (_HEDGED_FLEET, 120)],
    ids=["fleet", "serve", "fleet-hedged"],
)
def test_stream_trace_is_byte_identical_to_the_csv(argv, rows, tmp_path, capsys):
    """``--stream-trace`` writes the bytes ``--csv`` writes and prints the
    same report, all but the closing "Wrote"/"Streamed" line."""
    written, streamed = tmp_path / "written.csv", tmp_path / "streamed.csv"
    argv = argv + ["--slo-e2e", "60"]
    assert main(argv + ["--csv", str(written)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert main(argv + ["--stream-trace", str(streamed)]) == 0
    streamed_printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == f"Wrote {rows} request records to {written}"
    assert streamed_printed[-1] == f"Streamed {rows} request rows to {streamed}"
    assert streamed_printed[:-1] == printed[:-1]
    assert streamed.read_bytes() == written.read_bytes()


def test_stream_trace_excludes_the_csv(command, tmp_path):
    argv = _BASE[command] + [
        "--csv", str(tmp_path / "a.csv"), "--stream-trace", str(tmp_path / "b.csv"),
    ]
    assert _fails(argv) == "pass either --stream-trace or --csv, not both"


def test_stream_trace_cannot_follow_a_search(command, tmp_path):
    argv = _BASE[command] + _SEARCH[command] + [
        "--slo-e2e", "60", "--stream-trace", str(tmp_path / "t.csv"),
    ]
    message = _fails(argv)
    assert message.startswith(
        "--stream-trace streams one simulation's trace; it cannot follow a "
    )
    assert message.endswith(" search")
    assert not (tmp_path / "t.csv").exists()
