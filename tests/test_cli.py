"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_decode_command_prints_report(capsys):
    assert main(["decode", "opt-6.7b", "--config", "S"]) == 0
    output = capsys.readouterr().out
    assert "Decode report" in output
    assert "decode speed (token/s)" in output


def test_compare_command_lists_all_systems(capsys):
    assert main(["compare", "llama2-70b"]) == 0
    output = capsys.readouterr().out
    for system in ("Cambricon-LLM-S", "Cambricon-LLM-L", "FlexGen-SSD", "MLC-LLM"):
        assert system in output
    assert "OOM" in output  # 70B does not fit on the phone


def test_sweep_command_reports_each_point(capsys):
    assert main(["sweep", "opt-6.7b", "--chips", "1", "4"]) == 0
    output = capsys.readouterr().out
    assert "Chip-count sweep" in output
    assert output.count("\n") > 4


def test_compare_command_passes_seq_len_through():
    parser = build_parser()
    args = parser.parse_args(["compare", "llama2-70b", "--seq-len", "4000"])
    assert args.seq_len == 4000


def test_compare_command_reports_requested_seq_len(capsys):
    assert main(["compare", "llama2-7b", "--seq-len", "2000"]) == 0
    assert "seq_len 2000" in capsys.readouterr().out


def test_grid_command_round_trip(capsys, tmp_path):
    """The grid subcommand prints a unified table and writes parseable CSV."""
    import csv

    csv_path = tmp_path / "grid.csv"
    assert (
        main(
            [
                "grid",
                "llama2-7b",
                "llama2-70b",
                "--backends",
                "cambricon",
                "mlc-llm",
                "--configs",
                "S",
                "--seq-lens",
                "1000",
                "--csv",
                str(csv_path),
            ]
        )
        == 0
    )
    output = capsys.readouterr().out
    for name in ("Cambricon-LLM-S", "MLC-LLM", "OOM"):
        assert name in output
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4  # 2 backends x 2 models
    by_key = {(r["backend"], r["model"]): r for r in rows}
    assert by_key[("MLC-LLM", "llama2-70b")]["out_of_memory"] == "True"
    assert float(by_key[("Cambricon-LLM-S", "llama2-7b")]["tokens_per_second"]) > 0


def test_grid_command_markdown_output(capsys):
    assert main(["grid", "llama2-7b", "--backends", "mlc-llm", "--markdown"]) == 0
    output = capsys.readouterr().out
    assert "| backend |" in output


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["serve", "llama2-7b", "--seq-len", "0"], "--seq-len"),
        (["serve", "llama2-7b", "--backend", "nosuch"], "--backend"),
        (["serve", "llama2-7b", "--num-requests", "0"], "--num-requests"),
        (["serve", "llama2-7b", "--max-batch", "0"], "--max-batch"),
        (["fleet", "llama2-7b", "--gen-tokens", "-1"], "--gen-tokens"),
        (["fleet", "llama2-7b", "--num-devices", "0"], "--num-devices"),
        (["decode", "llama2-7b", "--seq-len", "0"], "--seq-len"),
        (["grid", "llama2-7b", "--backends", "no-such-system"], "--backends"),
        (["decode", "llama2-7b", "--config", "X"], "--config"),
        (["sweep", "llama2-7b", "--config", "X"], "--config"),
        (["serve", "llama2-7b", "--config", "X"], "--config"),
        (["fleet", "llama2-7b", "--config", "X"], "--config"),
        (["grid", "llama2-7b", "--configs", "W"], "--configs"),
        (["serve", "llama2-7b", "--qps", "0"], "--qps"),
        (["serve", "llama2-7b", "--qps", "-1"], "--qps"),
        (["fleet", "llama2-7b", "--qps", "nan"], "--qps"),
        (["fleet", "llama2-7b", "--size-for-qps", "-1", "--slo-e2e", "60"],
         "--size-for-qps"),
        (["serve", "llama2-7b", "--slo-ttft", "0"], "--slo-ttft"),
        (["serve", "llama2-7b", "--slo-ttft", "-1"], "--slo-ttft"),
        (["serve", "llama2-7b", "--slo-tpot", "0"], "--slo-tpot"),
        (["fleet", "llama2-7b", "--slo-tpot", "-1"], "--slo-tpot"),
        (["fleet", "llama2-7b", "--slo-e2e", "0"], "--slo-e2e"),
        (["serve", "llama2-7b", "--slo-e2e", "-1"], "--slo-e2e"),
        (["serve", "llama2-7b", "--slo-e2e", "60", "--slo-attainment", "2"],
         "--slo-attainment"),
        (["serve", "llama2-7b", "--slo-e2e", "60", "--alerts",
          "--timeline-window", "0"], "--timeline-window"),
        (["serve", "llama2-7b", "--workload", "onoff", "--on-seconds", "0"],
         "--on-seconds"),
        (["fleet", "llama2-7b", "--workload", "onoff", "--off-seconds", "-1"],
         "--off-seconds"),
        (["serve", "llama2-7b", "--dram-gb", "nan"], "--dram-gb"),
        (["fleet", "llama2-7b", "--dram-gb", "inf"], "--dram-gb"),
        (["serve", "llama2-7b", "--flash", "nan"], "--flash-gb/--flash"),
        (["fleet", "llama2-7b", "--deadline-s", "nan"], "--deadline-s"),
    ],
    ids=[
        "serve-seq-len",
        "serve-backend",
        "serve-num-requests",
        "serve-max-batch",
        "fleet-gen-tokens",
        "fleet-num-devices",
        "decode-seq-len",
        "grid-backends",
        "decode-config",
        "sweep-config",
        "serve-config",
        "fleet-config",
        "grid-configs",
        "serve-qps-zero",
        "serve-qps-negative",
        "fleet-qps-nan",
        "fleet-size-for-qps",
        "serve-slo-ttft-zero",
        "serve-slo-ttft-negative",
        "serve-slo-tpot-zero",
        "fleet-slo-tpot-negative",
        "fleet-slo-e2e-zero",
        "serve-slo-e2e-negative",
        "serve-slo-attainment",
        "serve-timeline-window",
        "serve-on-seconds",
        "fleet-off-seconds",
        "serve-dram-gb-nan",
        "fleet-dram-gb-inf",
        "serve-flash-nan",
        "fleet-deadline-s-nan",
    ],
)
def test_bad_flag_values_exit_2_naming_the_flag(argv, flag, capsys):
    """Invalid values are argparse errors (exit 2), not tracebacks."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_unknown_model_rejected():
    with pytest.raises(SystemExit):
        main(["decode", "gpt-5"])


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
