"""Tests for `repro bench`: the vector-kernel acceptance gates.

The suite itself runs end to end in CI's kernel-parity job; here the
verdict logic and the command around it are fed canned payloads so
they are testable in milliseconds.
"""

import argparse
import json

import pytest

from repro import cli
from repro.core.experiment import parity_errors


# ----------------------------------------------------------------------
# check_kernel_bench verdicts (the vector-kernel acceptance gates)
# ----------------------------------------------------------------------


def _kernel_payload(**overrides):
    payload = {
        "kernel": "vector",
        "settings": "default",
        "suite": [
            {
                "point": "ro128r",
                "kernel_used": "vector",
                "reason": "",
                "parity_errors": {"bandwidth_gbs": 0.0002, "mrps": 0.0002},
                "advance_ratio": 16.0,
            }
        ],
        "worst_parity_error": 0.0007,
        "min_advance_ratio": 16.0,
        "window_wall_speedup": 5.0,
        "profile_agrees": [
            {
                "point": "ro128r",
                "des_bottleneck": "link1 RX",
                "kernel_bottleneck": "link0 RX",
                "agrees": True,
            }
        ],
    }
    payload.update(overrides)
    return payload


def test_kernel_check_passes_when_all_gates_green():
    assert cli.check_kernel_bench(_kernel_payload(), tolerance=0.001) == []


def test_kernel_check_fails_on_parity_breach():
    problems = cli.check_kernel_bench(
        _kernel_payload(worst_parity_error=0.002), tolerance=0.001
    )
    assert any("parity" in p for p in problems)


def test_kernel_check_fails_on_slow_advance_and_fallback():
    payload = _kernel_payload(min_advance_ratio=5.33)
    payload["suite"][0]["kernel_used"] = "des"
    payload["suite"][0]["reason"] = "non-stationary latency spread"
    problems = cli.check_kernel_bench(payload, tolerance=0.001)
    assert any("advance ratio" in p for p in problems)
    assert any("fell back" in p for p in problems)


def test_kernel_check_fails_on_profile_disagreement():
    payload = _kernel_payload()
    payload["profile_agrees"][0]["agrees"] = False
    problems = cli.check_kernel_bench(payload, tolerance=0.001)
    assert any("attribution" in p for p in problems)


def test_parity_errors_are_nan_aware():
    import math
    from types import SimpleNamespace

    def measurement(write_lat):
        return SimpleNamespace(
            bandwidth_gbs=20.0,
            mrps=10.0,
            read_latency_avg_ns=1800.0,
            write_latency_avg_ns=write_lat,
        )

    both_nan = parity_errors(measurement(math.nan), measurement(math.nan))
    assert both_nan["write_latency_avg_ns"] == 0.0
    one_nan = parity_errors(measurement(math.nan), measurement(900.0))
    assert one_nan["write_latency_avg_ns"] == math.inf


# ----------------------------------------------------------------------
# the CLI command around it
# ----------------------------------------------------------------------


def test_bench_reads_agreement_from_its_own_runs(built_boards):
    """Each suite point is simulated once per kernel and checked from
    those two runs; no extra profiling simulation."""
    payload = cli.run_kernel_bench(only=["ro128r"])
    assert len(built_boards) == 2
    (check,) = payload["profile_agrees"]
    assert check["point"] == "ro128r"
    assert check["agrees"], check
    assert "RX" in check["des_bottleneck"]


def _bench_parser():
    parser = cli.build_parser()
    (subcommands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return subcommands.choices["bench"]


def test_bench_takes_only_the_kernel_suite_flags():
    flags = {
        flag
        for action in _bench_parser()._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }
    assert flags == {"--only", "--output", "--check", "--tolerance", "--device"}


@pytest.mark.parametrize(
    "argv",
    [
        ["--jobs", "2"],
        ["--tiny"],
        ["--baseline", "BENCH_campaign.json"],
        ["--min-events-per-sec", "40000"],
        ["--min-speedup", "1.0"],
        ["--trace-sample", "64"],
        ["--kernel", "vector"],
    ],
    ids=lambda argv: argv[0],
)
def test_bench_rejects_retired_campaign_flags(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser().parse_args(["bench", *argv])
    assert excinfo.value.code == 2
    assert argv[0] in capsys.readouterr().err


@pytest.fixture()
def stub_kernel_bench(monkeypatch):
    """Replace the simulated suite with a canned payload."""
    payload = _kernel_payload()
    payload["suite"][0].update(
        bandwidth_gbs=22.5,
        des_window_wall_s=2.0,
        kernel_window_wall_s=0.4,
        probe_wall_s=0.3,
        tail_wall_s=0.001,
    )
    calls = []

    def fake(only=None, device=None):
        calls.append({"only": only, "device": device})
        return payload

    monkeypatch.setattr(cli, "run_kernel_bench", fake)
    return payload, calls


def test_bench_writes_the_payload_and_passes_its_flags(
    stub_kernel_bench, tmp_path, capsys
):
    payload, calls = stub_kernel_bench
    out = tmp_path / "kernel.json"
    code = cli.main(
        ["bench", "--only", "ro128r", "--device", "hmc1", "--output", str(out)]
    )
    assert code == 0
    assert calls == [{"only": ["ro128r"], "device": "hmc1"}]
    assert json.loads(out.read_text()) == payload
    stdout = capsys.readouterr().out
    assert "ro128r" in stdout and "AGREES" in stdout
    assert f"wrote {out}" in stdout


def test_bench_check_exit_code_follows_the_gates(stub_kernel_bench, tmp_path, capsys):
    payload, _ = stub_kernel_bench
    out = str(tmp_path / "kernel.json")
    assert cli.main(["bench", "--check", "--output", out]) == 0
    assert "FAIL" not in capsys.readouterr().out

    payload["worst_parity_error"] = 0.002
    assert cli.main(["bench", "--check", "--output", out]) == 1
    assert "bench: FAIL parity" in capsys.readouterr().out
    # Without --check the same payload is only reported.
    assert cli.main(["bench", "--output", out]) == 0
    # A looser --tolerance lets it pass.
    assert cli.main(["bench", "--check", "--tolerance", "0.01", "--output", out]) == 0
