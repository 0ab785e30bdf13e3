"""Tests for the campaign driver and the CLI."""

import re
import time

import pytest

from repro.cli import main as cli_main
from repro.core import campaign, parallel
from repro.core.campaign import run_campaign, run_experiment
from repro.core.experiment import ExperimentSettings

STATIC_IDS = ("table1", "table2", "table3", "fig3")


# ----------------------------------------------------------------------
# campaign driver
# ----------------------------------------------------------------------
def test_run_experiment_static():
    outcome = run_experiment("table2")
    assert outcome.passed
    assert "Table II" in outcome.report
    assert outcome.seconds >= 0


def test_run_experiment_runs_and_checks_once(monkeypatch):
    """One ``run``, one ``check_shape`` on its result, one ``report``."""
    calls = []

    class Stub:
        @staticmethod
        def run(settings):
            calls.append("run")
            return "result"

        @staticmethod
        def check_shape(result, settings):
            calls.append(("check_shape", result))
            return ["off"]

        @staticmethod
        def report(result, problems, settings):
            calls.append(("report", result, problems))
            return "text"

    monkeypatch.setattr(campaign, "load", lambda experiment_id: Stub)
    outcome = run_experiment("stub", ExperimentSettings())
    assert calls == ["run", ("check_shape", "result"), ("report", "result", ["off"])]
    assert (outcome.report, outcome.problems) == ("text", ["off"])
    assert not outcome.passed


def _break_published_value(monkeypatch, experiment_id):
    """Change one published cell of a static experiment's paper table."""
    from repro.experiments import load

    module = load(experiment_id)
    if experiment_id == "table1":
        table = {name: dict(row) for name, row in module.PAPER_TABLE.items()}
        table["HMC 1.1 (Gen2) 4GB"]["# Banks"] = 128
        monkeypatch.setattr(module, "PAPER_TABLE", table)
    elif experiment_id == "table2":
        table = {kind: dict(sides) for kind, sides in module.PAPER_TABLE.items()}
        table["Read"]["Response"] = (2, 5)
        monkeypatch.setattr(module, "PAPER_TABLE", table)
    elif experiment_id == "table3":
        powers = dict(module.PAPER_COOLING_POWER_W, Cfg2=17.0)
        monkeypatch.setattr(module, "PAPER_COOLING_POWER_W", powers)
    else:
        positions = dict(module.PAPER_FIELD_POSITIONS)
        positions[64] = (7, 11, 15)
        monkeypatch.setattr(module, "PAPER_FIELD_POSITIONS", positions)


@pytest.mark.parametrize("experiment_id", STATIC_IDS)
def test_a_published_value_deviation_gates_static_experiments(
    monkeypatch, capsys, experiment_id
):
    _break_published_value(monkeypatch, experiment_id)
    outcome = run_experiment(experiment_id)
    assert not outcome.passed
    assert len(outcome.problems) == 1
    assert not run_campaign(experiment_ids=(experiment_id,)).passed
    assert cli_main(["run", experiment_id]) == 1
    assert "Shape deviations" in capsys.readouterr().err


def test_run_experiment_simulated(tiny_settings):
    outcome = run_experiment("fig14", tiny_settings)
    assert outcome.passed
    assert "287" in outcome.report or "288" in outcome.report


def test_campaign_subset():
    result = run_campaign(experiment_ids=STATIC_IDS)
    assert result.passed
    assert set(result.outcomes) == set(STATIC_IDS)
    summary = result.summary()
    assert "all claims reproduced" in summary
    full = result.full_report()
    for experiment_id in STATIC_IDS:
        assert f"[{experiment_id}]" in full


def test_campaign_summary_times_the_parallel_prefetch(monkeypatch):
    """``jobs > 1`` prefetches every point before the experiments start;
    that time gets its own summary line and counts in the total."""
    prefetched = []

    def slow_prefetch(self, points):
        prefetched.append(list(points))
        time.sleep(0.2)
        return []

    # One static experiment: no pool is started, and its own run reads
    # no measurement, so only the (stubbed) prefetch takes time.
    monkeypatch.setattr(
        campaign, "collect_measurement_points", lambda ids, settings: ["point"]
    )
    monkeypatch.setattr(parallel.MeasurementExecutor, "measure_points", slow_prefetch)
    result = run_campaign(experiment_ids=("table2",), jobs=2)
    assert prefetched == [["point"]]
    assert result.prefetch_seconds >= 0.2
    assert result.total_seconds >= 0.2
    summary = result.summary()
    match = re.search(r"^  prefetch +\((\d+\.\d)s\)$", summary, re.MULTILINE)
    assert match is not None, summary
    assert float(match.group(1)) >= 0.2
    total = re.search(r"^Total: (\d+\.\d)s;", summary, re.MULTILINE)
    assert total is not None and float(total.group(1)) >= 0.2

    serial = run_campaign(experiment_ids=("table2",), jobs=1)
    assert prefetched == [["point"]]  # no prefetch at --jobs 1
    assert serial.prefetch_seconds == 0.0
    assert "prefetch" not in serial.summary()


def test_campaign_unknown_id_rejected():
    with pytest.raises(KeyError):
        run_campaign(experiment_ids=("fig99",))


def test_campaign_shares_measurement_cache(tiny_settings):
    """fig16 reuses fig7/fig8-style measurements; the second run of the
    same id must be much faster thanks to the memoized measurements."""
    first = run_experiment("fig16", tiny_settings)
    second = run_experiment("fig16", tiny_settings)
    assert second.seconds < first.seconds / 2 + 0.2


def test_campaign_parallel_identical_to_serial_then_warm(
    tmp_path, monkeypatch, tiny_settings
):
    """Determinism and cache acceptance: ``--jobs 4`` reports are
    byte-identical to ``--jobs 1``, and a warm rerun simulates nothing."""
    ids = ("fig7", "fig8")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    parallel.reset()
    serial = run_campaign(tiny_settings, experiment_ids=ids, jobs=1)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    parallel.reset()
    pooled = run_campaign(tiny_settings, experiment_ids=ids, jobs=4)
    assert parallel.stats().simulations > 0
    for experiment_id in ids:
        assert (
            pooled.outcomes[experiment_id].report
            == serial.outcomes[experiment_id].report
        )
        assert pooled.outcomes[experiment_id].passed
    # Warm rerun against the populated disk cache with the in-process
    # memo dropped: zero simulations, identical reports.
    parallel.reset()
    warm = run_campaign(tiny_settings, experiment_ids=ids, jobs=4)
    assert parallel.stats().simulations == 0
    for experiment_id in ids:
        assert (
            warm.outcomes[experiment_id].report
            == serial.outcomes[experiment_id].report
        )
    parallel.reset()


def test_campaign_under_a_configured_fleet_reports_identically(tiny_settings):
    """A campaign measures through the configured fleet with its ordinary
    code path, and the report cannot tell the backends apart."""
    from repro.core.experiment import simulate_point

    class StubFleet:
        def __init__(self):
            self.points = 0

        def measure_many(self, points):
            self.points += len(points)
            return [simulate_point(point)[0] for point in points]

    parallel.reset()
    local = run_campaign(tiny_settings, experiment_ids=("fig6",), use_cache=False)
    parallel.reset()
    fleet = StubFleet()
    with parallel.configured(fleet=fleet):
        routed = run_campaign(
            tiny_settings, experiment_ids=("fig6",), use_cache=False
        )
    assert fleet.points > 0
    assert parallel.stats().simulations == 0
    assert routed.outcomes["fig6"].report == local.outcomes["fig6"].report
    assert routed.passed
    parallel.reset()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "failures" in out


def test_cli_run_static(capsys):
    assert cli_main(["run", "table1"]) == 0
    assert "Table I" in capsys.readouterr().out


def test_cli_run_rejects_unknown():
    with pytest.raises(SystemExit):
        cli_main(["run", "fig99"])


def test_cli_campaign_subset_writes_output(tmp_path, capsys):
    output = tmp_path / "report.txt"
    code = cli_main(["campaign", "--only", "table1", "table2", "--output", str(output)])
    assert code == 0
    assert output.exists()
    text = output.read_text()
    assert "[table1]" in text and "[table2]" in text
    assert "Campaign summary" in capsys.readouterr().out


def test_cli_requires_command(capsys):
    with pytest.raises(SystemExit):
        cli_main([])


def test_cli_sweep_to_stdout(capsys):
    code = cli_main(["sweep", "--patterns", "2 banks", "--sizes", "32", "--fast"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("pattern,")
    assert "2 banks" in out


def test_cli_sweep_to_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code = cli_main(
        ["sweep", "--patterns", "16 vaults", "--types", "ro", "--csv", str(path), "--fast"]
    )
    assert code == 0
    assert path.exists()
    assert "wrote" in capsys.readouterr().out


def test_cli_campaign_accepts_jobs_and_no_cache(tmp_path, capsys):
    output = tmp_path / "report.txt"
    code = cli_main(
        [
            "campaign",
            "--only",
            "table1",
            "table2",
            "--jobs",
            "2",
            "--no-cache",
            "--output",
            str(output),
        ]
    )
    assert code == 0
    text = output.read_text()
    assert "[table1]" in text and "[table2]" in text
    assert "Campaign summary" in capsys.readouterr().out


def test_cli_cache_stats_and_clear(capsys):
    assert cli_main(["cache", "stats"]) == 0
    assert "entries" in capsys.readouterr().out
    assert cli_main(["cache", "clear"]) == 0
    assert "removed" in capsys.readouterr().out
