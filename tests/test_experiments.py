"""Tests for the per-figure experiment modules (fast settings).

Each module's ``check_shape`` encodes the paper's qualitative claims;
these tests assert the checks pass at reduced simulation windows, plus
spot-check structured outputs.
"""

import pytest

from repro.experiments import REGISTRY, load
from repro.experiments import (
    fig06_address_mask,
    fig07_pattern_bandwidth,
    fig08_request_sizes,
    fig11_regression,
    fig13_closed_page,
    fig14_tx_path,
    fig16_high_load,
    failure_limits,
    tab01_properties,
    tab02_packets,
    tab03_cooling,
    fig03_address_map,
)


def test_registry_modules_share_one_protocol():
    for experiment_id in REGISTRY:
        module = load(experiment_id)
        for name in ("run", "check_shape", "report"):
            assert callable(getattr(module, name, None)), (experiment_id, name)
        assert not hasattr(module, "main"), experiment_id


def test_registry_rejects_unknown():
    with pytest.raises(KeyError):
        load("fig99")


# ----------------------------------------------------------------------
# static experiments (no simulation)
# ----------------------------------------------------------------------
def test_table1_matches_paper():
    assert tab01_properties.check_shape(tab01_properties.run()) == []


def test_table2_matches_paper():
    assert tab02_packets.check_shape(tab02_packets.run()) == []


def test_table2_extra_row_deviates():
    derived = dict(tab02_packets.run(), Atomic={"Request": (2, 2), "Response": (1, 1)})
    assert len(tab02_packets.check_shape(derived)) == 1


def test_table3_cooling_powers_match():
    assert tab03_cooling.check_shape(tab03_cooling.run()) == []


def test_fig3_field_positions_match():
    results = fig03_address_map.run()
    assert fig03_address_map.check_shape(results) == []
    assert results[128]["pages_for_full_blp"] == 128
    assert results[128]["page_banks"] == 32


# ----------------------------------------------------------------------
# simulation experiments at fast settings
# ----------------------------------------------------------------------
def test_fig6_shape(fast_settings):
    points = fig06_address_mask.run(fast_settings)
    assert fig06_address_mask.check_shape(points) == []
    assert len(points) == 7


def test_fig7_shape(fast_settings):
    results = fig07_pattern_bandwidth.run(fast_settings)
    assert fig07_pattern_bandwidth.check_shape(results) == []
    assert [r.pattern for r in results][0] == "1 bank"


def test_fig8_shape(fast_settings):
    points = fig08_request_sizes.run(fast_settings)
    assert fig08_request_sizes.check_shape(points) == []


def test_fig11_shape(fast_settings):
    results = fig11_regression.run(fast_settings)
    assert fig11_regression.check_shape(results) == []
    assert results["ro"].temperature_fit.r_squared > 0.98


def test_fig13_shape(fast_settings):
    groups = fig13_closed_page.run(fast_settings)
    assert fig13_closed_page.check_shape(groups) == []


def test_fig14_budget(fast_settings):
    budget = fig14_tx_path.run(fast_settings)
    assert fig14_tx_path.check_shape(budget) == []
    assert budget.infrastructure_ns == pytest.approx(547.0, abs=3.0)


def test_fig16_shape(fast_settings):
    points = fig16_high_load.run(fast_settings)
    assert fig16_high_load.check_shape(points) == []


def test_failures_matrix(fast_settings):
    matrix = failure_limits.run(fast_settings)
    assert failure_limits.check_shape(matrix) == []
    assert matrix.failures_for("ro") == ()
    assert set(matrix.failures_for("wo")) == {"Cfg3", "Cfg4"}
    assert matrix.failures_for("rw") == ("Cfg4",)
    assert matrix.recovery_seconds > 60


def test_hmc2_projection_shape(fast_settings):
    from repro.experiments import hmc2_projection

    rows = hmc2_projection.run(fast_settings)
    assert hmc2_projection.check_shape(rows) == []
    assert {r.pattern for r in rows} == set(hmc2_projection.PATTERNS)


def test_fig12_shape(fast_settings):
    from repro.experiments import fig12_cooling_power

    panels = fig12_cooling_power.run(fast_settings)
    assert fig12_cooling_power.check_shape(panels) == []
    # wo only has two surviving configs; the fit still inverts.
    wo = next(p for p in panels if p.request_type.value == "wo")
    assert len(wo.lines) == 2


def test_fig15_shape(fast_settings):
    from repro.experiments import fig15_low_load

    panels = fig15_low_load.run(fast_settings, depths=(2, 8, 16, 28), trials=3)
    assert len(panels) == 4
    for panel in panels:
        mins = [r.min_ns for r in panel.results]
        assert max(mins) - min(mins) < 40
        assert panel.results[-1].max_ns > panel.results[0].max_ns


def test_fig17_shape_reduced(fast_settings):
    from repro.core.experiment import run_latency_sweep
    from repro.core.littles_law import LittlesLawAnalysis
    from repro.core.patterns import pattern_by_name

    occupancies = {}
    for pattern_name in ("4 banks", "2 banks"):
        pattern = pattern_by_name(pattern_name)
        for size in (32, 128):
            points = run_latency_sweep(
                pattern, size, settings=fast_settings, port_counts=(1, 2, 4, 9)
            )
            analysis = LittlesLawAnalysis.from_sweep(pattern_name, size, points)
            occupancies[(pattern_name, size)] = analysis.occupancy_requests
    # Size-independent occupancy, 2x per bank doubling (Fig. 17).
    assert occupancies[("4 banks", 32)] == pytest.approx(
        occupancies[("4 banks", 128)], rel=0.2
    )
    ratio = occupancies[("4 banks", 128)] / occupancies[("2 banks", 128)]
    assert 1.5 <= ratio <= 2.5


def test_fig18_shape_reduced(fast_settings):
    from repro.experiments import fig18_latency_bandwidth

    summaries = fig18_latency_bandwidth.run(
        fast_settings,
        sizes=(128,),
        pattern_names=("1 bank", "2 banks", "4 banks", "8 banks", "1 vault", "2 vaults"),
    )
    knees = {s.pattern: s.knee_bandwidth_gbs for s in summaries}
    assert knees["2 banks"] / knees["1 bank"] == pytest.approx(2.0, rel=0.2)
    assert knees["1 vault"] / knees["8 banks"] < 1.15
    assert 1.4 <= knees["2 vaults"] / knees["1 vault"] <= 2.2
