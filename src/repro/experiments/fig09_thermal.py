"""Figure 9: heatsink surface temperature + bandwidth per access pattern
under the four cooling configurations, for ro / wo / rw.

Like the paper's figure, configurations that trigger thermal failures
for a request type are excluded from that panel (wo loses Cfg3/Cfg4,
rw loses Cfg4); the failure study itself lives in
:mod:`repro.experiments.failure_limits`.

Paper claims that must reproduce:

* temperature tracks bandwidth - constant across the similar-bandwidth
  distributed patterns, dropping with the targeted ones;
* higher temperatures under weaker cooling at equal bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.experiment import (
    ExperimentSettings,
    MeasurementPoint,
    ThermalRunResult,
    run_thermal_experiment,
)
from repro.core.parallel import get_executor
from repro.core.patterns import PATTERN_NAMES, standard_patterns
from repro.core.report import render_series
from repro.hmc.packet import RequestType
from repro.thermal.cooling import ALL_CONFIGS, CoolingConfig

REQUEST_TYPES = (RequestType.READ, RequestType.WRITE, RequestType.READ_MODIFY_WRITE)

#: Pattern order of the paper's x-axis (most to least distributed).
FIG9_PATTERNS = tuple(reversed(PATTERN_NAMES))


@dataclass(frozen=True)
class ThermalPanel:
    """One sub-figure: a request type with its surviving configs."""

    request_type: RequestType
    bandwidth_gbs: List[float]
    temperatures: Dict[str, List[float]]  # cooling name -> degC series
    excluded: Tuple[str, ...]  # configs that failed


def measurement_points(
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[MeasurementPoint]:
    """The figure's simulation grid (cooling only affects the analytic
    thermal solve, not the bandwidth measurement)."""
    patterns = standard_patterns(settings.config)
    return [
        MeasurementPoint.for_pattern(patterns[name], request_type=rt, settings=settings)
        for rt in REQUEST_TYPES
        for name in FIG9_PATTERNS
    ]


def run(
    settings: ExperimentSettings = ExperimentSettings(),
    configs: Tuple[CoolingConfig, ...] = ALL_CONFIGS,
) -> List[ThermalPanel]:
    get_executor().measure_points(measurement_points(settings))
    patterns = standard_patterns(settings.config)
    panels = []
    for request_type in REQUEST_TYPES:
        bandwidth: List[float] = []
        temps: Dict[str, List[float]] = {c.name: [] for c in configs}
        excluded: List[str] = []
        for cooling in configs:
            failed = False
            series: List[float] = []
            bw_series: List[float] = []
            for name in FIG9_PATTERNS:
                result: ThermalRunResult = run_thermal_experiment(
                    patterns[name], request_type, cooling, settings=settings
                )
                bw_series.append(result.measurement.bandwidth_gbs)
                series.append(result.operating_point.surface_c)
                failed = failed or result.failed
            if failed:
                excluded.append(cooling.name)
                temps.pop(cooling.name)
            else:
                temps[cooling.name] = series
            bandwidth = bw_series
        panels.append(
            ThermalPanel(
                request_type=request_type,
                bandwidth_gbs=bandwidth,
                temperatures=temps,
                excluded=tuple(excluded),
            )
        )
    return panels


def check_shape(
    panels: List[ThermalPanel], settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    problems = []
    for panel in panels:
        for name, temps in panel.temperatures.items():
            pairs = sorted(zip(panel.bandwidth_gbs, temps))
            if not pairs[-1][1] > pairs[0][1]:
                problems.append(
                    f"{panel.request_type.value}/{name}: temperature does not "
                    "rise with bandwidth"
                )
    ro = next(p for p in panels if p.request_type is RequestType.READ)
    if ro.excluded:
        problems.append("read-only traffic should survive every cooling config")
    wo = next(p for p in panels if p.request_type is RequestType.WRITE)
    if "Cfg4" not in wo.excluded:
        problems.append("write-only traffic should fail under Cfg4")
    return problems


def report(
    panels: List[ThermalPanel], problems: List[str], settings: ExperimentSettings
) -> str:
    blocks = []
    for panel in panels:
        series = [("BW GB/s", panel.bandwidth_gbs)]
        series += [(name, temps) for name, temps in panel.temperatures.items()]
        block = render_series(
            "Pattern",
            list(FIG9_PATTERNS),
            series,
            title=(
                f"Figure 9 ({panel.request_type.value}): surface degC by pattern"
                + (f"; failed+excluded: {', '.join(panel.excluded)}" if panel.excluded else "")
            ),
        )
        blocks.append(block)
    text = "\n\n".join(blocks)
    text += (
        "\nShape matches the paper: temperature tracks bandwidth; ro survives"
        "\neverywhere; write-heavy traffic loses the weak cooling configs."
        if not problems
        else "\nShape deviations: " + "; ".join(problems)
    )
    return text
