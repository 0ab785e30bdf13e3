"""Figure 10: average system power + bandwidth per access pattern under
the surviving cooling configurations, for ro / wo / rw.

Paper claims that must reproduce:

* power rises with bandwidth;
* weaker cooling costs more power at the same bandwidth (the
  power-temperature coupling through leakage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.experiment import (
    ExperimentSettings,
    MeasurementPoint,
    run_thermal_experiment,
)
from repro.core.parallel import get_executor
from repro.core.patterns import PATTERN_NAMES, standard_patterns
from repro.core.report import render_series
from repro.hmc.packet import RequestType
from repro.thermal.cooling import ALL_CONFIGS, CoolingConfig

REQUEST_TYPES = (RequestType.READ, RequestType.WRITE, RequestType.READ_MODIFY_WRITE)
FIG10_PATTERNS = tuple(reversed(PATTERN_NAMES))


@dataclass(frozen=True)
class PowerPanel:
    request_type: RequestType
    bandwidth_gbs: List[float]
    system_power_w: Dict[str, List[float]]
    excluded: Tuple[str, ...]


def measurement_points(
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[MeasurementPoint]:
    """The figure's simulation grid (same bandwidth runs as Fig. 9)."""
    patterns = standard_patterns(settings.config)
    return [
        MeasurementPoint.for_pattern(patterns[name], request_type=rt, settings=settings)
        for rt in REQUEST_TYPES
        for name in FIG10_PATTERNS
    ]


def run(
    settings: ExperimentSettings = ExperimentSettings(),
    configs: Tuple[CoolingConfig, ...] = ALL_CONFIGS,
) -> List[PowerPanel]:
    get_executor().measure_points(measurement_points(settings))
    patterns = standard_patterns(settings.config)
    panels = []
    for request_type in REQUEST_TYPES:
        bandwidth: List[float] = []
        power: Dict[str, List[float]] = {}
        excluded: List[str] = []
        for cooling in configs:
            series: List[float] = []
            bw_series: List[float] = []
            failed = False
            for name in FIG10_PATTERNS:
                result = run_thermal_experiment(
                    patterns[name], request_type, cooling, settings=settings
                )
                bw_series.append(result.measurement.bandwidth_gbs)
                series.append(result.operating_point.system_power_w)
                failed = failed or result.failed
            if failed:
                excluded.append(cooling.name)
            else:
                power[cooling.name] = series
            bandwidth = bw_series
        panels.append(
            PowerPanel(
                request_type=request_type,
                bandwidth_gbs=bandwidth,
                system_power_w=power,
                excluded=tuple(excluded),
            )
        )
    return panels


def check_shape(
    panels: List[PowerPanel], settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    problems = []
    for panel in panels:
        names = list(panel.system_power_w)
        for name, series in panel.system_power_w.items():
            pairs = sorted(zip(panel.bandwidth_gbs, series))
            if not pairs[-1][1] > pairs[0][1]:
                problems.append(
                    f"{panel.request_type.value}/{name}: power does not rise "
                    "with bandwidth"
                )
        # Weaker cooling (later config) must cost more power at equal BW.
        for weaker, stronger in zip(names[1:], names[:-1]):
            w = panel.system_power_w[weaker]
            s = panel.system_power_w[stronger]
            if not all(a >= b for a, b in zip(w, s)):
                problems.append(
                    f"{panel.request_type.value}: {weaker} not above {stronger}"
                )
    return problems


def report(
    panels: List[PowerPanel], problems: List[str], settings: ExperimentSettings
) -> str:
    blocks = []
    for panel in panels:
        series = [("BW GB/s", panel.bandwidth_gbs)]
        series += [(name, watts) for name, watts in panel.system_power_w.items()]
        blocks.append(
            render_series(
                "Pattern",
                list(FIG10_PATTERNS),
                series,
                title=(
                    f"Figure 10 ({panel.request_type.value}): system power (W)"
                    + (
                        f"; failed+excluded: {', '.join(panel.excluded)}"
                        if panel.excluded
                        else ""
                    )
                ),
            )
        )
    text = "\n\n".join(blocks)
    text += (
        "\nShape matches the paper: power rises with bandwidth and with"
        "\nweaker cooling at equal bandwidth."
        if not problems
        else "\nShape deviations: " + "; ".join(problems)
    )
    return text
