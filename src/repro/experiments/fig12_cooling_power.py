"""Figure 12: cooling power needed to hold a target temperature, vs
bandwidth, for ro / wo / rw.

Method (mirrors §IV-C): linear-regress temperature against bandwidth in
each surviving cooling configuration (the Fig. 9 data), pair each
configuration with its cooling power (Table III + the fan-distance
model), then for a target temperature and bandwidth interpolate the
cooling power that would hold it.  Claims that must reproduce:

* required cooling power rises with bandwidth for every iso-temperature
  line;
* on average, +16 GB/s costs about +1.5 W of cooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.experiment import ExperimentSettings, run_thermal_experiment
from repro.core.patterns import PATTERN_NAMES, standard_patterns
from repro.core.regression import LinearFit
from repro.core.report import render_series
from repro.hmc.packet import RequestType
from repro.thermal.cooling import ALL_CONFIGS

PAPER_COOLING_W_PER_16_GBS = 1.5

#: Iso-temperature lines per panel, degC (approximating the paper's legends).
TARGET_TEMPS = {
    "ro": (50.0, 55.0, 60.0, 65.0, 70.0),
    "wo": (45.0, 50.0),
    "rw": (45.0, 50.0, 55.0),
}

BANDWIDTH_GRID = {
    "ro": (5.0, 10.0, 15.0, 20.0),
    "wo": (4.0, 8.0, 12.0),
    "rw": (5.0, 10.0, 15.0, 20.0, 25.0),
}

REQUEST_TYPES = (RequestType.READ, RequestType.WRITE, RequestType.READ_MODIFY_WRITE)


@dataclass(frozen=True)
class CoolingPanel:
    request_type: RequestType
    bandwidth_grid: Tuple[float, ...]
    lines: Dict[float, List[float]]  # target degC -> cooling W per grid point

    def average_w_per_16_gbs(self) -> float:
        slopes = []
        for series in self.lines.values():
            fit = LinearFit.fit(self.bandwidth_grid, series)
            slopes.append(fit.slope * 16.0)
        return sum(slopes) / len(slopes)


def _temperature_fits(
    request_type: RequestType, settings: ExperimentSettings
) -> List[Tuple[float, LinearFit]]:
    """(cooling power, T-vs-BW fit) for each surviving configuration."""
    patterns = standard_patterns(settings.config)
    fits = []
    for cooling in ALL_CONFIGS:
        bws: List[float] = []
        temps: List[float] = []
        failed = False
        for name in PATTERN_NAMES:
            result = run_thermal_experiment(
                patterns[name], request_type, cooling, settings=settings
            )
            failed = failed or result.failed
            bws.append(result.measurement.bandwidth_gbs)
            temps.append(result.operating_point.surface_c)
        if not failed:
            fits.append((cooling.cooling_power_w, LinearFit.fit(bws, temps)))
    return fits


def required_cooling_w(
    fits: Sequence[Tuple[float, LinearFit]], target_c: float, bandwidth_gbs: float
) -> float:
    """Cooling power holding ``target_c`` at ``bandwidth_gbs``.

    At fixed bandwidth, temperature is (nearly) linear in cooling power
    across the rig's range, so we fit T(cooling power) through the
    per-configuration predictions and invert it.
    """
    powers = [p for p, _ in fits]
    temps = [fit.predict(bandwidth_gbs) for _, fit in fits]
    return LinearFit.fit(temps, powers).predict(target_c)


def run(settings: ExperimentSettings = ExperimentSettings()) -> List[CoolingPanel]:
    panels = []
    for request_type in REQUEST_TYPES:
        label = request_type.value
        fits = _temperature_fits(request_type, settings)
        grid = BANDWIDTH_GRID[label]
        lines = {
            target: [required_cooling_w(fits, target, bw) for bw in grid]
            for target in TARGET_TEMPS[label]
        }
        panels.append(
            CoolingPanel(request_type=request_type, bandwidth_grid=grid, lines=lines)
        )
    return panels


def check_shape(
    panels: List[CoolingPanel], settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    problems = []
    for panel in panels:
        for target, series in panel.lines.items():
            if not all(b > a for a, b in zip(series, series[1:])):
                problems.append(
                    f"{panel.request_type.value}@{target:g}C: cooling power not "
                    "increasing with bandwidth"
                )
    avg = sum(p.average_w_per_16_gbs() for p in panels) / len(panels)
    if not 0.3 <= avg <= 4.0:
        problems.append(
            f"average cooling power per +16 GB/s is {avg:.2f} W, far from ~1.5 W"
        )
    return problems


def report(
    panels: List[CoolingPanel], problems: List[str], settings: ExperimentSettings
) -> str:
    blocks = []
    for panel in panels:
        series = [(f"{t:g}C", values) for t, values in panel.lines.items()]
        block = render_series(
            "BW GB/s",
            list(panel.bandwidth_grid),
            series,
            title=(
                f"Figure 12 ({panel.request_type.value}): cooling power (W) to "
                f"hold target temps; avg +16 GB/s costs "
                f"{panel.average_w_per_16_gbs():.2f} W"
            ),
        )
        blocks.append(block)
    text = "\n\n".join(blocks)
    text += (
        f"\nShape matches the paper: every iso-temperature line rises with"
        f"\nbandwidth (paper: ~{PAPER_COOLING_W_PER_16_GBS} W per +16 GB/s)."
        if not problems
        else "\nShape deviations: " + "; ".join(problems)
    )
    return text
