"""Figure 11: linear fits of (a) temperature and (b) system power vs
bandwidth in Cfg2, for ro / wo / rw.

Cfg2 is the hottest configuration in which none of the three request
types fails, so it gives a fair comparison (paper §IV-C).  Claims that
must reproduce:

* all slopes positive (the thermal bottleneck is inevitable);
* ro rises ~3 degC and rw ~4 degC from 5 to 20 GB/s;
* wo has the steepest temperature slope (writes are more
  temperature-sensitive);
* device power grows ~2 W from 5 to 20 GB/s for reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.experiment import ExperimentSettings, run_thermal_experiment
from repro.core.patterns import PATTERN_NAMES, standard_patterns
from repro.core.regression import LinearFit
from repro.core.report import render_table
from repro.hmc.packet import RequestType
from repro.thermal.cooling import CFG2, CoolingConfig

REQUEST_TYPES = (RequestType.READ, RequestType.WRITE, RequestType.READ_MODIFY_WRITE)

PAPER_RISE_5_TO_20_C = {"ro": 3.0, "rw": 4.0}
PAPER_POWER_RISE_5_TO_20_W = 2.0


@dataclass(frozen=True)
class RegressionResult:
    request_type: RequestType
    temperature_fit: LinearFit
    power_fit: LinearFit

    @property
    def temp_rise_5_to_20_c(self) -> float:
        return self.temperature_fit.rise_over(5.0, 20.0)

    @property
    def power_rise_5_to_20_w(self) -> float:
        return self.power_fit.rise_over(5.0, 20.0)


def run(
    settings: ExperimentSettings = ExperimentSettings(),
    cooling: CoolingConfig = CFG2,
) -> Dict[str, RegressionResult]:
    patterns = standard_patterns(settings.config)
    results = {}
    for request_type in REQUEST_TYPES:
        bws: List[float] = []
        temps: List[float] = []
        watts: List[float] = []
        for name in PATTERN_NAMES:
            run_result = run_thermal_experiment(
                patterns[name], request_type, cooling, settings=settings
            )
            bws.append(run_result.measurement.bandwidth_gbs)
            temps.append(run_result.operating_point.surface_c)
            watts.append(run_result.operating_point.system_power_w)
        results[request_type.value] = RegressionResult(
            request_type=request_type,
            temperature_fit=LinearFit.fit(bws, temps),
            power_fit=LinearFit.fit(bws, watts),
        )
    return results


def check_shape(
    results: Dict[str, RegressionResult],
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[str]:
    problems = []
    for label, result in results.items():
        if result.temperature_fit.slope <= 0:
            problems.append(f"{label}: temperature slope not positive")
        if result.power_fit.slope <= 0:
            problems.append(f"{label}: power slope not positive")
    if not results["wo"].temperature_fit.slope > results["ro"].temperature_fit.slope:
        problems.append("wo temperature slope not steeper than ro")
    if not 1.5 <= results["ro"].temp_rise_5_to_20_c <= 6.0:
        problems.append("ro 5->20 GB/s temperature rise far from paper's ~3 degC")
    if not 1.0 <= results["ro"].power_rise_5_to_20_w <= 4.0:
        problems.append("ro 5->20 GB/s power rise far from paper's ~2 W")
    return problems


def report(
    results: Dict[str, RegressionResult],
    problems: List[str],
    settings: ExperimentSettings,
) -> str:
    rows = []
    for label, r in results.items():
        rows.append(
            [
                label,
                f"{r.temperature_fit.slope:.3f}",
                f"{r.temp_rise_5_to_20_c:.1f}",
                f"{PAPER_RISE_5_TO_20_C.get(label, float('nan')):.1f}"
                if label in PAPER_RISE_5_TO_20_C
                else "-",
                f"{r.power_fit.slope:.3f}",
                f"{r.power_rise_5_to_20_w:.1f}",
                f"{r.temperature_fit.r_squared:.3f}",
            ]
        )
    text = render_table(
        (
            "Type",
            "dT/dBW (C per GB/s)",
            "dT 5->20",
            "paper dT",
            "dP/dBW (W per GB/s)",
            "dP 5->20 (W)",
            "R^2(T)",
        ),
        rows,
        title="Figure 11: linear fits of temperature/power vs bandwidth (Cfg2)",
    )
    text += (
        "\nShape matches the paper: positive slopes, wo steepest, ~3-4 degC and"
        "\n~2 W from 5 to 20 GB/s."
        if not problems
        else "\nShape deviations: " + "; ".join(problems)
    )
    return text
