"""Table III: experiment cooling configurations.

Also checks the cooling-power figures the paper derives in §IV-C
(19.32 / 15.9 / 13.9 / 10.78 W for Cfg1-4).
"""

from __future__ import annotations

from typing import List

from repro.core.experiment import ExperimentSettings
from repro.core.report import render_table
from repro.thermal.cooling import ALL_CONFIGS, CoolingConfig

PAPER_COOLING_POWER_W = {"Cfg1": 19.32, "Cfg2": 15.9, "Cfg3": 13.9, "Cfg4": 10.78}
PAPER_IDLE_C = {"Cfg1": 43.1, "Cfg2": 51.7, "Cfg3": 62.3, "Cfg4": 71.6}
COOLING_POWER_TOLERANCE_W = 0.05


def run(settings: ExperimentSettings = ExperimentSettings()) -> List[CoolingConfig]:
    return list(ALL_CONFIGS)


def check_shape(
    configs: List[CoolingConfig], settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    errors = []
    for cfg in configs:
        expected = PAPER_COOLING_POWER_W[cfg.name]
        if abs(cfg.cooling_power_w - expected) > COOLING_POWER_TOLERANCE_W:
            errors.append(
                f"{cfg.name}: paper={expected} W derived={cfg.cooling_power_w:.2f} W"
            )
    return errors


def report(
    configs: List[CoolingConfig], problems: List[str], settings: ExperimentSettings
) -> str:
    rows = [
        [
            cfg.name,
            f"{cfg.fan_voltage_v:g} V",
            f"{cfg.fan_current_a:g} A",
            f"{cfg.fan_distance_cm:g} cm",
            f"{cfg.idle_surface_c:.1f} C",
            f"{cfg.cooling_power_w:.2f} W",
        ]
        for cfg in configs
    ]
    text = render_table(
        ("Config", "Voltage", "Current", "Fan Distance", "Idle Temp", "Cooling Power"),
        rows,
        title="Table III: cooling configurations (+ derived cooling power, SIV-C)",
    )
    text += (
        "\nCooling powers match the paper's 19.32/15.9/13.9/10.78 W."
        if not problems
        else "\nDeviations: " + "; ".join(problems)
    )
    return text
