"""Figure 18: read latency vs request bandwidth for every pattern and
request size (the extended version of Fig. 17).

Paper claims that must reproduce:

* bank patterns saturate at bandwidths proportional to the bank count
  until the vault's 10 GB/s cap takes over (>= 8 banks stop scaling);
* the 2-vault saturation point sits near 2x the single-vault limit
  (~19-20 GB/s);
* patterns wider than two vaults never saturate on this infrastructure
  (GUPS cannot generate enough parallel accesses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.experiment import (
    ExperimentSettings,
    LatencySweepPoint,
    MeasurementPoint,
    run_latency_sweep,
)
from repro.core.littles_law import is_saturated, saturation_point
from repro.core.parallel import get_executor
from repro.core.patterns import available_pattern_names, standard_patterns
from repro.core.report import render_table
from repro.hmc.packet import RequestType

SIZES = (16, 32, 64, 128)


@dataclass(frozen=True)
class SweepSummary:
    pattern: str
    payload_bytes: int
    points: Tuple[LatencySweepPoint, ...]
    saturated: bool
    knee_bandwidth_gbs: float
    knee_latency_ns: float


def measurement_points(
    settings: ExperimentSettings = ExperimentSettings(),
    sizes: Tuple[int, ...] = SIZES,
    pattern_names: Optional[Tuple[str, ...]] = None,
) -> List[MeasurementPoint]:
    """The full pattern x size x port grid, for batch submission/prefetch.

    ``pattern_names`` defaults to the names the device geometry in
    ``settings.config`` supports - the paper's nine for HMC 1.1.
    """
    if pattern_names is None:
        pattern_names = available_pattern_names(settings.config)
    patterns = standard_patterns(settings.config)
    counts = tuple(range(1, settings.calibration.gups_ports + 1))
    return [
        MeasurementPoint.for_pattern(
            patterns[name],
            request_type=RequestType.READ,
            payload_bytes=size,
            settings=settings,
            active_ports=ports,
        )
        for name in pattern_names
        for size in sizes
        for ports in counts
    ]


def run(
    settings: ExperimentSettings = ExperimentSettings(),
    sizes: Tuple[int, ...] = SIZES,
    pattern_names: Optional[Tuple[str, ...]] = None,
) -> List[SweepSummary]:
    if pattern_names is None:
        pattern_names = available_pattern_names(settings.config)
    get_executor().measure_points(measurement_points(settings, sizes, pattern_names))
    patterns = standard_patterns(settings.config)
    summaries = []
    for name in pattern_names:
        for size in sizes:
            points = tuple(run_latency_sweep(patterns[name], size, settings=settings))
            knee = saturation_point(points)
            summaries.append(
                SweepSummary(
                    pattern=name,
                    payload_bytes=size,
                    points=points,
                    saturated=is_saturated(points),
                    knee_bandwidth_gbs=knee.bandwidth_gbs,
                    knee_latency_ns=knee.read_latency_avg_ns,
                )
            )
    return summaries


def check_shape(
    summaries: List[SweepSummary],
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[str]:
    problems = []
    if settings.device != "hmc1":
        # The saturation ratios below were read off the paper's measured
        # HMC 1.1; a backend with a different bank/channel structure
        # (ddr4's 16-bank channels, hbm2's pseudo-channel caps) hits its
        # knees elsewhere, so cross-device runs only get a sanity gate.
        for s in summaries:
            if not s.knee_bandwidth_gbs > 0:
                problems.append(
                    f"{s.pattern}/{s.payload_bytes}B: non-positive knee bandwidth"
                )
        return problems
    knee = {
        (s.pattern, s.payload_bytes): s.knee_bandwidth_gbs for s in summaries
    }

    def k(pattern: str, size: int = 128) -> float:
        return knee[(pattern, size)]

    if not 1.6 <= k("2 banks") / k("1 bank") <= 2.4:
        problems.append("2-bank saturation not ~2x 1-bank")
    if not 1.6 <= k("4 banks") / k("2 banks") <= 2.4:
        problems.append("4-bank saturation not ~2x 2-bank")
    if not k("1 vault") / k("8 banks") < 1.15:
        problems.append(">8 banks kept scaling past the vault cap")
    two_vault_ratio = k("2 vaults") / k("1 vault")
    if not 1.4 <= two_vault_ratio <= 2.2:
        problems.append(
            f"2-vault saturation is {two_vault_ratio:.2f}x one vault, paper ~2x"
        )
    return problems


def report(
    summaries: List[SweepSummary], problems: List[str], settings: ExperimentSettings
) -> str:
    rows = [
        [
            s.pattern,
            f"{s.payload_bytes} B",
            f"{s.knee_bandwidth_gbs:.2f}",
            f"{s.knee_latency_ns/1e3:.2f}",
            "yes" if s.saturated else "no",
        ]
        for s in summaries
    ]
    text = render_table(
        ("Pattern", "Size", "Knee BW (GB/s)", "Knee latency (us)", "Saturated"),
        rows,
        title="Figure 18: latency-bandwidth saturation by pattern and size",
    )
    if problems:
        text += "\nShape deviations: " + "; ".join(problems)
    elif settings.device != "hmc1":
        text += (
            f"\nSanity checks pass on device backend {settings.device!r}"
            " (the paper's Fig. 18 shape claims apply to hmc1 only)."
        )
    else:
        text += (
            "\nShape matches the paper: bank patterns scale ~2x per doubling"
            " until\nthe 10 GB/s vault cap; two vaults saturate near 2x one"
            " vault."
        )
    return text
