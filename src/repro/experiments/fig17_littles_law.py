"""Figure 17: latency vs request bandwidth for 4-bank and 2-bank
patterns, with the Little's-law occupancy analysis.

Paper claims that must reproduce:

* latency saturates as offered load (active small-scale GUPS ports)
  grows, at a rate depending on packet size;
* applying Little's law at the saturation knee yields a constant
  occupancy in *requests* across packet sizes (the paper finds ~375 for
  4 banks);
* the 2-bank occupancy is half the 4-bank occupancy - evidence for one
  queue per bank in the vault controller.

Absolute occupancies differ from the paper's (the knee quantizes to the
64-deep tag pools of the active ports on both infrastructures); the
invariants - size independence and the 2x bank ratio - are the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.experiment import (
    ExperimentSettings,
    MeasurementPoint,
    run_latency_sweep,
)
from repro.core.littles_law import LittlesLawAnalysis
from repro.core.parallel import get_executor
from repro.core.patterns import pattern_by_name
from repro.core.report import render_table
from repro.hmc.packet import RequestType

PAPER_OCCUPANCY_4_BANKS = 375.0
SIZES = (16, 32, 64, 128)
PATTERNS = ("4 banks", "2 banks")


@dataclass(frozen=True)
class OccupancyResult:
    analyses: Dict[Tuple[str, int], LittlesLawAnalysis]

    def occupancies(self, pattern: str) -> List[float]:
        return [self.analyses[(pattern, s)].occupancy_requests for s in SIZES]

    @property
    def bank_ratio(self) -> float:
        four = sum(self.occupancies("4 banks")) / len(SIZES)
        two = sum(self.occupancies("2 banks")) / len(SIZES)
        return four / two


def measurement_points(
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[MeasurementPoint]:
    """The full port-sweep grid, for batch submission/prefetch."""
    counts = tuple(range(1, settings.calibration.gups_ports + 1))
    return [
        MeasurementPoint.for_pattern(
            pattern_by_name(pattern_name, settings.config),
            request_type=RequestType.READ,
            payload_bytes=size,
            settings=settings,
            active_ports=ports,
        )
        for pattern_name in PATTERNS
        for size in SIZES
        for ports in counts
    ]


def run(settings: ExperimentSettings = ExperimentSettings()) -> OccupancyResult:
    get_executor().measure_points(measurement_points(settings))
    analyses = {}
    for pattern_name in PATTERNS:
        pattern = pattern_by_name(pattern_name, settings.config)
        for size in SIZES:
            points = run_latency_sweep(pattern, size, settings=settings)
            analyses[(pattern_name, size)] = LittlesLawAnalysis.from_sweep(
                pattern_name, size, points
            )
    return OccupancyResult(analyses=analyses)


def check_shape(
    result: OccupancyResult, settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    problems = []
    for pattern_name in PATTERNS:
        occ = result.occupancies(pattern_name)
        spread = (max(occ) - min(occ)) / max(occ)
        if spread > 0.15:
            problems.append(
                f"{pattern_name}: occupancy varies {spread:.0%} across sizes "
                "(paper finds a constant)"
            )
    if not 1.6 <= result.bank_ratio <= 2.4:
        problems.append(
            f"4-bank/2-bank occupancy ratio {result.bank_ratio:.2f} is not ~2"
        )
    for analysis in result.analyses.values():
        if not analysis.saturated:
            problems.append(
                f"{analysis.pattern_name}@{analysis.payload_bytes}B did not saturate"
            )
    return problems


def report(
    result: OccupancyResult, problems: List[str], settings: ExperimentSettings
) -> str:
    rows = []
    for (pattern_name, size), a in result.analyses.items():
        rows.append(
            [
                pattern_name,
                f"{size} B",
                f"{a.saturation_bandwidth_gbs:.2f}",
                f"{a.saturation_latency_ns/1e3:.2f}",
                f"{a.occupancy_requests:.0f}",
                "yes" if a.saturated else "no",
            ]
        )
    text = render_table(
        ("Pattern", "Size", "Knee BW (GB/s)", "Knee latency (us)", "N (requests)", "Saturated"),
        rows,
        title="Figure 17: Little's-law occupancy at the saturation knee",
    )
    text += (
        f"\n4-bank/2-bank occupancy ratio: {result.bank_ratio:.2f} (paper: ~2,"
        f" from ~{PAPER_OCCUPANCY_4_BANKS:.0f} vs ~{PAPER_OCCUPANCY_4_BANKS/2:.0f})."
        "\nOccupancy is constant across packet sizes, and doubling the banks"
        "\ndoubles it - one queue per bank in the vault controller."
    )
    if problems:
        text += "\nShape deviations: " + "; ".join(problems)
    return text
