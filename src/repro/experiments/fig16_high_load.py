"""Figure 16: read latency of high-load accesses per pattern and size.

Paper claims that must reproduce:

* read latency spans about 2 us (32 B spread over 16 vaults) to about
  24 us (128 B targeted at one bank) - queueing at the controller under
  flow control dominates;
* 32 B reads are always at or below 64/128 B reads (the vault's 32 B
  data bus needs extra beats for larger payloads);
* latency falls as patterns become more distributed (vault controllers
  and bank-level parallelism absorb the load).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.experiment import ExperimentSettings, MeasurementPoint
from repro.core.parallel import get_executor
from repro.core.patterns import PATTERN_NAMES, standard_patterns
from repro.core.report import render_series
from repro.hmc.packet import RequestType

SIZES = (128, 64, 32)

PAPER_LATENCY_NS = {
    ("1 bank", 128): 24233.0,
    ("16 vaults", 32): 1966.0,
}


@dataclass(frozen=True)
class HighLoadPoint:
    pattern: str
    latency_ns: Dict[int, float]
    bandwidth_gbs: Dict[int, float]


def measurement_points(
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[MeasurementPoint]:
    """The figure's simulation grid (shared with Figure 8)."""
    patterns = standard_patterns(settings.config)
    return [
        MeasurementPoint.for_pattern(
            patterns[name],
            request_type=RequestType.READ,
            payload_bytes=size,
            settings=settings,
        )
        for name in PATTERN_NAMES
        for size in SIZES
    ]


def run(settings: ExperimentSettings = ExperimentSettings()) -> List[HighLoadPoint]:
    measurements = iter(get_executor().measure_points(measurement_points(settings)))
    points = []
    for name in PATTERN_NAMES:
        latency: Dict[int, float] = {}
        bandwidth: Dict[int, float] = {}
        for size in SIZES:
            m = next(measurements)
            latency[size] = m.read_latency_avg_ns
            bandwidth[size] = m.bandwidth_gbs
        points.append(
            HighLoadPoint(pattern=name, latency_ns=latency, bandwidth_gbs=bandwidth)
        )
    return points


def check_shape(
    points: List[HighLoadPoint], settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    problems = []
    by_name = {p.pattern: p for p in points}
    worst = by_name["1 bank"].latency_ns[128]
    best = by_name["16 vaults"].latency_ns[32]
    if not 15000 <= worst <= 35000:
        problems.append(f"1-bank 128B latency {worst:.0f} ns far from paper's 24233")
    if not 1000 <= best <= 3500:
        problems.append(f"16-vault 32B latency {best:.0f} ns far from paper's 1966")
    for point in points:
        if not point.latency_ns[32] <= point.latency_ns[128] * 1.05:
            problems.append(f"{point.pattern}: 32B latency above 128B")
    if not by_name["16 vaults"].latency_ns[128] < by_name["1 bank"].latency_ns[128]:
        problems.append("distributed access not faster than targeted access")
    return problems


def report(
    points: List[HighLoadPoint], problems: List[str], settings: ExperimentSettings
) -> str:
    series = [
        (f"lat {s}B (us)", [p.latency_ns[s] / 1e3 for p in points]) for s in SIZES
    ]
    series += [(f"BW {s}B", [p.bandwidth_gbs[s] for p in points]) for s in SIZES]
    text = render_series(
        "Pattern",
        [p.pattern for p in points],
        series,
        title="Figure 16: high-load read latency and bandwidth by pattern/size",
    )
    by_name = {p.pattern: p for p in points}
    for (pattern, size), paper_ns in PAPER_LATENCY_NS.items():
        measured = by_name[pattern].latency_ns[size]
        text += (
            f"\n{pattern} @{size} B: paper {paper_ns/1e3:.2f} us,"
            f" measured {measured/1e3:.2f} us"
        )
    text += (
        "\nShape matches the paper: ~12x spread from distributed-small to"
        "\ntargeted-large, 32 B always fastest."
        if not problems
        else "\nShape deviations: " + "; ".join(problems)
    )
    return text
