"""Figure 8: read bandwidth and MRPS for 128/64/32 B request sizes.

Paper claims that must reproduce:

* bandwidths are relatively similar across sizes for the same pattern
  (the bottleneck is DRAM timing and communication bandwidth, not FPGA
  buffer sizing);
* for distributed patterns the request *rate* differs strongly - 32 B
  requests complete about twice as often as 128 B ones;
* for targeted patterns (e.g. 2 banks) the rates are similar.
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


@dataclass(frozen=True)
class SizePoint:
    pattern: str
    bandwidth_gbs: Dict[int, float]
    mrps: Dict[int, float]


def measurement_points(
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[MeasurementPoint]:
    """The figure's simulation grid, for batch submission/prefetch."""
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


def run(settings: ExperimentSettings = ExperimentSettings()) -> List[SizePoint]:
    measurements = iter(get_executor().measure_points(measurement_points(settings)))
    points = []
    for name in PATTERN_NAMES:
        bw: Dict[int, float] = {}
        rate: Dict[int, float] = {}
        for size in SIZES:
            m = next(measurements)
            bw[size] = m.bandwidth_gbs
            rate[size] = m.mrps
        points.append(SizePoint(pattern=name, bandwidth_gbs=bw, mrps=rate))
    return points


def check_shape(
    points: List[SizePoint], settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    by_name = {p.pattern: p for p in points}
    problems = []
    distributed = by_name["16 vaults"]
    ratio = distributed.mrps[32] / distributed.mrps[128]
    if not ratio > 1.4:
        problems.append(
            f"16-vault 32B/128B request-rate ratio {ratio:.2f} is not ~2x"
        )
    targeted = by_name["2 banks"]
    t_ratio = targeted.mrps[32] / targeted.mrps[128]
    if not t_ratio < ratio:
        problems.append("targeted pattern rate ratio should be smaller than distributed")
    if not distributed.bandwidth_gbs[128] >= distributed.bandwidth_gbs[32]:
        problems.append("128B distributed bandwidth below 32B")
    return problems


def report(
    points: List[SizePoint], problems: List[str], settings: ExperimentSettings
) -> str:
    series = [(f"BW {s}B", [p.bandwidth_gbs[s] for p in points]) for s in SIZES]
    series += [(f"MRPS {s}B", [p.mrps[s] for p in points]) for s in SIZES]
    text = render_series(
        "Access Pattern",
        [p.pattern for p in points],
        series,
        title="Figure 8: read-only bandwidth (GB/s) and MRPS by request size",
    )
    text += (
        "\nShape matches the paper: similar bandwidth across sizes, ~2x request"
        "\nrate for 32 B vs 128 B on distributed patterns."
        if not problems
        else "\nShape deviations: " + "; ".join(problems)
    )
    return text
