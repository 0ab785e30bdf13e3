"""Figure 6: bandwidth vs the position of an eight-bit zero mask.

Random 128 B accesses with eight address bits forced to zero at varying
positions map the traffic onto shrinking slices of the vault/bank
hierarchy.  The paper's observations, all of which must reproduce:

* lowest bandwidth at bits 7-14 (everything lands in bank 0 of vault 0);
* a large drop from mask 2-9 to mask 3-10 for ro and rw, where traffic
  collapses onto a single vault with 10 GB/s internal bandwidth;
* recovery as the mask moves to lower bits and spreads vaults again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.experiment import ExperimentSettings, MeasurementPoint
from repro.core.parallel import get_executor
from repro.core.patterns import FIG6_MASK_POSITIONS, eight_bit_mask
from repro.core.report import render_series
from repro.hmc.packet import RequestType

REQUEST_TYPES = (RequestType.READ, RequestType.READ_MODIFY_WRITE, RequestType.WRITE)


@dataclass(frozen=True)
class MaskPoint:
    label: str
    low_bit: int
    bandwidth_gbs: Dict[str, float]  # request-type label -> GB/s


def measurement_points(
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[MeasurementPoint]:
    """The figure's simulation grid, for batch submission/prefetch."""
    return [
        MeasurementPoint(
            mask=eight_bit_mask(low),
            request_type=request_type,
            payload_bytes=128,
            settings=settings,
            pattern_name=f"mask {label}",
        )
        for label, low in FIG6_MASK_POSITIONS
        for request_type in REQUEST_TYPES
    ]


def run(settings: ExperimentSettings = ExperimentSettings()) -> List[MaskPoint]:
    measurements = iter(get_executor().measure_points(measurement_points(settings)))
    points = []
    for label, low in FIG6_MASK_POSITIONS:
        bw = {rt.value: next(measurements).bandwidth_gbs for rt in REQUEST_TYPES}
        points.append(MaskPoint(label=label, low_bit=low, bandwidth_gbs=bw))
    return points


def check_shape(
    points: List[MaskPoint], settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    """The paper's qualitative claims about Figure 6."""
    by_label = {p.label: p for p in points}
    problems = []
    for rt in ("ro", "rw", "wo"):
        series = {label: p.bandwidth_gbs[rt] for label, p in by_label.items()}
        if min(series, key=series.get) != "7-14":
            problems.append(f"{rt}: minimum not at mask 7-14")
        if rt in ("ro", "rw") and not series["2-9"] > 1.3 * series["3-10"]:
            problems.append(f"{rt}: no large drop from mask 2-9 to 3-10")
        if not series["3-10"] > series["7-14"]:
            problems.append(f"{rt}: no recovery from 7-14 to 3-10")
    return problems


def report(
    points: List[MaskPoint], problems: List[str], settings: ExperimentSettings
) -> str:
    labels = [p.label for p in points]
    series = [
        (rt.value, [p.bandwidth_gbs[rt.value] for p in points]) for rt in REQUEST_TYPES
    ]
    text = render_series(
        "Bits Forced to Zero",
        labels,
        series,
        title="Figure 6: bandwidth (GB/s) vs eight-bit mask position, 128 B requests",
    )
    text += (
        "\nShape matches the paper: minimum at 7-14 (one bank), single-vault"
        "\ndrop between masks 2-9 and 3-10, recovery toward low-bit masks."
        if not problems
        else "\nShape deviations: " + "; ".join(problems)
    )
    return text
