"""Figure 13: random vs linear read bandwidth across request sizes, for
16-vault and 1-vault footprints.

HMC's closed-page policy means linear streams get no row-buffer-hit
advantage: the paper finds random and linear bandwidths essentially
equal (random a touch higher from fewer shared-resource conflicts), and
bandwidth growing with request size as packet overhead amortizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.experiment import ExperimentSettings, MeasurementPoint
from repro.core.parallel import get_executor
from repro.core.patterns import pattern_by_name
from repro.core.report import render_series
from repro.fpga.address_gen import AddressingMode
from repro.hmc.packet import RequestType, VALID_PAYLOAD_BYTES

SIZES = tuple(reversed(VALID_PAYLOAD_BYTES))  # 128 ... 16, the paper's legend order
FOOTPRINTS = ("16 vaults", "1 vault")


@dataclass(frozen=True)
class ClosedPageGroup:
    footprint: str
    mode: AddressingMode
    bandwidth_gbs: Dict[int, float]


def measurement_points(
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[MeasurementPoint]:
    """The figure's simulation grid, for batch submission/prefetch."""
    points = []
    for footprint in FOOTPRINTS:
        pattern = pattern_by_name(footprint, settings.config)
        for mode in (AddressingMode.LINEAR, AddressingMode.RANDOM):
            for size in SIZES:
                points.append(
                    MeasurementPoint(
                        mask=pattern.mask,
                        request_type=RequestType.READ,
                        payload_bytes=size,
                        mode=mode,
                        settings=settings,
                        pattern_name=f"{footprint}/{mode.value}",
                    )
                )
    return points


def run(settings: ExperimentSettings = ExperimentSettings()) -> List[ClosedPageGroup]:
    measurements = iter(get_executor().measure_points(measurement_points(settings)))
    groups = []
    for footprint in FOOTPRINTS:
        for mode in (AddressingMode.LINEAR, AddressingMode.RANDOM):
            bw = {size: next(measurements).bandwidth_gbs for size in SIZES}
            groups.append(
                ClosedPageGroup(footprint=footprint, mode=mode, bandwidth_gbs=bw)
            )
    return groups


def check_shape(
    groups: List[ClosedPageGroup], settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    problems = []
    by_key = {(g.footprint, g.mode): g for g in groups}
    for footprint in FOOTPRINTS:
        linear = by_key[(footprint, AddressingMode.LINEAR)]
        random_ = by_key[(footprint, AddressingMode.RANDOM)]
        for size in SIZES:
            a, b = linear.bandwidth_gbs[size], random_.bandwidth_gbs[size]
            if abs(a - b) / max(a, b) > 0.25:
                problems.append(
                    f"{footprint} {size}B: linear {a:.1f} vs random {b:.1f} "
                    "differ by more than 25%"
                )
        if not linear.bandwidth_gbs[128] > linear.bandwidth_gbs[16]:
            problems.append(f"{footprint}: 128B not above 16B")
    return problems


def effective_bandwidth_note() -> str:
    """The paper's §IV-D packet-efficiency arithmetic."""
    from repro.hmc.packet import effective_bandwidth_fraction

    big = effective_bandwidth_fraction(128)
    small = effective_bandwidth_fraction(16)
    return (
        f"Packet efficiency: 128 B requests reach {big:.0%} of raw bandwidth, "
        f"16 B requests only {small:.0%} (paper: 89% vs 50%)."
    )


def report(
    groups: List[ClosedPageGroup], problems: List[str], settings: ExperimentSettings
) -> str:
    labels = [f"{g.footprint}/{g.mode.value}" for g in groups]
    series = [(f"{s}B", [g.bandwidth_gbs[s] for g in groups]) for s in SIZES]
    text = render_series(
        "Pattern",
        labels,
        series,
        title="Figure 13: linear vs random read bandwidth (GB/s) by request size",
    )
    text += "\n" + effective_bandwidth_note()
    text += (
        "\nShape matches the paper: closed-page makes linear ~ random, and"
        "\nlarger requests amortize the one-flit packet overhead."
        if not problems
        else "\nShape deviations: " + "; ".join(problems)
    )
    return text
