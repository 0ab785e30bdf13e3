"""Projection: the paper's experiments on HMC 2.0 hardware.

Table I describes HMC 2.0 (32 vaults, four full-width 15 Gbps links,
120 GB/s raw per direction) whose silicon was not available to the
paper.  The structural model generalizes, so this module projects the
bandwidth characterization onto it - the "what would Fig. 7 look like"
a designer evaluating the next generation would want.

The projection hardware now lives in the device registry as the
``hmc2`` backend (:mod:`repro.devices.hmc2`); this experiment is a
consumer of that profile, comparing it against the measured ``hmc1``
model pattern by pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.core.experiment import ExperimentSettings, MeasurementPoint
from repro.core.parallel import get_executor
from repro.core.patterns import standard_patterns
from repro.core.report import render_series
from repro.devices.hmc2 import HMC2_HOST_CALIBRATION
from repro.hmc.config import HMC_1_1_4GB, HMC_2_0_8GB
from repro.hmc.packet import RequestType

#: Patterns shared by both generations, in sweep order.
PATTERNS = ("1 bank", "4 banks", "1 vault", "4 vaults", "16 vaults")

#: Backward-compatible alias; the constants moved to the hmc2 backend.
HOST_CALIBRATION = HMC2_HOST_CALIBRATION


@dataclass(frozen=True)
class GenerationComparison:
    pattern: str
    gen2_gbs: float  # HMC 1.1 (the measured baseline)
    hmc2_gbs: float  # HMC 2.0 projection

    @property
    def speedup(self) -> float:
        return self.hmc2_gbs / self.gen2_gbs if self.gen2_gbs else 0.0


def measurement_points(
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[MeasurementPoint]:
    """Both generations' simulation grids, for batch submission/prefetch."""
    hmc2_settings = replace(
        settings, device="hmc2", config=HMC_2_0_8GB, calibration=HOST_CALIBRATION
    )
    gen2_patterns = standard_patterns(HMC_1_1_4GB)
    hmc2_patterns = standard_patterns(HMC_2_0_8GB)
    points = []
    for name in PATTERNS:
        points.append(
            MeasurementPoint(
                mask=gen2_patterns[name].mask,
                request_type=RequestType.READ,
                payload_bytes=128,
                settings=settings,
                pattern_name=name,
            )
        )
        points.append(
            MeasurementPoint(
                mask=hmc2_patterns[name].mask,
                request_type=RequestType.READ,
                payload_bytes=128,
                settings=hmc2_settings,
                pattern_name=name,
            )
        )
    return points


def run(settings: ExperimentSettings = ExperimentSettings()) -> List[GenerationComparison]:
    measurements = iter(get_executor().measure_points(measurement_points(settings)))
    rows = []
    for name in PATTERNS:
        gen2 = next(measurements)
        hmc2 = next(measurements)
        rows.append(
            GenerationComparison(
                pattern=name,
                gen2_gbs=gen2.bandwidth_gbs,
                hmc2_gbs=hmc2.bandwidth_gbs,
            )
        )
    return rows


def check_shape(
    rows: List[GenerationComparison],
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[str]:
    by_name = {r.pattern: r for r in rows}
    problems = []
    # Single-bank/vault limits are internal: the projection should show
    # little generational gain there...
    if by_name["1 bank"].speedup > 1.4:
        problems.append("1-bank speedup should be limited by bank timing")
    if not 0.8 <= by_name["1 vault"].speedup <= 1.4:
        problems.append("1-vault speedup should be pinned near the vault cap")
    # ... while distributed traffic gains from 2x links and 2x vaults.
    if not by_name["16 vaults"].speedup > 1.5:
        problems.append("distributed traffic should gain from 4 full links")
    return problems


def report(
    rows: List[GenerationComparison], problems: List[str], settings: ExperimentSettings
) -> str:
    text = render_series(
        "Pattern",
        [r.pattern for r in rows],
        [
            ("HMC 1.1 (GB/s)", [r.gen2_gbs for r in rows]),
            ("HMC 2.0 proj.", [r.hmc2_gbs for r in rows]),
            ("speedup", [round(r.speedup, 2) for r in rows]),
        ],
        title="Projection: read bandwidth, HMC 1.1 measured model vs HMC 2.0",
    )
    text += (
        "\nProjection consistent: internal (bank/vault) limits carry over;"
        "\ndistributed bandwidth scales with links and vault count."
        if not problems
        else "\nDeviations: " + "; ".join(problems)
    )
    return text
