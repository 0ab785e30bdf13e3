"""Figure 7: bandwidth of ro / rw / wo across the nine access patterns.

Paper claims that must reproduce:

* accessing more than eight banks of one vault does not raise bandwidth
  (the 10 GB/s vault limit);
* for distributed patterns, rw beats ro (bi-directional links carry
  data both ways) and rw is roughly double wo (reads are paired with,
  and limited by, writes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.experiment import ExperimentSettings, MeasurementPoint
from repro.core.parallel import get_executor
from repro.core.patterns import available_pattern_names, standard_patterns
from repro.core.report import render_series
from repro.hmc.packet import RequestType

REQUEST_TYPES = (RequestType.READ, RequestType.READ_MODIFY_WRITE, RequestType.WRITE)

#: Approximate bar heights read off the paper's Figure 7 (GB/s), used
#: for paper-vs-measured reporting, not for assertions.
PAPER_APPROX_GBS = {
    "ro": {"1 bank": 2.2, "1 vault": 10.0, "16 vaults": 22.0},
    "rw": {"16 vaults": 26.0},
    "wo": {"16 vaults": 12.0},
}


@dataclass(frozen=True)
class PatternBandwidth:
    pattern: str
    bandwidth_gbs: Dict[str, float]


def measurement_points(
    settings: ExperimentSettings = ExperimentSettings(), payload_bytes: int = 128
) -> List[MeasurementPoint]:
    """The figure's simulation grid, for batch submission/prefetch.

    Pattern names come from the device geometry in ``settings.config``
    (identical to the paper's nine for HMC 1.1); cross-device runs get
    the subset their vault/bank structure supports.
    """
    patterns = standard_patterns(settings.config)
    return [
        MeasurementPoint.for_pattern(
            patterns[name],
            request_type=rt,
            payload_bytes=payload_bytes,
            settings=settings,
        )
        for name in available_pattern_names(settings.config)
        for rt in REQUEST_TYPES
    ]


def run(
    settings: ExperimentSettings = ExperimentSettings(), payload_bytes: int = 128
) -> List[PatternBandwidth]:
    measurements = iter(
        get_executor().measure_points(measurement_points(settings, payload_bytes))
    )
    results = []
    for name in available_pattern_names(settings.config):
        bw = {rt.value: next(measurements).bandwidth_gbs for rt in REQUEST_TYPES}
        results.append(PatternBandwidth(pattern=name, bandwidth_gbs=bw))
    return results


def check_shape(
    results: List[PatternBandwidth],
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[str]:
    by_name = {r.pattern: r.bandwidth_gbs for r in results}
    problems = []
    if settings.device != "hmc1":
        # The claims below were read off the paper's measured HMC 1.1;
        # other backends have different binding resources (ddr4's
        # 16-bank channel keeps scaling past 8 banks, hbm2's wide duplex
        # channels make wo ~ ro, hmc2's links are never the limit), so
        # cross-device runs only get a sanity gate.
        for r in results:
            for rt, bandwidth in r.bandwidth_gbs.items():
                if not bandwidth > 0:
                    problems.append(f"{r.pattern}/{rt}: non-positive bandwidth")
        return problems
    for rt in ("ro", "rw", "wo"):
        eight_banks = by_name["8 banks"][rt]
        one_vault = by_name["1 vault"][rt]
        if eight_banks and abs(one_vault - eight_banks) / eight_banks > 0.10:
            problems.append(f"{rt}: >8 banks of a vault changed bandwidth")
    distributed = by_name["16 vaults"]
    if not distributed["rw"] > distributed["ro"]:
        problems.append("rw does not beat ro for distributed accesses")
    if not 1.4 <= distributed["rw"] / distributed["wo"] <= 2.6:
        problems.append("rw is not roughly double wo")
    return problems


def report(
    results: List[PatternBandwidth], problems: List[str], settings: ExperimentSettings
) -> str:
    series = [
        (rt.value, [r.bandwidth_gbs[rt.value] for r in results])
        for rt in REQUEST_TYPES
    ]
    text = render_series(
        "Access Pattern",
        [r.pattern for r in results],
        series,
        title="Figure 7: bandwidth (GB/s) by access pattern, 128 B requests",
    )
    if problems:
        text += "\nShape deviations: " + "; ".join(problems)
    elif settings.device != "hmc1":
        text += (
            f"\nSanity checks pass on device backend {settings.device!r}"
            " (the paper's Fig. 7 shape claims apply to hmc1 only)."
        )
    else:
        text += (
            "\nShape matches the paper: vault cap beyond 8 banks; rw > ro;"
            " rw ~ 2x wo."
        )
    return text
