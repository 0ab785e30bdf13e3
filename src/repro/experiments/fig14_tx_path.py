"""Figure 14 / §IV-E1: deconstruction of the TX-path latency.

The stage-by-stage cycle budget of the controller's transmit path, the
260 ns receive path, and the resulting 547 ns of infrastructure latency
are reproduced from the controller model's constants, plus a live
measurement of the no-load round trip against the paper's 655/711 ns
and its ~125 ns in-HMC estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.experiment import ExperimentSettings, run_stream_latency
from repro.core.report import render_table

PAPER_TX_NS = 287.0
PAPER_RX_NS = 260.0
PAPER_INFRA_NS = 547.0
PAPER_MIN_RTT_16B_NS = 655.0
PAPER_MIN_RTT_128B_NS = 711.0
PAPER_IN_HMC_NS = 125.0

#: (stage, cycles) of the paper's Fig. 14 walk-through for one 128 B
#: request.  The arbiter is 2-9 cycles; its midpoint keeps the total at
#: the paper's "up to 54 cycles".
TX_STAGES: Tuple[Tuple[str, float], ...] = (
    ("FlitsToParallel buffering", 10.0),
    ("5:1 arbiter (2-9 cycles)", 4.0),
    ("Add-Seq# / flow control / Add-CRC", 10.0),
    ("SerDes conversion + serialization", 10.0),
    ("wire transmission (128 B request)", 15.0),
    ("lane reversal / pma / pmd margin", 5.0),
)


@dataclass(frozen=True)
class LatencyBudget:
    tx_ns: float
    rx_ns: float
    min_rtt_16b_ns: float
    min_rtt_128b_ns: float

    @property
    def infrastructure_ns(self) -> float:
        return self.tx_ns + self.rx_ns

    @property
    def in_hmc_16b_ns(self) -> float:
        """What is left of the minimum RTT after FPGA/link infrastructure."""
        return self.min_rtt_16b_ns - self.infrastructure_ns


def run(settings: ExperimentSettings = ExperimentSettings()) -> LatencyBudget:
    calibration = settings.calibration
    cycle = calibration.fpga_cycle_ns
    tx_cycles = sum(c for _, c in TX_STAGES)
    small = run_stream_latency(2, 16, settings=settings, trials=4)
    large = run_stream_latency(2, 128, settings=settings, trials=4)
    return LatencyBudget(
        tx_ns=tx_cycles * cycle,
        rx_ns=calibration.rx_pipeline_ns(2),
        min_rtt_16b_ns=small.min_ns,
        min_rtt_128b_ns=large.min_ns,
    )


def check_shape(
    budget: LatencyBudget, settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    problems = []
    if abs(budget.tx_ns - PAPER_TX_NS) > 10:
        problems.append(f"TX path {budget.tx_ns:.0f} ns far from paper's 287 ns")
    if abs(budget.rx_ns - PAPER_RX_NS) > 10:
        problems.append(f"RX path {budget.rx_ns:.0f} ns far from paper's 260 ns")
    if abs(budget.min_rtt_16b_ns - PAPER_MIN_RTT_16B_NS) > 60:
        problems.append(
            f"16 B min RTT {budget.min_rtt_16b_ns:.0f} ns far from paper's 655 ns"
        )
    if abs(budget.min_rtt_128b_ns - PAPER_MIN_RTT_128B_NS) > 60:
        problems.append(
            f"128 B min RTT {budget.min_rtt_128b_ns:.0f} ns far from paper's 711 ns"
        )
    if not budget.min_rtt_128b_ns > budget.min_rtt_16b_ns:
        problems.append("128 B min RTT not above 16 B")
    return problems


def report(
    budget: LatencyBudget, problems: List[str], settings: ExperimentSettings
) -> str:
    cycle = settings.calibration.fpga_cycle_ns
    rows = [[stage, cycles, cycles * cycle] for stage, cycles in TX_STAGES]
    rows.append(["total TX path", sum(c for _, c in TX_STAGES), budget.tx_ns])
    text = render_table(
        ("TX stage", "cycles", "ns"),
        rows,
        title="Figure 14: TX-path latency deconstruction (187.5 MHz FPGA)",
    )
    text += (
        f"\nRX path: {budget.rx_ns:.0f} ns (paper {PAPER_RX_NS:.0f});"
        f" infrastructure total: {budget.infrastructure_ns:.0f} ns"
        f" (paper {PAPER_INFRA_NS:.0f})."
        f"\nMeasured no-load RTT: {budget.min_rtt_16b_ns:.0f} ns @16 B"
        f" (paper {PAPER_MIN_RTT_16B_NS:.0f}),"
        f" {budget.min_rtt_128b_ns:.0f} ns @128 B (paper {PAPER_MIN_RTT_128B_NS:.0f})."
        f"\nImplied time inside the HMC: {budget.in_hmc_16b_ns:.0f} ns"
        f" (paper ~{PAPER_IN_HMC_NS:.0f})."
    )
    text += (
        "\nAll latency components within tolerance of the paper."
        if not problems
        else "\nDeviations: " + "; ".join(problems)
    )
    return text
