"""Table II: HMC read/write request/response sizes in flits."""

from __future__ import annotations

from typing import Dict, List

from repro.core.experiment import ExperimentSettings
from repro.core.report import render_table
from repro.hmc.packet import table_ii

#: The published table: (min, max) flits per packet.
PAPER_TABLE = {
    "Read": {"Request": (1, 1), "Response": (2, 9)},
    "Write": {"Request": (2, 9), "Response": (1, 1)},
}


def run(settings: ExperimentSettings = ExperimentSettings()) -> Dict[str, Dict]:
    return table_ii()


def check_shape(
    derived: Dict[str, Dict], settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    """One problem unless the derived table equals the published one exactly."""
    return [] if derived == PAPER_TABLE else [f"derived {derived} != paper {PAPER_TABLE}"]


def report(
    derived: Dict[str, Dict], problems: List[str], settings: ExperimentSettings
) -> str:
    def cell(span) -> str:
        low, high = span
        return f"{low} Flit" + ("s" if high > 1 else "") if low == high else f"{low}~{high} Flits"

    rows = [
        [kind, cell(sides["Request"]), cell(sides["Response"])]
        for kind, sides in derived.items()
    ]
    text = render_table(
        ("Type", "Request", "Response"),
        rows,
        title="Table II: HMC transaction sizes (flits, incl. 1 flit overhead)",
    )
    text += (
        "\nDEVIATES from the published table!"
        if problems
        else "\nMatches the published table."
    )
    return text
