"""Table I: structural properties of HMC 1.0 / 1.1 / 2.0.

Regenerated from the :mod:`repro.hmc.config` presets; the derived
quantities (bank counts via the paper's Eq. 1, bank/partition sizes)
must reproduce the published table.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.experiment import ExperimentSettings
from repro.core.report import render_table
from repro.hmc.config import HMC_1_0, HMC_1_1_4GB, HMC_2_0_8GB

COLUMNS = (
    "Size",
    "# DRAM Layers",
    "DRAM Layer Size",
    "# Quadrants",
    "# Vaults",
    "Vault/Quadrant",
    "# Banks",
    "# Banks/Vault",
    "Bank Size",
    "Partition Size",
)

#: The published table (four-link column), for comparison.
PAPER_TABLE = {
    "HMC 1.0 (Gen1)": {
        "Size": "0.5 GB",
        "# DRAM Layers": 4,
        "DRAM Layer Size": "1 Gb",
        "# Quadrants": 4,
        "# Vaults": 16,
        "Vault/Quadrant": 4,
        "# Banks": 128,
        "# Banks/Vault": 8,
        "Bank Size": "4 MB",
        "Partition Size": "8 MB",
    },
    "HMC 1.1 (Gen2) 4GB": {
        "Size": "4 GB",
        "# DRAM Layers": 8,
        "DRAM Layer Size": "4 Gb",
        "# Quadrants": 4,
        "# Vaults": 16,
        "Vault/Quadrant": 4,
        "# Banks": 256,
        "# Banks/Vault": 16,
        "Bank Size": "16 MB",
        "Partition Size": "32 MB",
    },
    "HMC 2.0 8GB": {
        "Size": "8 GB",
        "# DRAM Layers": 8,
        "DRAM Layer Size": "8 Gb",
        "# Quadrants": 4,
        "# Vaults": 32,
        "Vault/Quadrant": 8,
        "# Banks": 512,
        "# Banks/Vault": 16,
        "Bank Size": "16 MB",
        "Partition Size": "32 MB",
    },
}

DEVICES = (HMC_1_0, HMC_1_1_4GB, HMC_2_0_8GB)


def run(settings: ExperimentSettings = ExperimentSettings()) -> Dict[str, Dict]:
    """Derive every Table I row from the structural configs."""
    return {device.name: device.table_row() for device in DEVICES}


def check_shape(
    derived: Dict[str, Dict], settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    """Cells where the derived table disagrees with the published one."""
    diffs = []
    for name, paper_row in PAPER_TABLE.items():
        row = derived.get(name)
        if row is None:
            diffs.append(f"{name}: missing")
            continue
        for column, expected in paper_row.items():
            if row[column] != expected:
                diffs.append(f"{name}/{column}: paper={expected} derived={row[column]}")
    return diffs


def report(
    derived: Dict[str, Dict], problems: List[str], settings: ExperimentSettings
) -> str:
    rows = [[name] + [row[c] for c in COLUMNS] for name, row in derived.items()]
    text = render_table(
        ("Device",) + COLUMNS, rows, title="Table I: properties of HMC versions"
    )
    if problems:
        text += "\nDeviations from the published table:\n  " + "\n  ".join(problems)
    else:
        text += "\nAll derived cells match the published table."
    return text
