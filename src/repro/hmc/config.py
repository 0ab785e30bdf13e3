"""Structural configuration of HMC devices (paper Table I, Eq. 2).

The dataclasses here describe *structure*: layer counts, vault/quadrant
organization, bank sizes, and external-link geometry.  Timing lives in
:mod:`repro.hmc.dram` and :mod:`repro.hmc.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hmc.errors import ConfigurationError

GBIT = 1 << 30  # bits
MBYTE = 1 << 20
GBYTE = 1 << 30
FLIT_BYTES = 16


@dataclass(frozen=True)
class LinkConfig:
    """One group of identical external SerDes links.

    >>> LinkConfig(num_links=2, lanes_per_link=8, gbps_per_lane=15.0).peak_bandwidth_gbs
    60.0

    which is the paper's Eq. 2 for the AC-510's two half-width links.
    """

    num_links: int = 2
    lanes_per_link: int = 8  # 8 = half-width, 16 = full-width
    gbps_per_lane: float = 15.0  # configurable 10, 12.5 or 15 Gbps

    def __post_init__(self) -> None:
        if self.num_links not in (2, 4, 8):
            raise ConfigurationError(f"HMC supports 2, 4 or 8 links, not {self.num_links}")
        if self.lanes_per_link not in (8, 16):
            raise ConfigurationError(
                f"links are half-width (8 lanes) or full-width (16), not {self.lanes_per_link}"
            )
        # 10/12.5/15 are the HMC SerDes rates; 9.6 is the non-SerDes
        # equivalent used by the ddr4 backend (16 lanes x 9.6 Gbps =
        # 19.2 GB/s per direction, one DDR4-2400 x64 channel).
        if self.gbps_per_lane not in (9.6, 10.0, 12.5, 15.0):
            raise ConfigurationError(
                f"lane speed must be 9.6, 10, 12.5 or 15 Gbps, not {self.gbps_per_lane}"
            )

    @property
    def lane_gbs(self) -> float:
        """One lane's unidirectional byte rate in GB/s."""
        return self.gbps_per_lane / 8.0

    @property
    def link_gbs_per_direction(self) -> float:
        """Raw wire bandwidth of one link, one direction, GB/s."""
        return self.lanes_per_link * self.lane_gbs

    @property
    def peak_bandwidth_gbs(self) -> float:
        """Bi-directional peak bandwidth across all links (Eq. 2)."""
        return self.num_links * self.link_gbs_per_direction * 2


@dataclass(frozen=True)
class HMCConfig:
    """Structural description of one HMC device generation.

    Field values for the shipped presets come from Table I of the paper;
    :meth:`validate` checks that the derived quantities (total capacity,
    bank count, bank/partition sizes) reproduce the table.
    """

    name: str
    generation: str
    capacity_bytes: int
    num_dram_layers: int
    dram_layer_bits: int
    num_quadrants: int = 4
    num_vaults: int = 16
    banks_per_partition: int = 2
    partitions_per_layer: int = 16
    page_bytes: int = 256  # DRAM row size, smaller than DDR4's 512-2048 B
    block_bytes: int = 16  # addressing granularity (one flit)
    vault_bus_bytes: int = 32  # DRAM data-bus granularity within a vault
    links: LinkConfig = field(default_factory=LinkConfig)

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # derived structure (Table I rows)
    # ------------------------------------------------------------------
    @property
    def vaults_per_quadrant(self) -> int:
        return self.num_vaults // self.num_quadrants

    @property
    def banks_per_vault(self) -> int:
        """Each vault owns one partition per layer, each with its banks."""
        partitions_per_vault = (
            self.num_dram_layers * self.partitions_per_layer // self.num_vaults
        )
        return partitions_per_vault * self.banks_per_partition

    @property
    def num_banks(self) -> int:
        """Paper Eq. 1: layers x partitions/layer x banks/partition."""
        return self.num_dram_layers * self.partitions_per_layer * self.banks_per_partition

    @property
    def partition_bytes(self) -> int:
        return self.dram_layer_bits // 8 // self.partitions_per_layer

    @property
    def bank_bytes(self) -> int:
        return self.partition_bytes // self.banks_per_partition

    @property
    def rows_per_bank(self) -> int:
        return self.bank_bytes // self.page_bytes

    def validate(self) -> None:
        """Cross-check the derived structure against the stated capacity."""
        derived = self.num_dram_layers * self.dram_layer_bits // 8
        if derived != self.capacity_bytes:
            raise ConfigurationError(
                f"{self.name}: layers x layer-size = {derived} bytes does not "
                f"match capacity {self.capacity_bytes}"
            )
        if self.num_vaults % self.num_quadrants:
            raise ConfigurationError(
                f"{self.name}: {self.num_vaults} vaults do not divide into "
                f"{self.num_quadrants} quadrants"
            )
        layer_partition_bytes = self.dram_layer_bits // 8
        if layer_partition_bytes % self.partitions_per_layer:
            raise ConfigurationError(
                f"{self.name}: layer does not divide into partitions evenly"
            )
        if self.partition_bytes % self.banks_per_partition:
            raise ConfigurationError(
                f"{self.name}: partition does not divide into banks evenly"
            )
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ConfigurationError(f"{self.name}: page size must be a power of two")

    def table_row(self) -> dict:
        """The device's row of the paper's Table I, as a dict."""
        return {
            "Size": f"{self.capacity_bytes // GBYTE} GB"
            if self.capacity_bytes >= GBYTE
            else f"{self.capacity_bytes / GBYTE:.1f} GB",
            "# DRAM Layers": self.num_dram_layers,
            "DRAM Layer Size": f"{self.dram_layer_bits // GBIT} Gb",
            "# Quadrants": self.num_quadrants,
            "# Vaults": self.num_vaults,
            "Vault/Quadrant": self.vaults_per_quadrant,
            "# Banks": self.num_banks,
            "# Banks/Vault": self.banks_per_vault,
            "Bank Size": f"{self.bank_bytes // MBYTE} MB",
            "Partition Size": f"{self.partition_bytes // MBYTE} MB",
        }


# ----------------------------------------------------------------------
# Table I presets (four-link column; the AC-510 device uses two links,
# hence the LinkConfig override on HMC_1_1_4GB)
# ----------------------------------------------------------------------
HMC_1_0 = HMCConfig(
    name="HMC 1.0 (Gen1)",
    generation="1.0",
    capacity_bytes=512 * MBYTE,
    num_dram_layers=4,
    dram_layer_bits=1 * GBIT,
)

HMC_1_1_2GB = HMCConfig(
    name="HMC 1.1 (Gen2) 2GB",
    generation="1.1",
    capacity_bytes=2 * GBYTE,
    num_dram_layers=4,
    dram_layer_bits=4 * GBIT,
)

HMC_1_1_4GB = HMCConfig(
    name="HMC 1.1 (Gen2) 4GB",
    generation="1.1",
    capacity_bytes=4 * GBYTE,
    num_dram_layers=8,
    dram_layer_bits=4 * GBIT,
    links=LinkConfig(num_links=2, lanes_per_link=8, gbps_per_lane=15.0),
)

# HMC 2.0 spreads 32 partitions per layer across its 32 vaults so that
# partition (32 MB) and bank (16 MB) sizes match Table I.  Note Table I's
# "# Banks/Vault 16/32" row is internally inconsistent with its own
# "# Banks 256/512" over 32 vaults; we keep the derived value
# (banks / vaults) and record the discrepancy in EXPERIMENTS.md.
HMC_2_0_4GB = HMCConfig(
    name="HMC 2.0 4GB",
    generation="2.0",
    capacity_bytes=4 * GBYTE,
    num_dram_layers=4,
    dram_layer_bits=8 * GBIT,
    num_vaults=32,
    partitions_per_layer=32,
    links=LinkConfig(num_links=4, lanes_per_link=16, gbps_per_lane=15.0),
)

HMC_2_0_8GB = HMCConfig(
    name="HMC 2.0 8GB",
    generation="2.0",
    capacity_bytes=8 * GBYTE,
    num_dram_layers=8,
    dram_layer_bits=8 * GBIT,
    num_vaults=32,
    partitions_per_layer=32,
    links=LinkConfig(num_links=4, lanes_per_link=16, gbps_per_lane=15.0),
)

ALL_PRESETS = (HMC_1_0, HMC_1_1_2GB, HMC_1_1_4GB, HMC_2_0_4GB, HMC_2_0_8GB)
