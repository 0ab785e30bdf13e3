"""Measured bottleneck attribution: per-station utilization of one run.

:func:`read_stations` reads how busy each shared station was during
the measurement window of a board that has just finished one - the
empirical counterpart to the analytic bottleneck model in
:mod:`repro.analysis.bottleneck`.  The hottest serving station is the
measured bottleneck; on a well-calibrated model the two agree.

The experiment driver (:func:`repro.core.experiment.simulate_point_observed`)
calls the reader on the board that produced the measurement, so the
attribution and the bandwidth come from the same run.  Under the vector
kernel a certified window's counters cover only the probe the engine
simulated, and the reader is given that span
(:attr:`repro.sim.vectorprobe.VectorOutcome.simulated_ns`): the
utilizations are what the engine measured, not an extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class StationUtilization:
    """One station's busy fraction over the measurement window."""

    name: str
    utilization: float
    detail: str = ""


@dataclass(frozen=True)
class StationSummary:
    """Every station's busy fraction over one measurement window."""

    stations: Tuple[StationUtilization, ...]

    @property
    def bottleneck(self) -> StationUtilization:
        """The busiest *serving* station.

        Token-pool entries are occupancy watermarks, not busy fractions:
        a saturated pool usually means some downstream station is
        holding tokens hostage, so they are excluded from attribution
        and reported as pressure indicators only.
        """
        serving = [s for s in self.stations if "tokens" not in s.name]
        return max(serving, key=lambda s: s.utilization)


def read_stations(board, window_ns: float) -> StationSummary:
    """Read the station counters of a board whose window just closed.

    ``window_ns`` is the span the busy counters cover (they are reset
    when the measurement window opens): the whole window, or the probe
    of a certified vector window.  Links are reported
    one by one; of the vaults only the busiest TSV
    bus, command issuer and bank.  Reads counters only: O(links +
    vaults + banks), no simulation.
    """
    device = board.device
    stations: List[StationUtilization] = []
    for link in device.links:
        stations.append(
            StationUtilization(
                f"link{link.index} TX",
                min(1.0, link.tx.busy_time / window_ns),
                f"{link.tx.packets} packets",
            )
        )
        stations.append(
            StationUtilization(
                f"link{link.index} RX",
                min(1.0, link.rx.busy_time / window_ns),
                f"{link.rx.packets} packets",
            )
        )
        stations.append(
            StationUtilization(
                f"link{link.index} tokens",
                min(1.0, link.tokens.peak_in_use / link.tokens.capacity),
                f"peak {link.tokens.peak_in_use}/{link.tokens.capacity} flits",
            )
        )
        # Window-scoped low-water mark (reset at begin_measurement): how
        # close the request direction came to stalling on flow control.
        low_water = link.tokens.low_water
        stations.append(
            StationUtilization(
                f"link{link.index} tokens low-water",
                min(1.0, 1.0 - low_water / link.tokens.capacity),
                f"min {low_water}/{link.tokens.capacity} flits free",
            )
        )

    vaults = device.vaults
    busiest_tsv = max(vaults, key=lambda v: v.tsv.busy_time)
    stations.append(
        StationUtilization(
            f"vault{busiest_tsv.index} TSV bus",
            min(1.0, busiest_tsv.tsv.busy_time / window_ns),
            f"{busiest_tsv.tsv.bytes} data bytes",
        )
    )
    busiest_cmd = max(vaults, key=lambda v: v.command.busy_time)
    stations.append(
        StationUtilization(
            f"vault{busiest_cmd.index} command issue",
            min(1.0, busiest_cmd.command.busy_time / window_ns),
            f"{busiest_cmd.command.packets} commands",
        )
    )
    busiest_bank = max(
        (bank for vault in vaults for bank in vault.banks),
        key=lambda b: b.busy_time,
    )
    stations.append(
        StationUtilization(
            f"vault{busiest_bank.vault.index} bank{busiest_bank.index}",
            min(1.0, busiest_bank.busy_time / window_ns),
            f"{busiest_bank.accesses} accesses",
        )
    )
    return StationSummary(tuple(stations))
