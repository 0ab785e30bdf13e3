"""Remote-cube bandwidth on a chain (paper §II-B; arXiv:1707.05399).

Full-scale reads against a four-cube chain under three placements: all
traffic on the host-attached cube, all traffic on the far end of the
chain, and traffic spread across the whole network.  The companion NoC
study's headline result is that chaining trades capacity for bandwidth:
every remote transaction is squeezed through serial pass-through links,
so far-cube bandwidth collapses to the per-hop link cap while local
traffic keeps the full two-link figure.

Claims that must reproduce:

* local > spread > remote, strictly;
* remote bandwidth saturates at (not above) the pass-through link's
  serialization cap, ``raw_bytes / max(request, response service)``;
* local traffic stays in the single-cube 128 B read range (~20 GB/s).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.core.experiment import ExperimentSettings, MeasurementPoint
from repro.core.parallel import get_executor
from repro.core.report import render_table
from repro.hmc.address import AddressMask, CubeMapping
from repro.hmc.packet import (
    RequestType,
    packet_bytes,
    request_flits,
    response_flits,
    transaction_raw_bytes,
)
from repro.topology.spec import TopologySpec

NUM_CUBES = 4
PAYLOAD_BYTES = 128


@dataclass(frozen=True)
class NetBandwidthResult:
    """Read bandwidth under the three placements, plus the link cap."""

    local_gbs: float
    spread_gbs: float
    remote_gbs: float
    hop_cap_gbs: float
    remote_latency_ns: float
    local_latency_ns: float


def hop_cap_gbs(settings: ExperimentSettings) -> float:
    """Raw-bandwidth ceiling of one pass-through link for reads.

    One direction serializes requests, the other responses; the slower
    direction bounds transactions/ns, and raw bandwidth counts both
    packets of each transaction.
    """
    cal = settings.calibration
    req = packet_bytes(request_flits(False, PAYLOAD_BYTES))
    resp = packet_bytes(response_flits(False, PAYLOAD_BYTES))
    slower_ns = max(cal.cube_hop_service_ns(req), cal.cube_hop_service_ns(resp))
    return transaction_raw_bytes(False, PAYLOAD_BYTES) / slower_ns


def measurement_points(
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[MeasurementPoint]:
    """Local-, remote- and spread-placement full-scale read points."""
    topo_settings = replace(
        settings, topology=TopologySpec("chain", NUM_CUBES, "contiguous")
    )
    mapping = CubeMapping(NUM_CUBES, settings.config.capacity_bytes)
    masks = [
        ("local cube 0", mapping.cube_mask(0)),
        ("remote cube 3", mapping.cube_mask(NUM_CUBES - 1)),
        ("spread", AddressMask()),
    ]
    return [
        MeasurementPoint(
            mask=mask,
            request_type=RequestType.READ,
            payload_bytes=PAYLOAD_BYTES,
            settings=topo_settings,
            pattern_name=name,
        )
        for name, mask in masks
    ]


def run(settings: ExperimentSettings = ExperimentSettings()) -> NetBandwidthResult:
    local, remote, spread = get_executor().measure_points(
        measurement_points(settings)
    )
    return NetBandwidthResult(
        local_gbs=local.bandwidth_gbs,
        spread_gbs=spread.bandwidth_gbs,
        remote_gbs=remote.bandwidth_gbs,
        hop_cap_gbs=hop_cap_gbs(settings),
        remote_latency_ns=remote.read_latency_avg_ns,
        local_latency_ns=local.read_latency_avg_ns,
    )


def check_shape(
    result: NetBandwidthResult, settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    problems = []
    if not result.local_gbs > result.spread_gbs > result.remote_gbs:
        problems.append(
            f"expected local > spread > remote, got {result.local_gbs:.1f} / "
            f"{result.spread_gbs:.1f} / {result.remote_gbs:.1f} GB/s"
        )
    if result.remote_gbs > result.hop_cap_gbs * 1.05:
        problems.append(
            f"remote {result.remote_gbs:.1f} GB/s exceeds the "
            f"{result.hop_cap_gbs:.1f} GB/s pass-through cap"
        )
    if result.remote_gbs < result.hop_cap_gbs * 0.55:
        problems.append(
            f"remote {result.remote_gbs:.1f} GB/s far below the "
            f"{result.hop_cap_gbs:.1f} GB/s cap - the chain should saturate it"
        )
    if not 15.0 <= result.local_gbs <= 25.0:
        problems.append(
            f"local {result.local_gbs:.1f} GB/s outside the single-cube "
            "128 B read range"
        )
    return problems


def report(
    result: NetBandwidthResult, problems: List[str], settings: ExperimentSettings
) -> str:
    rows = [
        ["local (cube 0)", f"{result.local_gbs:.2f}", f"{result.local_latency_ns:.0f}"],
        ["spread (all cubes)", f"{result.spread_gbs:.2f}", "-"],
        [
            "remote (cube 3)",
            f"{result.remote_gbs:.2f}",
            f"{result.remote_latency_ns:.0f}",
        ],
    ]
    text = render_table(
        ("Placement", "Bandwidth (GB/s)", "Read latency (ns)"),
        rows,
        title=f"Chain-{NUM_CUBES} remote bandwidth, {PAYLOAD_BYTES} B reads",
    )
    text += f"\nPass-through link cap: {result.hop_cap_gbs:.2f} GB/s raw."
    text += (
        "\nMatches the NoC study: remote traffic saturates the serial "
        "pass-through link; local keeps the full two-link bandwidth."
        if not problems
        else "\nShape deviations: " + "; ".join(problems)
    )
    return text
