"""Chained-cube hop latency (paper §II-B; arXiv:1707.05399 Fig. 5).

Pin low-load reads onto each cube of a four-cube chain in turn and read
the round-trip latency.  The paper's companion NoC study shows remote
latency growing linearly with hop distance; here every hop adds one
pass-through traversal in each direction, so the per-cube latencies
must be strictly monotone and the increments must match the calibrated
per-hop round-trip cost.

Claims that must reproduce:

* latency grows strictly monotonically with hop count;
* successive increments are near-equal (linear in hops) and sit near
  the analytic per-hop round-trip: request-hop + response-hop, each
  ``serialization + propagation + pass-through switch``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.core.experiment import ExperimentSettings, MeasurementPoint
from repro.core.parallel import get_executor
from repro.core.report import render_table
from repro.hmc.address import CubeMapping
from repro.hmc.packet import (
    RequestType,
    packet_bytes,
    request_flits,
    response_flits,
)
from repro.topology.spec import TopologySpec

NUM_CUBES = 4
PAYLOAD_BYTES = 32


@dataclass(frozen=True)
class HopLatency:
    """Latency of low-load reads pinned onto one cube of the chain."""

    cube: int
    hops: int
    read_latency_avg_ns: float
    bandwidth_gbs: float


@dataclass(frozen=True)
class NetHopResult:
    """Per-cube latencies plus the analytic per-hop round-trip cost."""

    points: Tuple[HopLatency, ...]
    expected_hop_ns: float

    @property
    def increments_ns(self) -> Tuple[float, ...]:
        """Measured latency added by each successive hop."""
        latencies = [p.read_latency_avg_ns for p in self.points]
        return tuple(b - a for a, b in zip(latencies, latencies[1:]))


def expected_hop_round_trip_ns(settings: ExperimentSettings) -> float:
    """Analytic latency one chain hop adds to a read's round trip."""
    cal = settings.calibration
    req = packet_bytes(request_flits(False, PAYLOAD_BYTES))
    resp = packet_bytes(response_flits(False, PAYLOAD_BYTES))
    return cal.cube_hop_latency_ns(req) + cal.cube_hop_latency_ns(resp)


def measurement_points(
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[MeasurementPoint]:
    """One low-load read point pinned onto each cube of the chain."""
    topo_settings = replace(
        settings, topology=TopologySpec("chain", NUM_CUBES, "contiguous")
    )
    mapping = CubeMapping(NUM_CUBES, settings.config.capacity_bytes)
    return [
        MeasurementPoint(
            mask=mapping.cube_mask(cube),
            request_type=RequestType.READ,
            payload_bytes=PAYLOAD_BYTES,
            active_ports=1,
            settings=topo_settings,
            pattern_name=f"chain cube {cube}",
        )
        for cube in range(NUM_CUBES)
    ]


def run(settings: ExperimentSettings = ExperimentSettings()) -> NetHopResult:
    measurements = get_executor().measure_points(measurement_points(settings))
    points = tuple(
        HopLatency(
            cube=cube,
            hops=cube,
            read_latency_avg_ns=m.read_latency_avg_ns,
            bandwidth_gbs=m.bandwidth_gbs,
        )
        for cube, m in enumerate(measurements)
    )
    return NetHopResult(
        points=points, expected_hop_ns=expected_hop_round_trip_ns(settings)
    )


def check_shape(
    result: NetHopResult, settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    problems = []
    latencies = [p.read_latency_avg_ns for p in result.points]
    if any(b <= a for a, b in zip(latencies, latencies[1:])):
        problems.append(f"latency not strictly monotone in hops: {latencies}")
    for hop, step in enumerate(result.increments_ns, start=1):
        if not 0.5 * result.expected_hop_ns <= step <= 1.5 * result.expected_hop_ns:
            problems.append(
                f"hop {hop} adds {step:.1f} ns, expected ~{result.expected_hop_ns:.1f}"
            )
    return problems


def report(
    result: NetHopResult, problems: List[str], settings: ExperimentSettings
) -> str:
    rows = [
        [
            str(p.cube),
            str(p.hops),
            f"{p.read_latency_avg_ns:.1f}",
            f"{step:+.1f}" if step is not None else "-",
        ]
        for p, step in zip(result.points, (None,) + result.increments_ns)
    ]
    text = render_table(
        ("Cube", "Hops", "Read latency (ns)", "Delta (ns)"),
        rows,
        title=f"Chain-{NUM_CUBES} hop latency, {PAYLOAD_BYTES} B low-load reads",
    )
    text += (
        f"\nLinear in hops: each hop adds ~{result.expected_hop_ns:.0f} ns "
        "(request + response pass-through round-trip)."
        if not problems
        else "\nShape deviations: " + "; ".join(problems)
    )
    return text
