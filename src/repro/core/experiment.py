"""Experiment runners: the paper's measurement protocol on the simulator.

The hardware protocol (§III-B) is: configure the ports (type, size,
mask, addressing mode), let the workload run, then read the hardware
counters - 20 s for bandwidth, 200 s for thermal runs.  The simulated
equivalent runs a short warm-up to reach the closed-loop steady state,
opens the measurement window, and reads the same counters; thermal and
power outcomes are then solved from the measured bandwidth through the
RC thermal model instead of simulating 200 s of wall-clock.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.patterns import AccessPattern
from repro.core.profile import read_stations
from repro.fpga.board import AC510Board
from repro.fpga.gups import PortConfig
from repro.fpga.stream import StreamResult
from repro.fpga.address_gen import AddressingMode
from repro.hmc.address import AddressMask
from repro.hmc.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hmc.config import HMCConfig, HMC_1_1_4GB
from repro.hmc.packet import RequestType
from repro.obs import trace as obs_trace
from repro.power.model import (
    OperatingPoint,
    WRITE_FRACTION,
    solve_operating_point,
)
from repro.thermal.cooling import CoolingConfig
from repro.thermal.model import ThermalModel, ThermalReading
from repro.topology.spec import TopologySpec


#: Legal values of :attr:`ExperimentSettings.kernel`.
VALID_KERNELS = ("des", "vector")


@dataclass(frozen=True)
class ExperimentSettings:
    """Simulation-window and device settings shared by experiments.

    ``topology`` selects a multi-cube network (``None`` means the plain
    single-device board); it rides through the cache key and the wire
    schema so topology-keyed results coexist with single-cube ones.

    ``kernel`` selects the simulation kernel for the measurement window:
    ``"des"`` (the default) is the event-by-event engine; ``"vector"``
    attempts the vectorized probe kernel (:mod:`repro.sim.vectorprobe`),
    which runs a short DES calibration and advances the rest of the
    window from a certified regression model, falling back to the DES
    whenever the configuration, the window length or the calibration
    fails certification.  Like ``topology``, the kernel rides through
    the cache key (vector results are keyed separately) and the wire
    schema.

    ``device`` names the memory backend (:mod:`repro.devices`) that
    boards and cube networks construct; ``"hmc1"`` is the registry name
    of the pre-existing model, so defaulted settings are bit-identical
    to pre-device-zoo payloads and cache keys.  Note ``config`` and
    ``calibration`` still carry the actual tables - ``device`` decides
    the device *class* and is the name recorded in wire payloads; use
    :meth:`repro.devices.base.DeviceProfile.apply` to switch all three
    coherently.
    """

    config: HMCConfig = HMC_1_1_4GB
    calibration: Calibration = DEFAULT_CALIBRATION
    warmup_us: float = 30.0
    window_us: float = 120.0
    max_block_bytes: int = 128
    topology: Optional[TopologySpec] = None
    kernel: str = "des"
    device: str = "hmc1"

    def __post_init__(self) -> None:
        # A NaN window never closes (every ``time > bound`` test in the
        # engine is false), and a non-positive one measures nothing.
        if not 0.0 <= self.warmup_us < math.inf:
            raise ValueError(
                f"warmup_us must be finite and >= 0, got {self.warmup_us!r}"
            )
        if not 0.0 < self.window_us < math.inf:
            raise ValueError(
                f"window_us must be finite and > 0, got {self.window_us!r}"
            )
        if self.kernel not in VALID_KERNELS:
            raise ValueError(
                f"kernel must be one of {VALID_KERNELS}, got {self.kernel!r}"
            )
        if self.device != "hmc1":
            # Deferred import: repro.devices imports device modules that
            # themselves build ExperimentSettings-free machinery, but the
            # common default path should not pay the package import.
            from repro.devices.registry import validate_device_name

            validate_device_name(self.device)

    def scaled(self, factor: float) -> "ExperimentSettings":
        """Shrink/grow both windows (tests use small factors)."""
        return replace(
            self, warmup_us=self.warmup_us * factor, window_us=self.window_us * factor
        )

    def to_dict(self) -> dict:
        """Wire-schema payload (see :mod:`repro.core.schema`)."""
        from repro.core import schema

        return schema.settings_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSettings":
        """Decode a wire-schema payload produced by :meth:`to_dict`."""
        from repro.core import schema

        return schema.settings_from_dict(payload)


@dataclass(frozen=True)
class BandwidthMeasurement:
    """Counters read back after one bandwidth experiment."""

    pattern_name: str
    request_type: RequestType
    payload_bytes: int
    mode: AddressingMode
    active_ports: int
    bandwidth_gbs: float
    mrps: float
    reads_completed: int
    writes_completed: int
    read_latency_avg_ns: float
    read_latency_min_ns: float
    read_latency_max_ns: float
    write_latency_avg_ns: float
    window_ns: float

    @property
    def total_completed(self) -> int:
        return self.reads_completed + self.writes_completed

    @property
    def write_fraction(self) -> float:
        total = self.total_completed
        return self.writes_completed / total if total else 0.0

    @property
    def read_latency_avg_us(self) -> float:
        return self.read_latency_avg_ns / 1e3

    def to_dict(self) -> dict:
        """Wire-schema payload (see :mod:`repro.core.schema`)."""
        from repro.core import schema

        return schema.measurement_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "BandwidthMeasurement":
        """Decode a wire-schema payload produced by :meth:`to_dict`."""
        from repro.core import schema

        return schema.measurement_from_dict(payload)


def parity_errors(reference, other) -> Dict[str, float]:
    """Relative error of ``other`` against ``reference`` per headline metric.

    The headline metrics are the ones an accelerated kernel is held to
    against the DES: bandwidth, MRPS and mean read and write latency.
    NaN-aware: a metric absent on both sides (write latency of a
    read-only workload) is zero error; present on only one side is an
    infinite error - the two runs disagree about what even happened.
    """
    errors = {}
    for name in (
        "bandwidth_gbs",
        "mrps",
        "read_latency_avg_ns",
        "write_latency_avg_ns",
    ):
        base = getattr(reference, name)
        value = getattr(other, name)
        if math.isnan(base) and math.isnan(value):
            errors[name] = 0.0
        elif math.isnan(base) or math.isnan(value):
            errors[name] = math.inf
        elif base == 0.0:
            errors[name] = abs(value)
        else:
            errors[name] = abs(value - base) / abs(base)
    return errors


@dataclass(frozen=True)
class MeasurementPoint:
    """The complete input description of one bandwidth simulation.

    This is the executor's and the result cache's unit of work: two
    points with equal fields (under equal settings) are guaranteed to
    produce identical :class:`BandwidthMeasurement` values, which is
    what makes deduplication and content-addressed caching sound.
    """

    mask: AddressMask = AddressMask()
    request_type: RequestType = RequestType.READ
    payload_bytes: int = 128
    mode: AddressingMode = AddressingMode.RANDOM
    active_ports: Optional[int] = None
    settings: ExperimentSettings = ExperimentSettings()
    pattern_name: str = ""
    seed: int = 1

    @classmethod
    def for_pattern(
        cls,
        pattern: AccessPattern,
        request_type: RequestType = RequestType.READ,
        payload_bytes: int = 128,
        settings: ExperimentSettings = ExperimentSettings(),
        mode: AddressingMode = AddressingMode.RANDOM,
        active_ports: Optional[int] = None,
    ) -> "MeasurementPoint":
        """Build the point for a named :class:`AccessPattern` slice."""
        return cls(
            mask=pattern.mask,
            request_type=request_type,
            payload_bytes=payload_bytes,
            mode=mode,
            active_ports=active_ports,
            settings=settings,
            pattern_name=pattern.name,
        )

    def to_dict(self) -> dict:
        """Wire-schema payload (see :mod:`repro.core.schema`)."""
        from repro.core import schema

        return schema.point_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "MeasurementPoint":
        """Decode a wire-schema payload produced by :meth:`to_dict`."""
        from repro.core import schema

        return schema.point_from_dict(payload)


def simulate_point(point: MeasurementPoint) -> Tuple[BandwidthMeasurement, int]:
    """Run one GUPS experiment; returns (measurement, events simulated).

    This is the executor's worker function: it always simulates, never
    consults any cache.  The event count feeds the benchmark harness's
    events/second figure; when the vector kernel advances the window
    (``settings.kernel == "vector"``), the count is the DES-equivalent
    figure - events actually run plus the events the model tail would
    have cost the event-by-event engine.

    When process-wide trace sampling is configured (in process via
    :func:`repro.obs.trace.configure` or through the
    ``REPRO_TRACE_SAMPLE`` environment variable, which also reaches
    forked pool workers), sampled transactions are traced into the
    process-wide span store; the measurement itself is bit-identical
    either way.
    """
    return _run_point(point, obs_trace.tracer_for_run())


def simulate_point_traced(
    point: MeasurementPoint,
    sample: int = 1,
    capacity: int = 100_000,
    observer: Optional[dict] = None,
) -> Tuple[BandwidthMeasurement, "obs_trace.Tracer"]:
    """Run one GUPS experiment with lifecycle tracing on.

    Every ``sample``-th submitted transaction carries a
    :class:`~repro.obs.trace.TraceContext`; the returned tracer holds
    up to ``capacity`` finished spans for export
    (:mod:`repro.obs.export`).  The measurement is bit-identical to
    :func:`simulate_point` - tracing only reads the clock at stations
    the request crosses anyway.  An ``observer`` dict is filled as by
    :func:`simulate_point_observed`, so the traced run's own station
    summary can check its trace.
    """
    tracer = obs_trace.Tracer(sample=sample, capacity=capacity)
    measurement, _events = _run_point(point, tracer, observer=observer)
    return measurement, tracer


def simulate_point_observed(
    point: MeasurementPoint,
) -> Tuple[BandwidthMeasurement, dict]:
    """Like :func:`simulate_point`, plus kernel/timing observability.

    The returned info dict carries ``kernel`` (the kernel that actually
    advanced the window: ``"des"`` or ``"vector"``), ``window_wall_s``
    (wall-clock seconds spent advancing the measurement window),
    ``events`` (engine events actually processed), ``events_equivalent``
    (events the pure DES would have processed over the same window),
    ``reason`` (why the vector kernel was not used, when it was not), and
    ``stations`` (the :class:`~repro.core.profile.StationSummary` read
    from the same board after the window, under either kernel).  The
    kernel benchmark and the parity suite are the consumers.
    """
    info: dict = {}
    measurement, _events = _run_point(point, obs_trace.tracer_for_run(), observer=info)
    return measurement, info


def simulate_point_hinted(
    point: MeasurementPoint,
) -> Tuple[BandwidthMeasurement, int, dict]:
    """:func:`simulate_point`'s pair plus :func:`simulate_point_observed`'s info.

    Nothing in the package calls this: it is kept by name for benchmark
    harnesses that look it up.  Vector windows take no hints; every
    point calibrates from its own warm-up.
    """
    info: dict = {}
    measurement, events = _run_point(point, obs_trace.tracer_for_run(), observer=info)
    return measurement, events, info


def simulate_vector_group(
    points: List[MeasurementPoint],
) -> List[Tuple[BandwidthMeasurement, int]]:
    """:func:`simulate_point` over ``points``, in order.

    Nothing in the package calls this: it is kept by name for benchmark
    harnesses that look it up.  A point's result never depends on the
    points run with it.
    """
    return [simulate_point(point) for point in points]


def _run_point(
    point: MeasurementPoint,
    tracer: Optional["obs_trace.Tracer"],
    observer: Optional[dict] = None,
) -> Tuple[BandwidthMeasurement, int]:
    """The shared warm-up/window protocol behind both entry points."""
    import time as _time

    # A finished board is a web of reference cycles (its stations hold
    # each other's bound methods), so only the cyclic collector frees
    # it.  The station path allocates almost nothing that outlives an
    # event, so the collector's own passes come rarely and dead boards
    # would pile up over a sweep.  A young-generation pass (well under
    # a millisecond) frees the previous point's board while it is young.
    gc.collect(1)
    settings = point.settings
    board = AC510Board(
        config=settings.config,
        calibration=settings.calibration,
        max_block_bytes=settings.max_block_bytes,
        topology=settings.topology,
        device=settings.device,
    )
    gups = board.load_gups(
        PortConfig(
            request_type=point.request_type,
            payload_bytes=point.payload_bytes,
            mode=point.mode,
            mask=point.mask,
            seed=point.seed,
        ),
        active_ports=point.active_ports,
    )
    if tracer is not None:
        board.controller.tracer = tracer
    gups.start()
    sim = board.sim
    warmup_ns = settings.warmup_us * 1e3
    window_ns = settings.window_us * 1e3
    sim.run(until=warmup_ns)

    kernel_used = "des"
    reason = ""
    events = 0
    events_equivalent = 0
    probe_wall_s = 0.0
    tail_wall_s = 0.0
    # The span the station counters cover: a certified vector window
    # simulated only its probe and advanced the rest from its model.
    stations_ns = window_ns
    eligible = False
    if settings.kernel == "vector":
        from repro.sim import vectorprobe as vector_kernel

        eligible, reason = vector_kernel.static_eligibility(board, tracer)
        if eligible and not vector_kernel.window_allows(settings):
            eligible, reason = False, "window too short for vector calibration"

    if eligible:
        outcome = vector_kernel.run_window(board, window_ns)
        kernel_used = "vector" if outcome.used_vector else "des"
        reason = outcome.reason
        window_wall_s = outcome.window_wall_s
        probe_wall_s = outcome.probe_wall_s
        tail_wall_s = outcome.tail_wall_s
        events = outcome.events
        events_equivalent = outcome.events_equivalent
        stations_ns = outcome.simulated_ns
    else:
        board.controller.begin_measurement()
        events_at_window_start = sim.events_processed
        wall_start = _time.perf_counter()
        sim.run(until=warmup_ns + window_ns)
        window_wall_s = _time.perf_counter() - wall_start
        board.controller.end_measurement()
        # Window-scoped (warmup excluded) so the vector kernel's advance
        # ratio - events_equivalent / events - measures the *window*.
        events = sim.events_processed - events_at_window_start
        events_equivalent = events
    gups.stop()

    if observer is not None:
        observer.update(
            kernel=kernel_used,
            reason=reason,
            window_wall_s=window_wall_s,
            probe_wall_s=probe_wall_s,
            tail_wall_s=tail_wall_s,
            events=events,
            events_equivalent=events_equivalent,
            stations=read_stations(board, stations_ns),
        )

    controller = board.controller
    reads = controller.read_latency.stats
    writes = controller.write_latency.stats
    measurement = BandwidthMeasurement(
        pattern_name=point.pattern_name,
        request_type=point.request_type,
        payload_bytes=point.payload_bytes,
        mode=point.mode,
        active_ports=gups.active_ports,
        bandwidth_gbs=controller.bandwidth_gbs,
        mrps=controller.mrps,
        reads_completed=controller.reads_completed_in_window,
        writes_completed=controller.writes_completed_in_window,
        read_latency_avg_ns=reads.mean if reads.count else math.nan,
        read_latency_min_ns=reads.minimum if reads.count else math.nan,
        read_latency_max_ns=reads.maximum if reads.count else math.nan,
        write_latency_avg_ns=writes.mean if writes.count else math.nan,
        window_ns=controller.traffic.window_ns,
    )
    return measurement, events_equivalent


def measure_bandwidth(
    mask: AddressMask = AddressMask(),
    request_type: RequestType = RequestType.READ,
    payload_bytes: int = 128,
    mode: AddressingMode = AddressingMode.RANDOM,
    active_ports: Optional[int] = None,
    settings: ExperimentSettings = ExperimentSettings(),
    pattern_name: str = "",
    seed: int = 1,
) -> BandwidthMeasurement:
    """Run one full-/small-scale GUPS experiment and read the counters."""
    point = MeasurementPoint(
        mask=mask,
        request_type=request_type,
        payload_bytes=payload_bytes,
        mode=mode,
        active_ports=active_ports,
        settings=settings,
        pattern_name=pattern_name,
        seed=seed,
    )
    return simulate_point(point)[0]


def measure_pattern(
    pattern: AccessPattern,
    request_type: RequestType = RequestType.READ,
    payload_bytes: int = 128,
    settings: ExperimentSettings = ExperimentSettings(),
    mode: AddressingMode = AddressingMode.RANDOM,
    active_ports: Optional[int] = None,
) -> BandwidthMeasurement:
    """Convenience wrapper taking an :class:`AccessPattern`."""
    return measure_bandwidth(
        mask=pattern.mask,
        request_type=request_type,
        payload_bytes=payload_bytes,
        mode=mode,
        active_ports=active_ports,
        settings=settings,
        pattern_name=pattern.name,
    )


def measure_bandwidth_cached(
    pattern: AccessPattern,
    request_type: RequestType = RequestType.READ,
    payload_bytes: int = 128,
    settings: ExperimentSettings = ExperimentSettings(),
    mode: AddressingMode = AddressingMode.RANDOM,
    active_ports: Optional[int] = None,
) -> BandwidthMeasurement:
    """Cached :func:`measure_pattern` via the measurement executor.

    The thermal/power/regression experiments (Figs. 9-12) reuse the
    bandwidth profiles of Fig. 7; the executor's in-process memo and
    on-disk result cache keep a full campaign run from re-simulating
    identical workloads - across experiments and across runs.
    """
    from repro.core.parallel import get_executor

    return get_executor().measure_point(
        MeasurementPoint.for_pattern(
            pattern,
            request_type=request_type,
            payload_bytes=payload_bytes,
            settings=settings,
            mode=mode,
            active_ports=active_ports,
        )
    )


# ----------------------------------------------------------------------
# latency-bandwidth sweeps (small-scale GUPS; Figs. 17-18)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LatencySweepPoint:
    """One (offered load, latency) sample from small-scale GUPS."""

    active_ports: int
    bandwidth_gbs: float
    mrps: float
    read_latency_avg_ns: float

    @property
    def read_latency_avg_us(self) -> float:
        return self.read_latency_avg_ns / 1e3


def run_latency_sweep(
    pattern: AccessPattern,
    payload_bytes: int,
    settings: ExperimentSettings = ExperimentSettings(),
    request_type: RequestType = RequestType.READ,
    port_counts: Optional[Tuple[int, ...]] = None,
) -> List[LatencySweepPoint]:
    """Tune request rate via the number of active ports (§III-B).

    The whole port sweep is submitted to the measurement executor as one
    batch, so uncached sweep points simulate in parallel.
    """
    from repro.core.parallel import get_executor

    counts = port_counts or tuple(range(1, settings.calibration.gups_ports + 1))
    batch = [
        MeasurementPoint.for_pattern(
            pattern,
            request_type=request_type,
            payload_bytes=payload_bytes,
            settings=settings,
            active_ports=ports,
        )
        for ports in counts
    ]
    measurements = get_executor().measure_points(batch)
    return [
        LatencySweepPoint(
            active_ports=ports,
            bandwidth_gbs=measurement.bandwidth_gbs,
            mrps=measurement.mrps,
            read_latency_avg_ns=measurement.read_latency_avg_ns,
        )
        for ports, measurement in zip(counts, measurements)
    ]


# ----------------------------------------------------------------------
# stream (low-load) latency, Fig. 15
# ----------------------------------------------------------------------
def run_stream_latency(
    num_requests: int,
    payload_bytes: int,
    settings: ExperimentSettings = ExperimentSettings(),
    trials: int = 8,
    seed: int = 7,
) -> StreamResult:
    """Average several independent low-load streams of reads.

    Each trial uses a fresh board (the hardware equivalent: the stream
    fully drains between groups) and fresh random addresses.
    """
    import random

    rng = random.Random(seed)
    avg_acc = 0.0
    min_acc = math.inf
    max_acc = -math.inf
    for _ in range(trials):
        board = AC510Board(
            config=settings.config,
            calibration=settings.calibration,
            max_block_bytes=settings.max_block_bytes,
            device=settings.device,
        )
        stream = board.load_stream_gups()
        slots = settings.config.capacity_bytes // payload_bytes
        addresses = [rng.randrange(slots) * payload_bytes for _ in range(num_requests)]
        result = stream.run_read_stream(num_requests, payload_bytes, addresses)
        avg_acc += result.avg_ns
        min_acc = min(min_acc, result.min_ns)
        max_acc = max(max_acc, result.max_ns)
    return StreamResult(
        num_requests=num_requests,
        payload_bytes=payload_bytes,
        avg_ns=avg_acc / trials,
        min_ns=min_acc,
        max_ns=max_acc,
    )


# ----------------------------------------------------------------------
# thermal/power runs (Figs. 9-10 and the failure study)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ThermalRunResult:
    """Outcome of one 200 s thermal experiment."""

    measurement: BandwidthMeasurement
    operating_point: OperatingPoint
    readings: Tuple[ThermalReading, ...] = field(default=())

    @property
    def failed(self) -> bool:
        return not self.operating_point.thermally_safe


def run_thermal_experiment(
    pattern: AccessPattern,
    request_type: RequestType,
    cooling: CoolingConfig,
    payload_bytes: int = 128,
    settings: ExperimentSettings = ExperimentSettings(),
    duration_s: float = 200.0,
    reading_interval_s: float = 20.0,
) -> ThermalRunResult:
    """Measure bandwidth, then solve the thermal/power steady state.

    Returns the camera readings over the run (first-order transient) and
    the operating point; ``failed`` mirrors the paper's §IV-C failure
    criterion (the caller decides whether to raise).
    """
    measurement = measure_bandwidth_cached(
        pattern,
        request_type=request_type,
        payload_bytes=payload_bytes,
        settings=settings,
    )
    point = solve_operating_point(
        cooling,
        request_type,
        measurement.bandwidth_gbs,
        calibration=settings.calibration,
        write_fraction=WRITE_FRACTION[request_type],
    )
    thermal = ThermalModel(cooling, settings.calibration)
    steps = int(duration_s / reading_interval_s) + 1
    readings = tuple(
        thermal.camera_reading(i * reading_interval_s, point.activity_power_w)
        for i in range(steps)
    )
    return ThermalRunResult(
        measurement=measurement, operating_point=point, readings=readings
    )
