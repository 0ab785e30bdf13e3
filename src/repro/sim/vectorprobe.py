"""Vectorized probe kernel: steady-state window advancement.

The paper's measurement protocol is steady-state by construction: warm
up the closed loop, then read counters over a long stationary window
(§III-B).  The event engine would spend most of a campaign replaying
the same stationary completion stream chunk after chunk.  This kernel
runs a short DES *calibration* prefix (3 of 48 window chunks), fits the
stationary completion stream with array operations, and advances the
rest of the window from the fitted model:

* **Rate** - the slope of a least-squares regression of completion
  index against completion time over the calibration span.  The
  regression uses every completion record, so it converges much faster
  than per-chunk counting (worst-case 0.04% rate error at 2 span
  chunks, validated against full-window DES runs on the bench suite).
* **Latency** - Little's law.  The closed-loop in-flight population
  ``N`` is pinned by the flow-control threshold and the tag pools, so
  it is *exactly* constant in steady state; ``W = N / rate`` recovers
  the steady-state latency without waiting for per-chunk latency means
  to converge (worst-case 0.03% error on the suite).
* **Stations** - not advanced.  The tail moves only the controller's
  counters; every station's busy, packet and watermark counters stay
  as the engine left them at the probe's end, so a certified window's
  station utilizations are read over the :data:`PROBE_CHUNKS` chunks
  the engine simulated (:attr:`VectorOutcome.simulated_ns`).  The
  bottleneck they name is checked against the event-by-event run by
  ``repro bench`` (the AGREES cross-check).

The kernel never guesses: correctness is gated three ways.

1. **Static eligibility** (:func:`static_eligibility`) - configurations
   the kernel does not model (multi-cube topologies, fault injection,
   active tracing, refresh) route to the event-by-event
   :class:`~repro.sim.engine.Simulator` before the window even starts,
   and so do windows shorter than :data:`MIN_WINDOW_US`.
2. **Dynamic certification** - four checks on the calibration, in
   this order; the first that fails falls back.

   * a **minimum span population** (:data:`MIN_SPAN_RECORDS`) so the
     regression never runs on a handful of records, and a positive
     fitted rate and in-flight population.
   * a **latency estimator agreement check**: Little's law and the
     span's completion-sampled mean estimate the same steady-state
     latency through independent mechanisms; disagreement beyond
     :data:`LATENCY_AGREEMENT_TOLERANCE` flags periodic structure the
     span cannot average (single-vault refresh beats, read-modify-write
     oscillation).
   * a **service-model capacity check** built from the construction-time
     delay tables (per-link TX/RX service times and flit costs,
     per-vault command spacing).  The fitted rate may not exceed what
     the tables permit; a regression gone wrong cannot certify.
   * a **stationarity certificate** (:func:`_certify`) over per-chunk
     completion counts and latency means.  The kernel appends
     :data:`MODEL_CHUNKS` synthetic chunks (the fitted line's
     integer-floored counts, the Little's-law latency) to the observed
     calibration chunks; the trailing :data:`CERT_CHUNKS` - the last
     *observed* chunk next to the model chunks - must show bounded
     spread of counts and latency means, bounded split-half drift and
     a bounded linear trend (:class:`~repro.core.regression.LinearFit`).
     This is a model-versus-engine cross-validation: a fitted rate or
     latency that disagrees with what the engine did in its last chunk
     trips the spread/drift thresholds.
3. **Parity acceptance** - ``repro bench --check`` and
   the kernel-parity test suite assert bandwidth/MRPS/latency within
   0.1% of the DES on the certified suite.

A failed certificate falls back to the DES for the remainder of the
window - bit-identical to never having tried, since the calibration
prefix ran exactly the events the DES would have (chunked
``run(until=...)`` calls are equivalent to one by the engine contract).

One point, one window
---------------------
Every window calibrates cold from its own warm-up: no state crosses
points, so a point's result is the same whatever batch, order or worker
runs it, as the content-addressed result cache assumes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - numpy is a core dependency
    raise ImportError(
        "the vector kernel needs numpy (declared in pyproject.toml); "
        "install the project dependencies or run with --kernel des"
    ) from exc

from repro.core.regression import LinearFit
from repro.hmc.packet import FLIT_BYTES, OVERHEAD_FLITS
from repro.sim.stats import OnlineStats

#: Window partitioning: every measurement window is TOTAL_CHUNKS chunks.
#: The probe keeps one transient guard chunk before the regression span
#: (the first window chunk carries a ~1% completion-rate transient even
#: after warm-up).
TOTAL_CHUNKS = 48
PROBE_CHUNKS = 3
SPAN_CHUNKS = 2

#: Certification reads the trailing CERT_CHUNKS per-chunk rows; the
#: MODEL_CHUNKS synthetic rows appended to the observed calibration
#: chunks make that window the last observed chunk plus the six model
#: chunks.
CERT_CHUNKS = 7
MODEL_CHUNKS = CERT_CHUNKS - 1

#: Certification thresholds (relative).  Calibrated so every stationary
#: configuration in the bench suite passes with ~2x margin while the
#: known non-stationary ones (write-linear beat patterns, read-modify-
#: write oscillation) fail with >=2x margin.
MAX_EVENT_SPREAD = 0.04
MAX_LATENCY_SPREAD = 0.015
MAX_SPLIT_DRIFT = 0.008
MAX_TREND_DRIFT = 0.02

#: The regression needs a real population; fewer span completions than
#: this falls back to the DES ("probe too sparse").
MIN_SPAN_RECORDS = 64

#: The fitted rate may exceed the service-model capacity bound by at
#: most this factor (the bound is loose - it sums per-station capacity
#: without modelling contention - so any excess means a broken fit).
CAPACITY_HEADROOM = 1.05

#: Little's-law latency (pinned population / fitted rate) and the span's
#: completion-sampled mean latency estimate the *same* steady-state
#: quantity through independent mechanisms; on a stationary stream they
#: agree to ~0.1%.  Periodic structure the 2-chunk span cannot average -
#: single-vault refresh beats, for example - biases the two estimators
#: differently, so disagreement beyond this tolerance means the window
#: is not modellable at the parity budget and falls back to the DES
#: (measured: <=0.104% on certifiable points, >=0.76% where the model
#: would miss the 0.1% parity budget).
LATENCY_AGREEMENT_TOLERANCE = 0.0025

#: Static window-length floor.  Short (``--fast``-style) windows are
#: still converging when the 3-chunk calibration ends, and the synthetic
#: model chunks are self-consistent by construction, so they cannot
#: observe drift that happens after the probe.  Grid validation shows up
#: to ~2% systematic rate error on 40 us windows versus <=0.03% at the
#: full 120 us, so shorter windows fall back statically to the DES.
MIN_WINDOW_US = 60.0


def window_allows(settings) -> bool:
    """Static window-length gate."""
    return settings.window_us >= MIN_WINDOW_US


class CompletionRecorder:
    """Per-completion record buffer the controller fills during a probe.

    Attached as ``controller.recorder`` (same None-guard discipline as
    the tracer hook): one list append per completion, converted to numpy
    arrays once at extrapolation time.
    """

    __slots__ = ("times", "latencies", "writes", "nbytes")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.latencies: List[float] = []
        self.writes: List[bool] = []
        self.nbytes: List[int] = []

    def record(self, now: float, request) -> None:
        self.times.append(now)
        self.latencies.append(request.latency_ns)
        self.writes.append(request.is_write)
        self.nbytes.append(request.raw_bytes)

    def __len__(self) -> int:
        return len(self.times)

    def arrays(self) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
        return (
            np.asarray(self.times, dtype=float),
            np.asarray(self.latencies, dtype=float),
            np.asarray(self.writes, dtype=bool),
            np.asarray(self.nbytes, dtype=np.int64),
        )


@dataclass(frozen=True)
class Certification:
    """Outcome of the dynamic stationarity check."""

    certified: bool
    reason: str
    event_spread: float = math.nan
    latency_spread: float = math.nan
    split_drift: float = math.nan
    trend_drift: float = math.nan


@dataclass(frozen=True)
class VectorOutcome:
    """What one vectorized window advancement did and what it cost.

    ``events_equivalent`` counts the engine events the pure DES would
    have processed over the same window (actual probe events plus the
    span's event count scaled across the model tail).  Both event counts
    are window-scoped (warm-up excluded), so ``events_equivalent /
    events`` is the window advance ratio.  ``simulated_ns`` is the part
    of the window the engine simulated and the station counters cover:
    the probe for a certified window, the whole window otherwise.
    """

    used_vector: bool
    reason: str
    window_wall_s: float
    events: int
    events_equivalent: int
    simulated_ns: float
    probe_wall_s: float = 0.0
    tail_wall_s: float = 0.0
    certification: Optional[Certification] = None
    diagnostics: dict = field(default_factory=dict)


def static_eligibility(board, tracer=None) -> Tuple[bool, str]:
    """Whether this board/run shape is one the kernel certifies at all.

    Anything the model advancement does not model - topology hops, link
    fault injection, periodic refresh, active lifecycle tracing - routes
    to the event-by-event engine.
    """
    if tracer is not None or board.controller.tracer is not None:
        return False, "tracing"
    if getattr(board, "network", None) is not None:
        return False, "topology"
    if board.controller.fault_model is not None:
        return False, "faults"
    if getattr(board.device, "refresh", None) is not None:
        return False, "refresh"
    return True, ""


def _relative_spread(values: "np.ndarray") -> float:
    mean = float(values.mean())
    if not mean:
        return math.inf
    return float(values.max() - values.min()) / abs(mean)


def _certify(
    chunk_events: "np.ndarray", chunk_latency_means: "np.ndarray"
) -> Certification:
    """Stationarity certificate over the trailing CERT_CHUNKS chunks."""
    events = chunk_events[-CERT_CHUNKS:].astype(float)
    latencies = chunk_latency_means[-CERT_CHUNKS:]
    if not events.all():
        return Certification(False, "empty probe chunk")
    if np.isnan(latencies).any():
        return Certification(False, "chunk without completions")

    event_spread = _relative_spread(events)
    latency_spread = _relative_spread(latencies)
    half = CERT_CHUNKS // 2
    split_drift = max(
        abs(float(events[:half].mean() - events[-half:].mean())) / float(events.mean()),
        abs(float(latencies[:half].mean() - latencies[-half:].mean()))
        / float(latencies.mean()),
    )
    trend = LinearFit.fit_indexed(events.tolist())
    trend_drift = abs(trend.rise_over(0, CERT_CHUNKS - 1)) / float(events.mean())

    metrics = dict(
        event_spread=event_spread,
        latency_spread=latency_spread,
        split_drift=split_drift,
        trend_drift=trend_drift,
    )
    checks = (
        (event_spread <= MAX_EVENT_SPREAD, "completion-rate spread"),
        (latency_spread <= MAX_LATENCY_SPREAD, "latency spread"),
        (split_drift <= MAX_SPLIT_DRIFT, "split-half drift"),
        (trend_drift <= MAX_TREND_DRIFT, "completion-rate trend"),
    )
    for passed, label in checks:
        if not passed:
            return Certification(False, f"non-stationary {label}", **metrics)
    return Certification(True, "", **metrics)


# ----------------------------------------------------------------------
# service model from the construction-time delay tables
# ----------------------------------------------------------------------
def service_arrays(board) -> dict:
    """Per-station service parameters as numpy arrays.

    Everything here was fixed at board construction from the calibration
    tables (PR 4's delay tables): per-link serialization rates and
    packet overheads for both directions, and the per-vault command
    spacing.  The kernel uses them to bound the fitted completion rate.
    """
    links = board.device.links
    return {
        "tx_bytes_per_ns": np.asarray([l.tx.bytes_per_ns for l in links]),
        "tx_overhead_ns": np.asarray([l.tx.packet_overhead_ns for l in links]),
        "rx_bytes_per_ns": np.asarray([l.rx.bytes_per_ns for l in links]),
        "rx_overhead_ns": np.asarray([l.rx.packet_overhead_ns for l in links]),
        "command_overhead_ns": np.asarray(
            [v.command.packet_overhead_ns for v in board.device.vaults]
        ),
    }


def capacity_per_ns(
    service: dict, request_bytes_mean: float, response_bytes_mean: float
) -> float:
    """Upper bound on sustainable completions/ns from the delay tables.

    Sums each direction's per-link service capacity for the observed
    mean packet sizes and the vaults' command-issue capacity, and takes
    the binding direction.  Deliberately loose (no queueing, no token
    economy): its only job is to catch a regression slope that claims
    more throughput than the hardware tables could ever serve.
    """
    tx_service = service["tx_overhead_ns"] + request_bytes_mean / service[
        "tx_bytes_per_ns"
    ]
    rx_service = service["rx_overhead_ns"] + response_bytes_mean / service[
        "rx_bytes_per_ns"
    ]
    cap_tx = float((1.0 / tx_service).sum())
    cap_rx = float((1.0 / rx_service).sum())
    cap_cmd = float((1.0 / service["command_overhead_ns"]).sum())
    return min(cap_tx, cap_rx, cap_cmd)


# ----------------------------------------------------------------------
# model advancement
# ----------------------------------------------------------------------
def advance_cumulative(
    rate: float, intercept: float, rel_edges_ns: "np.ndarray"
) -> "np.ndarray":
    """Per-chunk completion counts of the fitted line.

    ``rate``/``intercept`` fit completions against nanoseconds since the
    span start; ``rel_edges_ns`` is ``(chunks + 1,)`` chunk-edge offsets
    from the span start.  The cumulative fitted count is floored at
    every edge *before* differencing, so the synthetic chunk counts
    carry the same integer quantization beat a counting observer would
    see - certification's spread checks run against honest integers,
    not a smoothed line.
    """
    return np.diff(np.floor(rate * rel_edges_ns + intercept))


def _model_stats(values: "np.ndarray", count: int) -> Optional[OnlineStats]:
    """Exact OnlineStats of ``count`` draws shaped like ``values``."""
    if not count or not len(values):
        return None
    stats = OnlineStats()
    mean = float(values.mean())
    stats.count = count
    stats.total = mean * count
    stats._mean = mean
    stats._m2 = float(((values - mean) ** 2).mean()) * count
    stats.minimum = float(values.min())
    stats.maximum = float(values.max())
    return stats


# ----------------------------------------------------------------------
# the window advancement
# ----------------------------------------------------------------------
def run_window(board, window_ns: float) -> VectorOutcome:
    """Advance one measurement window starting at ``board.sim.now``.

    Runs the short DES calibration prefix, fits the stationary stream,
    certifies the fit against the observed chunks, and either advances
    the remaining window from the model or falls back to the DES for
    the remainder - bit-identical to a pure DES window.
    """
    sim = board.sim
    controller = board.controller
    entry = sim.snapshot()
    window_start = sim.now
    chunk_ns = window_ns / TOTAL_CHUNKS
    span_start_ns = window_start + chunk_ns * (PROBE_CHUNKS - SPAN_CHUNKS)
    probe_end_ns = window_start + chunk_ns * PROBE_CHUNKS
    window_end_ns = window_start + window_ns

    controller.begin_measurement()
    wall_start = time.perf_counter()
    recorder = CompletionRecorder()
    controller.recorder = recorder
    chunk_marks: List[int] = []
    span_entry: Optional[dict] = None
    try:
        for i in range(PROBE_CHUNKS):
            if i == PROBE_CHUNKS - SPAN_CHUNKS:
                span_entry = sim.snapshot()
            sim.run(until=window_start + chunk_ns * (i + 1))
            chunk_marks.append(len(recorder))
    finally:
        controller.recorder = None
    probe_wall_s = time.perf_counter() - wall_start
    # The closed loop's in-flight population at the probe's end: the N
    # of Little's law.
    outstanding = float(controller.outstanding)
    probe_snap = sim.snapshot()
    probe_window_events = probe_snap["events_processed"] - entry["events_processed"]
    assert span_entry is not None
    span_engine_events = probe_snap["events_processed"] - span_entry["events_processed"]

    def fallback(reason: str, certification: Optional[Certification] = None):
        # The calibration prefix ran the exact events the DES would
        # have; finishing event by event is bit-identical to a pure DES
        # window.
        sim.run(until=window_end_ns)
        controller.end_measurement()
        window_events = sim.snapshot()["events_processed"] - entry["events_processed"]
        return VectorOutcome(
            used_vector=False,
            reason=reason,
            window_wall_s=time.perf_counter() - wall_start,
            events=window_events,
            events_equivalent=window_events,
            simulated_ns=window_ns,
            probe_wall_s=probe_wall_s,
            certification=certification,
        )

    times, latencies, writes, nbytes = recorder.arrays()
    marks = np.asarray([0] + chunk_marks)
    obs_events = np.diff(marks).astype(float)
    obs_latency = np.asarray(
        [
            float(latencies[lo:hi].mean()) if hi > lo else math.nan
            for lo, hi in zip(marks[:-1], marks[1:])
        ]
    )

    in_span = times > span_start_ns
    span_records = int(in_span.sum())
    if span_records < MIN_SPAN_RECORDS:
        return fallback("probe too sparse")
    span_times = times[in_span]
    span_lats = latencies[in_span]
    span_writes = writes[in_span]
    span_bytes = nbytes[in_span]

    # Fit the stationary stream: completion index against time.
    rate, intercept = np.polyfit(
        span_times - span_start_ns, np.arange(span_records, dtype=float), 1
    )
    if rate <= 0.0 or outstanding <= 0.0:
        return fallback("no stationary flow to fit")
    latency_model = outstanding / rate  # Little's law

    # Cross-check against the independent completion-sampled estimate:
    # disagreement means periodic structure the span cannot average.
    span_mean_latency = float(span_lats.mean())
    agreement = abs(latency_model - span_mean_latency) / span_mean_latency
    if agreement > LATENCY_AGREEMENT_TOLERANCE:
        return fallback(
            f"latency estimators disagree: Little {latency_model:.1f}ns vs "
            f"span mean {span_mean_latency:.1f}ns ({agreement:.2%})"
        )

    # Service-model capacity cross-check from the delay tables.
    overhead_bytes = OVERHEAD_FLITS * FLIT_BYTES
    request_bytes = np.where(span_writes, span_bytes - overhead_bytes, overhead_bytes)
    response_bytes = span_bytes - request_bytes
    capacity = capacity_per_ns(
        service_arrays(board),
        float(request_bytes.mean()),
        float(response_bytes.mean()),
    )
    if rate > capacity * CAPACITY_HEADROOM:
        return fallback(
            f"fitted rate {rate:.4f}/ns exceeds service-model capacity "
            f"{capacity:.4f}/ns"
        )

    # Synthetic model chunks next to the observed ones, through the
    # certification gate.
    rel_edges = (probe_end_ns - span_start_ns) + chunk_ns * np.arange(
        MODEL_CHUNKS + 1, dtype=float
    )
    model_events = advance_cumulative(rate, intercept, rel_edges)
    certification = _certify(
        np.concatenate([obs_events, model_events]),
        np.concatenate([obs_latency, np.full(MODEL_CHUNKS, latency_model)]),
    )
    if not certification.certified:
        return fallback(certification.reason, certification)

    # Advance the tail from the model: counts and bytes from the fitted
    # rate, latencies from the span records scaled to pin the Little's
    # law mean.  Stations keep their probe counters.
    tail_start_wall = time.perf_counter()
    span_ns = chunk_ns * SPAN_CHUNKS
    tail_ns = window_end_ns - probe_end_ns
    tail_events = int(round(rate * tail_ns))
    write_fraction = float(span_writes.mean())
    tail_writes = int(round(tail_events * write_fraction))
    tail_reads = tail_events - tail_writes
    tail_bytes = int(round(tail_events * float(span_bytes.mean())))

    latency_scale = latency_model / float(span_lats.mean())
    read_tail = _model_stats(span_lats[~span_writes] * latency_scale, tail_reads)
    write_tail = _model_stats(span_lats[span_writes] * latency_scale, tail_writes)

    controller.traffic.events += tail_events
    controller.traffic.bytes += tail_bytes
    controller.reads_completed_in_window += tail_reads
    controller.writes_completed_in_window += tail_writes
    controller.submitted += tail_events
    controller.completed += tail_events
    controller.raw_bytes_total += tail_bytes
    controller.reads_total += tail_reads
    controller.writes_total += tail_writes
    if read_tail is not None:
        controller.read_latency.stats = controller.read_latency.stats.merge(read_tail)
    if write_tail is not None:
        controller.write_latency.stats = controller.write_latency.stats.merge(
            write_tail
        )
    controller.end_measurement(at=window_end_ns)
    tail_wall_s = time.perf_counter() - tail_start_wall

    events_equivalent = probe_window_events + int(
        span_engine_events * (tail_ns / span_ns)
    )
    return VectorOutcome(
        used_vector=True,
        reason="",
        window_wall_s=time.perf_counter() - wall_start,
        events=probe_window_events,
        events_equivalent=events_equivalent,
        simulated_ns=probe_end_ns - window_start,
        probe_wall_s=probe_wall_s,
        tail_wall_s=tail_wall_s,
        certification=certification,
        diagnostics={
            "span_records": span_records,
            "rate_per_ns": float(rate),
            "latency_model_ns": float(latency_model),
            "latency_agreement": agreement,
            "capacity_per_ns": capacity,
            "tail_events": tail_events,
        },
    )
