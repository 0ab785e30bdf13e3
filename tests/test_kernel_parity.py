"""Parity suite for the vectorized probe kernel.

The kernel's whole contract is "indistinguishable within 0.1% where it
engages, bit-identical where it does not".  These tests pin both halves:
certified full-window points against event-exact DES runs, the dynamic
decertification fallback, the static routing (topology, faults,
tracing, short windows), a point's independence from its batch - plus
unit tests for the certification math.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.experiment import (
    ExperimentSettings,
    MeasurementPoint,
    simulate_point,
    simulate_point_observed,
)
from repro.fpga.address_gen import AddressingMode
from repro.fpga.board import AC510Board
from repro.hmc.packet import RequestType
from repro.sim import vectorprobe

DEFAULT = ExperimentSettings()
FAST = ExperimentSettings(warmup_us=10.0, window_us=40.0)

#: The acceptance tolerance the bench gates on: 0.1% relative error.
PARITY_TOL = 0.001


def _rel(base: float, other: float) -> float:
    if math.isnan(base) and math.isnan(other):
        return 0.0
    if math.isnan(base) or math.isnan(other):
        return math.inf
    if base == 0.0:
        return abs(other)
    return abs(other - base) / abs(base)


def _worst_error(des, hybrid) -> float:
    return max(
        _rel(des.bandwidth_gbs, hybrid.bandwidth_gbs),
        _rel(des.mrps, hybrid.mrps),
        _rel(des.read_latency_avg_ns, hybrid.read_latency_avg_ns),
        _rel(des.write_latency_avg_ns, hybrid.write_latency_avg_ns),
    )


def _point(settings, request_type=RequestType.READ, payload=128,
           mode=AddressingMode.RANDOM):
    return MeasurementPoint(
        request_type=request_type,
        payload_bytes=payload,
        mode=mode,
        settings=settings,
    )


# ----------------------------------------------------------------------
# the --fast grid under the vector kernel: every ro/wo/rw point's window
# is below MIN_WINDOW_US, so each one routes to the DES statically and
# matches it bit for bit.  Full-window grid parity is not gated here -
# slowly wandering linear walks can land 0.1-0.3% off - so the fallback
# contract on this grid is the one the suite pins.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("payload", [32, 64, 128])
@pytest.mark.parametrize(
    "request_type",
    [RequestType.READ, RequestType.WRITE, RequestType.READ_MODIFY_WRITE],
    ids=["ro", "wo", "rw"],
)
@pytest.mark.parametrize(
    "mode", [AddressingMode.RANDOM, AddressingMode.LINEAR], ids=["rnd", "lin"]
)
def test_fast_sweep_parity(payload, request_type, mode):
    des_m, _ = simulate_point(_point(FAST, request_type, payload, mode))
    vec_m, info = simulate_point_observed(
        _point(replace(FAST, kernel="vector"), request_type, payload, mode)
    )
    assert info["kernel"] == "des"
    assert info["reason"] == "window too short for vector calibration"
    # NaN-aware comparison: a read-only point has NaN write latency on
    # both paths.
    assert _worst_error(des_m, vec_m) == 0.0
    assert vec_m.reads_completed == des_m.reads_completed
    assert vec_m.writes_completed == des_m.writes_completed


# ----------------------------------------------------------------------
# dynamic decertification and static routing
# ----------------------------------------------------------------------
def test_non_stationary_mix_decertifies_and_falls_back_exactly():
    point = _point(DEFAULT, RequestType.READ_MODIFY_WRITE, 64)
    des_m, _ = simulate_point(point)
    vec_m, info = simulate_point_observed(
        replace(point, settings=replace(DEFAULT, kernel="vector"))
    )
    assert info["kernel"] == "des"
    assert info["reason"].startswith("latency estimators disagree")
    assert vec_m == des_m  # rw completes both kinds: no NaN fields


def test_static_eligibility_rejects_unmodelled_configurations():
    board = AC510Board()
    assert vectorprobe.static_eligibility(board) == (True, "")
    assert vectorprobe.static_eligibility(board, tracer=object())[1] == "tracing"
    board.controller.tracer = object()
    assert vectorprobe.static_eligibility(board)[1] == "tracing"
    board.controller.tracer = None
    board.controller.fault_model = object()
    assert vectorprobe.static_eligibility(board)[1] == "faults"
    board.controller.fault_model = None
    board.device.refresh = object()
    assert vectorprobe.static_eligibility(board)[1] == "refresh"


def test_tracing_forces_des_even_under_vector_kernel():
    from repro.core.experiment import simulate_point_traced

    point = _point(replace(DEFAULT, kernel="vector"))
    measurement, tracer = simulate_point_traced(point, sample=4)
    baseline, _ = simulate_point(_point(DEFAULT))
    # Tracer attached => static ineligibility => the traced measurement
    # is the event-exact one.
    assert _worst_error(baseline, measurement) == 0.0
    assert len(list(tracer.contexts)) > 0


def test_invalid_kernel_name_is_rejected():
    with pytest.raises(ValueError, match="kernel"):
        ExperimentSettings(kernel="vectorized")


# ----------------------------------------------------------------------
# unit tests: certification math
# ----------------------------------------------------------------------
#: The calibration's observed chunks plus the synthetic model
#: chunks: the series the vector kernel feeds the certification gate.
CERT_INPUT_CHUNKS = vectorprobe.PROBE_CHUNKS + vectorprobe.MODEL_CHUNKS


def _stationary_chunks(chunks=CERT_INPUT_CHUNKS):
    events = np.full(chunks, 1000.0)
    lats = np.full(chunks, 500.0)
    outstanding = np.full(chunks, 64.0)
    queued = np.zeros(chunks)
    return events, lats, outstanding, queued


def test_certify_accepts_stationary_stream():
    cert = vectorprobe._certify(*_stationary_chunks())
    assert cert.certified
    assert cert.reason == ""


def test_certify_rejects_trending_completion_rate():
    events, lats, outstanding, queued = _stationary_chunks()
    events = events * np.linspace(1.0, 1.3, len(events))
    cert = vectorprobe._certify(events, lats, outstanding, queued)
    assert not cert.certified
    assert "non-stationary" in cert.reason


def test_certify_rejects_empty_or_completionless_chunks():
    events, lats, outstanding, queued = _stationary_chunks()
    empty = events.copy()
    empty[-1] = 0.0
    assert not vectorprobe._certify(empty, lats, outstanding, queued).certified
    nan_lats = lats.copy()
    nan_lats[-2] = math.nan
    assert not vectorprobe._certify(events, nan_lats, outstanding, queued).certified


def test_certify_rejects_oscillating_latency():
    events, lats, outstanding, queued = _stationary_chunks()
    lats = lats * (1.0 + 0.05 * np.array([(-1.0) ** i for i in range(len(lats))]))
    cert = vectorprobe._certify(events, lats, outstanding, queued)
    assert not cert.certified
    assert "latency" in cert.reason


def test_certify_all_zero_queued_span_skips_queue_gate():
    # Workloads that never queue (all-zero chunk_queued) must certify:
    # the queue gate only engages at depths >= MIN_QUEUE_DEPTH_FOR_GATE,
    # and a zero-depth span reports a clean 0.0 spread rather than the
    # inf a naive relative spread of zeros would produce.
    events, lats, outstanding, queued = _stationary_chunks()
    assert not queued.any()
    cert = vectorprobe._certify(events, lats, outstanding, queued)
    assert cert.certified
    assert cert.queue_spread == 0.0


def test_certify_single_completion_chunks():
    # One completion per chunk is the thinnest stream that is still
    # fully observed: every chunk is non-empty and has a latency mean,
    # so the gates must evaluate it (and a perfectly steady one-a-chunk
    # stream certifies) instead of tripping an emptiness guard.
    events = np.ones(CERT_INPUT_CHUNKS)
    lats = np.full(CERT_INPUT_CHUNKS, 480.0)
    outstanding = np.ones(CERT_INPUT_CHUNKS)
    queued = np.zeros(CERT_INPUT_CHUNKS)
    cert = vectorprobe._certify(events, lats, outstanding, queued)
    assert cert.certified
    assert cert.event_spread == 0.0
    # ... but one missing completion in the span decertifies.
    gappy = events.copy()
    gappy[-3] = 0.0
    assert not vectorprobe._certify(gappy, lats, outstanding, queued).certified


def test_certify_nan_latency_means_decertify():
    # A NaN latency mean marks a chunk that saw no completions; one NaN
    # anywhere in the span - first, last, or everywhere - must decertify
    # (NaNs would otherwise propagate into every spread metric).
    events, lats, outstanding, queued = _stationary_chunks()
    for position in (len(lats) - vectorprobe.CERT_CHUNKS, len(lats) - 1):
        nan_lats = lats.copy()
        nan_lats[position] = math.nan
        cert = vectorprobe._certify(events, nan_lats, outstanding, queued)
        assert not cert.certified
        assert cert.reason == "chunk without completions"
    all_nan = np.full_like(lats, math.nan)
    assert not vectorprobe._certify(events, all_nan, outstanding, queued).certified


# ----------------------------------------------------------------------
# the vectorized probe kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "request_type, payload, mode",
    [
        (RequestType.READ, 128, AddressingMode.RANDOM),
        (RequestType.READ, 64, AddressingMode.RANDOM),
        (RequestType.WRITE, 64, AddressingMode.RANDOM),
    ],
    ids=["ro128r", "ro64r", "wo64r"],
)
def test_vector_certified_point_matches_des_within_tolerance(
    request_type, payload, mode
):
    des_m, des_info = simulate_point_observed(
        _point(DEFAULT, request_type, payload, mode)
    )
    vec_m, vec_info = simulate_point_observed(
        _point(replace(DEFAULT, kernel="vector"), request_type, payload, mode)
    )
    assert des_info["kernel"] == "des"
    assert vec_info["kernel"] == "vector", vec_info["reason"]
    assert _worst_error(des_m, vec_m) <= PARITY_TOL
    # 3 calibration chunks of 48: a 16x advance.
    assert vec_info["events_equivalent"] / vec_info["events"] >= 15.0
    # The wall breakdown is observable and covers the window wall.
    assert vec_info["probe_wall_s"] > 0.0
    assert vec_info["probe_wall_s"] + vec_info["tail_wall_s"] <= (
        vec_info["window_wall_s"] + 1e-6
    )


def test_vector_decertified_window_falls_back_bit_identically(monkeypatch):
    from repro.sim.vectorprobe import Certification

    des_m, _ = simulate_point(_point(DEFAULT))
    monkeypatch.setattr(
        vectorprobe,
        "_certify",
        lambda *args, **kwargs: Certification(False, "forced decert"),
    )
    vec_m, info = simulate_point_observed(_point(replace(DEFAULT, kernel="vector")))
    assert info["kernel"] == "des"
    assert info["reason"] == "forced decert"
    assert _worst_error(des_m, vec_m) == 0.0
    assert vec_m.reads_completed == des_m.reads_completed
    assert vec_m.writes_completed == des_m.writes_completed


def test_vector_short_window_falls_back_statically():
    # Windows below the static floor never even run the calibration:
    # the synthetic model chunks cannot observe drift that happens
    # after the probe, so short (--fast-style) windows go straight to
    # the DES, bit-identically.
    assert FAST.window_us < vectorprobe.MIN_WINDOW_US
    des_m, _ = simulate_point(_point(FAST))
    vec_m, info = simulate_point_observed(_point(replace(FAST, kernel="vector")))
    assert info["kernel"] == "des"
    assert info["reason"] == "window too short for vector calibration"
    assert _worst_error(des_m, vec_m) == 0.0
    assert vec_m.reads_completed == des_m.reads_completed


def test_vector_topology_routes_to_des():
    from repro.topology.spec import TopologySpec

    settings = replace(FAST, kernel="vector", topology=TopologySpec("chain", 2))
    _, info = simulate_point_observed(_point(settings))
    assert info["kernel"] == "des"
    assert info["reason"] == "topology"


def test_vector_capacity_gate_rejects_impossible_rates(monkeypatch):
    # A fit claiming more completions/ns than the construction-time
    # delay tables can serve must decertify, not extrapolate garbage.
    des_m, _ = simulate_point(_point(DEFAULT))
    monkeypatch.setattr(vectorprobe, "capacity_per_ns", lambda *a, **k: 1e-6)
    vec_m, info = simulate_point_observed(_point(replace(DEFAULT, kernel="vector")))
    assert info["kernel"] == "des"
    assert "capacity" in info["reason"]
    assert _worst_error(des_m, vec_m) == 0.0


def test_vector_point_result_is_independent_of_its_batch():
    # Equal cache key, equal measurement: a vector point measures the
    # same alone, next to a same-settings neighbour, and across the
    # pool - no state crosses points.
    from repro.core import parallel, schema

    settings = replace(DEFAULT, kernel="vector")
    neighbour = _point(settings, RequestType.READ, 32)
    point = _point(settings, RequestType.READ, 64)

    def record(jobs, batch):
        parallel.reset()
        executor = parallel.MeasurementExecutor(jobs=jobs, use_cache=False)
        return schema.measurement_to_dict(executor.measure_points(batch)[-1])

    alone = record(1, [point])
    assert record(1, [neighbour, point]) == alone
    assert record(2, [neighbour, point]) == alone


def test_kept_benchmark_entry_points_run_each_point_alone():
    # simulate_point_hinted and simulate_vector_group stay only for
    # harnesses that look them up by name: both must give exactly what
    # simulate_point gives each point on its own.
    from repro.core.experiment import simulate_point_hinted, simulate_vector_group

    settings = replace(DEFAULT, kernel="vector")
    points = [_point(settings, RequestType.READ, payload) for payload in (128, 64)]
    alone = [simulate_point(point) for point in points]
    assert simulate_vector_group(points) == alone
    measurement, events, info = simulate_point_hinted(points[1])
    assert (measurement, events) == alone[1]
    assert info["kernel"] == "vector"
