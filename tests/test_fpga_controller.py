"""Tests for the FPGA-side HMC controller (TX/RX, flow control)."""

from dataclasses import replace

import pytest

from repro.fpga.board import AC510Board
from repro.fpga.gups import PortConfig
from repro.hmc.calibration import DEFAULT_CALIBRATION
from repro.hmc.packet import Request


def submit_and_run(board, request):
    board.controller.submit(request)
    board.sim.run()
    return request


def test_latency_clock_starts_at_submit():
    board = AC510Board()
    request = Request(address=0, payload_bytes=128, is_write=False, port=0)
    board.sim.schedule_fast(100.0, board.controller.submit, request)
    board.sim.run()
    assert request.submit_ns == pytest.approx(100.0)
    assert request.complete_ns > request.submit_ns


def test_no_load_roundtrip_near_paper_values():
    """SIV-E2: minimum RTT ~655 ns at 16 B, ~711 ns at 128 B (the GUPS
    path, without the stream interface, runs slightly below those)."""
    board = AC510Board()
    small = submit_and_run(
        board, Request(address=0, payload_bytes=16, is_write=False, port=0)
    )
    large = submit_and_run(
        AC510Board(), Request(address=0, payload_bytes=128, is_write=False, port=0)
    )
    assert 560 <= small.latency_ns <= 700
    assert 620 <= large.latency_ns <= 770
    assert large.latency_ns - small.latency_ns == pytest.approx(56, abs=35)


def test_ports_split_across_links_in_groups_of_five():
    board = AC510Board()
    controller = board.controller
    assert [controller.link_for_port(p) for p in range(9)] == [0] * 5 + [1] * 4


def test_more_than_64_gups_ports_issue_on_their_links():
    """Ports beyond the 64-entry default table still map to a link."""
    board = AC510Board(calibration=replace(DEFAULT_CALIBRATION, gups_ports=70))
    board.load_gups(PortConfig()).start()
    board.sim.run(until=500.0)
    links = len(board.device.links)
    assert board.controller.link_for_port(69) == min(69 // 5, links - 1)
    assert board.controller.submitted > 0


def test_outstanding_counting():
    board = AC510Board()
    request = Request(address=0, payload_bytes=16, is_write=False, port=0)
    board.controller.submit(request)
    assert board.controller.outstanding == 1
    board.sim.run()
    assert board.controller.outstanding == 0
    assert board.controller.submitted == 1
    assert board.controller.completed == 1


def test_flow_control_stop_and_resume():
    """A completion resumes the oldest issue parked on the stop signal,
    but only once it leaves fewer than ``flow_threshold`` outstanding."""
    board = AC510Board()
    controller = board.controller
    threshold = board.calibration.flow_control_threshold
    woken = []
    controller._stop_waiters.append(lambda: woken.append(1))
    # One real request in flight; the rest of the count is a saturated
    # controller, so this completion leaves it at the threshold.
    controller.submit(Request(address=0, payload_bytes=16, is_write=False, port=0))
    controller.outstanding = threshold + 1
    assert not controller.can_generate
    board.sim.run()
    assert controller.outstanding == threshold
    assert not woken  # still at threshold
    controller.outstanding = threshold - 1
    controller.submit(Request(address=64, payload_bytes=16, is_write=False, port=0))
    board.sim.run()
    assert controller.outstanding == threshold - 1
    assert woken == [1]


def test_measurement_window_captures_only_window_traffic():
    board = AC510Board()
    # One completion before the window, one inside it.
    submit_and_run(board, Request(address=0, payload_bytes=16, is_write=False, port=0))
    board.controller.begin_measurement()
    submit_and_run(board, Request(address=64, payload_bytes=16, is_write=False, port=0))
    board.controller.end_measurement()
    assert board.controller.reads_completed_in_window == 1
    assert board.controller.traffic.events == 1
    assert board.controller.traffic.bytes == 48  # 16 B payload + 2 flits


def test_write_latency_sampled_separately():
    board = AC510Board()
    board.controller.begin_measurement()
    submit_and_run(board, Request(address=0, payload_bytes=16, is_write=True, port=0))
    board.controller.end_measurement()
    assert board.controller.writes_completed_in_window == 1
    assert board.controller.write_latency.stats.count == 1
    assert board.controller.read_latency.stats.count == 0


def test_completion_routed_to_registered_port_handler():
    board = AC510Board()
    got = []
    board.controller.register_port(4, got.append)
    request = Request(address=0, payload_bytes=16, is_write=False, port=4)
    submit_and_run(board, request)
    assert got == [request]


def test_bandwidth_property_uses_raw_bytes():
    board = AC510Board()
    board.controller.begin_measurement()
    submit_and_run(board, Request(address=0, payload_bytes=128, is_write=False, port=0))
    board.controller.end_measurement()
    window = board.controller.traffic.window_ns
    assert board.controller.bandwidth_gbs == pytest.approx(160.0 / window)


def test_completion_recorder_hook_sees_every_completion():
    from repro.sim.vectorprobe import CompletionRecorder

    board = AC510Board()
    recorder = CompletionRecorder()
    board.controller.recorder = recorder
    for i in range(3):
        submit_and_run(
            board,
            Request(address=i * 4096, payload_bytes=64, is_write=(i == 2), port=0),
        )
    board.controller.recorder = None
    submit_and_run(
        board, Request(address=5 * 4096, payload_bytes=64, is_write=False, port=0)
    )  # detached: not recorded
    assert len(recorder) == 3
    assert recorder.writes == [False, False, True]
    assert all(lat > 0 for lat in recorder.latencies)
    times, lats, writes, nbytes = recorder.arrays()
    assert times.shape == lats.shape == writes.shape == nbytes.shape == (3,)
    assert list(times) == sorted(times)


def test_controller_snapshot_tracks_window_counters():
    board = AC510Board()
    controller = board.controller
    submit_and_run(
        board, Request(address=0, payload_bytes=128, is_write=False, port=0)
    )
    controller.begin_measurement()
    submit_and_run(
        board, Request(address=4096, payload_bytes=128, is_write=True, port=0)
    )
    snap = controller.snapshot()
    assert snap["submitted"] == 2
    assert snap["completed"] == 2
    assert snap["outstanding"] == 0
    assert snap["window_events"] == 1
    assert snap["writes_completed_in_window"] == 1
    assert snap["reads_completed_in_window"] == 0


def test_end_measurement_at_closes_window_at_given_edge():
    board = AC510Board()
    controller = board.controller
    board.sim.run(until=100.0)
    controller.begin_measurement()
    board.sim.run(until=150.0)
    controller.end_measurement(at=600.0)
    # The window spans begin..at, not begin..now.
    assert controller.traffic.window_ns == pytest.approx(500.0)


def test_token_low_water_reset():
    board = AC510Board()
    link = board.device.links[0]
    submit_and_run(
        board, Request(address=0, payload_bytes=128, is_write=False, port=0)
    )
    assert link.tokens.low_water <= link.tokens.capacity
    drained_low = link.tokens.low_water
    assert drained_low < link.tokens.capacity  # the in-flight request dipped it
    link.reset_counters()
    assert link.tokens.low_water == link.tokens.available
    assert link.tokens.low_water >= drained_low
