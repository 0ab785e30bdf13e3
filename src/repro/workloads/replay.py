"""Dependency-aware trace replay through the simulated AC-510.

The replayer behaves like a DMA engine feeding the GUPS ports from a
trace: references issue one per FPGA cycle, round-robin across the nine
ports (so both links are exercised), bounded by an in-flight window,
and with a scoreboard that lets independent references overtake a
stalled dependent one - a pointer chase still serializes, but the
read/write pairs of a hash-update stream pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.fpga.board import AC510Board
from repro.hmc.packet import Request
from repro.sim.stats import OnlineStats
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one trace."""

    trace_name: str
    references: int
    elapsed_ns: float
    raw_bytes: int
    latency_avg_ns: float
    latency_min_ns: float
    latency_max_ns: float

    @property
    def bandwidth_gbs(self) -> float:
        """Raw bandwidth, counted the paper's way (GB/s)."""
        return self.raw_bytes / self.elapsed_ns if self.elapsed_ns > 0 else 0.0

class TraceReplayer:
    """Replays traces on a simulated board; reusable sequentially."""

    def __init__(
        self, board: Optional[AC510Board] = None, window: int = 256
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.board = board or AC510Board()
        self.window = window
        self.num_ports = self.board.calibration.gups_ports
        self._completed: Dict[int, bool] = {}
        self._issued: Set[int] = set()
        self._trace: Optional[Trace] = None
        self._cursor = 0
        self._in_flight = 0
        self._next_port = 0
        self._pump_scheduled = False
        self._latency = OnlineStats()
        self._raw_bytes = 0
        self._last_completion_ns = 0.0
        for port in range(self.num_ports):
            self.board.controller.register_port(port, self._on_complete)

    # ------------------------------------------------------------------
    # issue loop
    # ------------------------------------------------------------------
    def _ready(self, index: int) -> bool:
        entry = self._trace.entries[index]
        return entry.depends_on is None or self._completed.get(entry.depends_on, False)

    def _find_issuable(self) -> Optional[int]:
        """Oldest unissued, dependency-ready entry within the window."""
        entries = self._trace.entries
        scanned = 0
        index = self._cursor
        while index < len(entries) and scanned < self.window:
            if index not in self._issued and self._ready(index):
                return index
            index += 1
            scanned += 1
        return None

    def _pump(self) -> None:
        self._pump_scheduled = False
        if self._trace is None or self._in_flight >= self.window:
            return
        index = self._find_issuable()
        if index is None:
            return  # a completion will re-pump
        entry = self._trace.entries[index]
        request = Request(
            address=entry.address,
            payload_bytes=self._trace.payload_bytes,
            is_write=entry.is_write,
            port=self._next_port,
        )
        request.trace_index = index  # type: ignore[attr-defined]
        self._next_port = (self._next_port + 1) % self.num_ports
        self._issued.add(index)
        while self._cursor in self._issued:
            self._issued.discard(self._cursor)
            self._cursor += 1
        self._in_flight += 1
        self.board.controller.submit(request)
        # Pace at one reference per FPGA cycle, like the hardware ports.
        self._schedule_pump(self.board.calibration.fpga_cycle_ns)

    def _schedule_pump(self, delay: float) -> None:
        if not self._pump_scheduled:
            self._pump_scheduled = True
            self.board.sim.schedule_fast(delay, self._pump)

    def _on_complete(self, request: Request) -> None:
        index = request.trace_index  # type: ignore[attr-defined]
        self._completed[index] = True
        self._in_flight -= 1
        self._latency.add(request.latency_ns)
        self._raw_bytes += request.raw_bytes
        self._last_completion_ns = request.complete_ns
        self._schedule_pump(0.0)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def replay(self, trace: Trace) -> ReplayResult:
        """Run one trace to completion and return its measurements."""
        if self._trace is not None:
            raise RuntimeError("a trace is already being replayed")
        if not trace.entries:
            raise ValueError("cannot replay an empty trace")
        self._trace = trace
        self._cursor = 0
        self._in_flight = 0
        self._completed = {}
        self._issued = set()
        self._latency = OnlineStats()
        self._raw_bytes = 0
        start = self.board.sim.now
        self._pump()
        self.board.sim.run()
        done = sum(1 for _ in self._completed)
        if done != len(trace.entries) or self._in_flight:
            raise RuntimeError(
                f"trace stalled: {done}/{len(trace.entries)} completed, "
                f"{self._in_flight} in flight"
            )
        self._trace = None
        elapsed = self._last_completion_ns - start
        return ReplayResult(
            trace_name=trace.name,
            references=len(trace.entries),
            elapsed_ns=elapsed,
            raw_bytes=self._raw_bytes,
            latency_avg_ns=self._latency.mean,
            latency_min_ns=self._latency.minimum,
            latency_max_ns=self._latency.maximum,
        )


def replay_trace(trace: Trace, window: int = 256) -> ReplayResult:
    """Convenience: replay on a fresh board."""
    return TraceReplayer(window=window).replay(trace)
