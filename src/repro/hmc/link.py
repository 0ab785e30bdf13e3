"""External SerDes link model (paper §II-B).

Each link is modelled as two independent directions.  A direction is a
:class:`Channel`: a FIFO serializer whose per-packet service time is a
fixed processing overhead plus a byte-proportional term.  On top of the
channels sits the HMC link-level *token* flow control: the device
advertises input-buffer space in flits; a request consumes as many
tokens as it has flits and the tokens travel back to the host
piggybacked on response tails.  Because a 128 B write request carries
nine flits against a read request's one, the token economy is what makes
write-heavy traffic so much more constrained than read traffic - the
mechanism behind Fig. 7's wo/rw/ro ordering.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from repro.hmc.errors import ConfigurationError
from repro.sim.engine import Simulator


class Channel:
    """One direction of one link: FIFO service at ``overhead + bytes/rate``."""

    def __init__(
        self,
        sim: Simulator,
        bytes_per_ns: float,
        packet_overhead_ns: float,
        name: str = "",
    ) -> None:
        if bytes_per_ns <= 0:
            raise ConfigurationError(f"channel rate must be positive: {bytes_per_ns}")
        if packet_overhead_ns < 0:
            raise ConfigurationError("packet overhead cannot be negative")
        self.sim = sim
        self.name = name
        self.bytes_per_ns = bytes_per_ns
        self.packet_overhead_ns = packet_overhead_ns
        self.next_free = 0.0
        self.busy_time = 0.0
        self.packets = 0
        self.bytes = 0

    def service_ns(self, nbytes: int) -> float:
        return self.packet_overhead_ns + nbytes / self.bytes_per_ns

    # Inlined at the four hot booking sites (controller TX, device RX,
    # vault command and TSV); keep the copies in step.
    def acquire(self, nbytes: int, earliest: float = 0.0) -> float:
        """Book one packet; returns the time its last byte clears.

        ``earliest`` lets callers enqueue a packet that only becomes
        ready at a future instant (e.g. a response that leaves its vault
        later) without scheduling an intermediate event.
        """
        # Hot path: every transaction books at least three channels, so
        # service_ns is inlined and max() avoided (both are measurable at
        # these call counts).
        start = self.sim.now
        next_free = self.next_free
        if next_free > start:
            start = next_free
        if earliest > start:
            start = earliest
        duration = self.packet_overhead_ns + nbytes / self.bytes_per_ns
        end = start + duration
        self.next_free = end
        self.busy_time += duration
        self.packets += 1
        self.bytes += nbytes
        return end

    def reset_counters(self) -> None:
        self.busy_time = 0.0
        self.packets = 0
        self.bytes = 0


class LinkTokenPool:
    """Flit tokens for one link's request direction.

    Unlike :class:`repro.sim.resources.TokenPool` this pool hands out
    *batches* (a packet needs all its flits' tokens at once) and keeps
    FIFO order among waiting packets so a starved 9-flit write cannot be
    overtaken forever by 1-flit reads.
    """

    def __init__(self, sim: Simulator, capacity_flits: int, name: str = "") -> None:
        if capacity_flits <= 0:
            raise ConfigurationError("token capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity_flits
        self.available = capacity_flits
        self._waiters: Deque[tuple[int, Callable[..., None], tuple]] = deque()
        self.peak_in_use = 0
        # Fewest tokens simultaneously free since the last watermark
        # reset - the pressure indicator the profiler reports per link.
        self.low_water = capacity_flits

    @property
    def in_use(self) -> int:
        return self.capacity - self.available

    # HmcController._acquire_tokens inlines the grant path; keep in step.
    def acquire(self, flits: int, on_ready: Callable[..., None], *args: Any) -> bool:
        """Take ``flits`` tokens; ``True`` when granted synchronously.

        Otherwise ``on_ready(*args)`` runs, holding the tokens, once
        enough have returned - passing ``args`` here spares the caller a
        closure per request.  A packet larger than the whole pool is a
        configuration error - it could never be granted.
        """
        if flits > self.capacity:
            raise ConfigurationError(
                f"packet of {flits} flits exceeds link buffer of {self.capacity}"
            )
        if not self._waiters and self.available >= flits:
            available = self.available - flits
            self.available = available
            in_use = self.capacity - available
            if in_use > self.peak_in_use:
                self.peak_in_use = in_use
            if available < self.low_water:
                self.low_water = available
            return True
        self._waiters.append((flits, on_ready, args))
        return False

    def release(self, flits: int) -> None:
        """Return tokens (a token-return arrived) and wake FIFO waiters."""
        available = self.available + flits
        if available > self.capacity:
            raise RuntimeError(f"LinkTokenPool {self.name!r}: token overflow")
        self.available = available
        waiters = self._waiters
        while waiters and available >= waiters[0][0]:
            need, callback, args = waiters.popleft()
            available -= need
            self.available = available
            in_use = self.capacity - available
            if in_use > self.peak_in_use:
                self.peak_in_use = in_use
            if available < self.low_water:
                self.low_water = available
            # Zero-delay wake-up: the now-queue skips the heap round-trip.
            self.sim.post(callback, *args)

    def reset_watermarks(self) -> None:
        """Restart low-water tracking from the current occupancy.

        Called at the start of a measurement window so the reported
        low-water mark describes the window, not the warm-up transient.
        """
        self.low_water = self.available

    @property
    def waiting(self) -> int:
        return len(self._waiters)


class Link:
    """One external link: TX/RX channels plus request-direction tokens."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        tx_bytes_per_ns: float,
        tx_overhead_ns: float,
        rx_bytes_per_ns: float,
        rx_overhead_ns: float,
        tokens_flits: int,
        propagation_ns: float,
    ) -> None:
        self.index = index
        self.tx = Channel(sim, tx_bytes_per_ns, tx_overhead_ns, name=f"link{index}.tx")
        self.rx = Channel(sim, rx_bytes_per_ns, rx_overhead_ns, name=f"link{index}.rx")
        self.tokens = LinkTokenPool(sim, tokens_flits, name=f"link{index}.tokens")
        self.propagation_ns = propagation_ns

    def reset_counters(self) -> None:
        self.tx.reset_counters()
        self.rx.reset_counters()
        self.tokens.reset_watermarks()
