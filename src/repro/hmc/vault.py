"""Vault controller and DRAM bank models (paper §II-A, §IV-B, §IV-E4).

Each vault owns a memory controller on the logic die with one queue per
bank (the organization the paper infers from its Little's-law analysis
of Fig. 17), a shared TSV data bus capped at 10 GB/s, and closed-page
banks above it.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.hmc.calibration import Calibration
from repro.hmc.dram import DramTimings
from repro.hmc.link import Channel
from repro.hmc.packet import Request, VALID_PAYLOAD_BYTES
from repro.sim.engine import NOW_QUEUE_LIMIT, Simulator, heappush
from repro.sim.resources import BoundedQueue


class Bank:
    """One closed-page DRAM bank with its vault-controller queue."""

    def __init__(self, sim: Simulator, vault: "VaultController", index: int) -> None:
        self.sim = sim
        self.vault = vault
        self.index = index
        self.queue = BoundedQueue(
            sim,
            vault.calibration.vault_queue_per_bank,
            name=f"vault{vault.index}.bank{index}.q",
        )
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.accesses = 0
        self.refreshes = 0
        self._kick_scheduled = False

    # ------------------------------------------------------------------
    # refresh (enabled by the device when a RefreshPolicy is configured)
    # ------------------------------------------------------------------
    def start_refresh(self, interval_ns: float, occupancy_ns: float, offset_ns: float) -> None:
        """Begin periodic refresh; banks stagger their first refresh."""
        self._refresh_interval = interval_ns
        self._refresh_occupancy = occupancy_ns
        self.sim.schedule_fast(offset_ns, self._refresh)

    def _refresh(self) -> None:
        self.refreshes += 1
        self.busy_until = max(self.busy_until, self.sim.now) + self._refresh_occupancy
        if self.queue.items:
            self.kick()
        self.sim.schedule_fast(self._refresh_interval, self._refresh)

    # ------------------------------------------------------------------
    # service loop
    # ------------------------------------------------------------------
    # VaultController.accept and _service inline kick(); keep in step.
    def kick(self) -> None:
        """Ensure the service loop will run when the bank next frees up."""
        if self._kick_scheduled:
            return
        self._kick_scheduled = True
        sim = self.sim
        busy_until = self.busy_until
        if busy_until <= sim.now:
            # Bank already free: service is a zero-delay hop (now-queue).
            sim.post(self._service)
        else:
            sim.schedule_fast_at(busy_until, self._service)

    def _service(self) -> None:
        self._kick_scheduled = False
        sim = self.sim
        if sim.now < self.busy_until:
            self.kick()
            return
        queue = self.queue
        items = queue.items
        if not items:
            return
        # The queue's only consumer: pop, then wake the oldest producer
        # parked by BoundedQueue.offer.
        request = items.popleft()
        if queue._producers:
            sim.post(queue._producers.popleft())
        self._access(request)
        if items and not self._kick_scheduled:
            busy_until = self.busy_until
            if busy_until > sim.now:
                # Inlined from kick() for a bank the access left busy,
                # which is every access with a positive command time;
                # keep in step.
                self._kick_scheduled = True
                seq = sim._seq
                sim._seq = seq + 1
                heappush(sim._heap, (busy_until, seq, self._service, ()))
            else:
                self.kick()

    def _access(self, request: Request) -> None:
        """Perform one closed-page access and emit the response."""
        vault = self.vault
        timings = vault.timings
        now = self.sim.now
        # Inlined from Channel.acquire(0) on the command channel: a
        # zero-byte packet costs exactly the channel overhead, and the
        # access starts when its command clears; keep in step.
        command = vault.command
        start = command.next_free
        if now > start:
            start = now
        duration = command.packet_overhead_ns
        start += duration
        command.next_free = start
        command.busy_time += duration
        command.packets += 1
        request.bank_start_ns = start
        self.accesses += 1

        if request.is_write:
            # Write data crosses the TSV bus, then commits in the arrays.
            moved, occupancy = vault._write_params[request.payload_bytes]
            earliest = start + timings.t_rcd_ns + timings.t_cwl_ns
        else:
            # Read data becomes available after RCD+CL, then streams up
            # the shared TSV bus toward the logic die.
            moved, occupancy = vault._read_params[request.payload_bytes]
            earliest = start + timings.t_rcd_ns + timings.t_cl_ns
        # Inlined from Channel.acquire on the TSV channel; keep in step.
        tsv = vault.tsv
        tsv_start = tsv.next_free
        if now > tsv_start:
            tsv_start = now
        if earliest > tsv_start:
            tsv_start = earliest
        duration = tsv.packet_overhead_ns + moved / tsv.bytes_per_ns
        tsv_done = tsv_start + duration
        tsv.next_free = tsv_done
        tsv.busy_time += duration
        tsv.packets += 1
        tsv.bytes += moved
        if request.is_write:
            recovered = tsv_done + timings.t_wr_ns + timings.t_rp_ns
        else:
            recovered = tsv_done + timings.t_rp_ns
        busy_until = start + occupancy
        if recovered > busy_until:
            busy_until = recovered
        self.busy_until = busy_until
        self.busy_time += busy_until - start
        trace = request.trace
        if trace is not None:
            trace.dram_done_ns = tsv_done
        vault.on_response(request, tsv_done)


class VaultController:
    """The per-vault memory controller in the logic layer."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        num_banks: int,
        timings: DramTimings,
        calibration: Calibration,
        on_response: Callable[[Request, float], None],
        bank_cls: type = Bank,
        on_accept: Optional[Callable[[Request], None]] = None,
    ) -> None:
        self.sim = sim
        self.index = index
        self.timings = timings
        self.calibration = calibration
        self.tsv = Channel(
            sim,
            bytes_per_ns=calibration.vault_bandwidth_gbps,
            packet_overhead_ns=0.0,
            name=f"vault{index}.tsv",
        )
        # One DRAM command leaves the vault controller per
        # `vault_command_ns`; small requests in a single vault are
        # command-rate limited before they are data-limited.
        self.command = Channel(
            sim,
            bytes_per_ns=1.0,
            packet_overhead_ns=calibration.vault_command_ns,
            name=f"vault{index}.cmd",
        )
        # Per-payload access parameters are pure functions of the fixed
        # timings; the eight legal payload sizes are tabled so the bank
        # service loop does one dict lookup instead of three method
        # calls.  Values come from the canonical methods, so the cached
        # floats are identical.
        self._read_params = {
            p: (timings.bus_bytes_moved(p), timings.read_occupancy_ns(p))
            for p in VALID_PAYLOAD_BYTES
        }
        self._write_params = {
            p: (timings.bus_bytes_moved(p), timings.write_occupancy_ns(p))
            for p in VALID_PAYLOAD_BYTES
        }
        # `bank_cls` is the device-backend hook: open-page backends (the
        # ddr4 device) substitute a Bank subclass with row-buffer state.
        self.banks: List[Bank] = [bank_cls(sim, self, b) for b in range(num_banks)]
        #: Called by a bank as ``on_response(request, depart_ns)`` when
        #: the access's data leaves the TSV bus.
        self.on_response = on_response
        #: Called as ``on_accept(request)`` the moment any request enters
        #: a bank queue: the owning device's link-token return.
        self.on_accept = on_accept
        self.requests_accepted = 0
        self.payload_bytes_accepted = 0

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def accept(
        self,
        request: Request,
        bank_index: int,
        on_accepted: Optional[Callable[[], None]] = None,
    ) -> None:
        """Queue a request on its bank.

        The request enters the bank queue at once when there is room;
        ``on_accept(request)`` and then ``on_accepted()`` fire at that
        moment - the device frees the link-level tokens the request was
        holding.  When the bank queue is full the request (and its
        tokens) wait, which is how DRAM-side congestion back-pressures
        the link, exactly the behaviour behind the paper's 24 us 1-bank
        latencies.
        """
        sim = self.sim
        request.vault_arrival_ns = sim.now
        bank = self.banks[bank_index]
        queue = bank.queue
        items = queue.items
        depth = len(items)
        if depth >= queue.capacity:
            # Full: park a retry that re-offers each time a slot frees.
            def enqueue() -> None:
                if queue.offer(request, on_space=enqueue):
                    self._admitted(request, bank, on_accepted)

            enqueue()
            return
        # Inlined from BoundedQueue.offer (room path); keep in step.
        items.append(request)
        if depth >= queue.peak_depth:
            queue.peak_depth = depth + 1
        # Inlined from _admitted; keep in step.
        self.requests_accepted += 1
        self.payload_bytes_accepted += request.payload_bytes
        if self.on_accept is not None:
            self.on_accept(request)
        if on_accepted is not None:
            on_accepted()
        if not bank._kick_scheduled:
            # Inlined from Bank.kick; keep in step.
            bank._kick_scheduled = True
            busy_until = bank.busy_until
            if busy_until <= sim.now:
                # Inlined from Simulator.post; keep in step.
                nowq = sim._nowq
                if len(nowq) >= NOW_QUEUE_LIMIT:
                    sim._overflow()
                seq = sim._seq
                sim._seq = seq + 1
                nowq.append((seq, bank._service, ()))
            else:
                seq = sim._seq
                sim._seq = seq + 1
                heappush(sim._heap, (busy_until, seq, bank._service, ()))

    # accept() inlines this for a request that finds room; keep in step.
    def _admitted(
        self, request: Request, bank: Bank, on_accepted: Optional[Callable[[], None]]
    ) -> None:
        """A parked request entered its bank queue (accept's retry path)."""
        self.requests_accepted += 1
        self.payload_bytes_accepted += request.payload_bytes
        if self.on_accept is not None:
            self.on_accept(request)
        if on_accepted is not None:
            on_accepted()
        bank.kick()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        return sum(len(bank.queue) for bank in self.banks)

    def reset_counters(self) -> None:
        self.requests_accepted = 0
        self.payload_bytes_accepted = 0
        self.tsv.reset_counters()
        self.command.reset_counters()
        for bank in self.banks:
            bank.accesses = 0
            bank.busy_time = 0.0
