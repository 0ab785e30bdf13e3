"""Request coalescing and batching between the socket and the executor.

The daemon's throughput story lives here.  Incoming measure requests
flow through a bounded :class:`asyncio.Queue` (backpressure: when the
queue is full, ``submit`` - and therefore the client connection that
called it - waits instead of piling up unbounded work), and a single
drain task repeatedly takes everything currently queued and runs it as
*one* batch on the parallel measurement executor in a worker thread.

Coalescing uses the same identity as the result cache: the point's
content-addressed :func:`~repro.core.cache.cache_key`.  While a key is
in flight, every further request for it awaits the first one's future -
N concurrent identical requests cost one simulation.  Requests arriving
after the key completes hit the executor's in-process memo instead, so
the invariant holds regardless of timing: one simulation per unique
point per process lifetime.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro.core.cache import cache_key
from repro.core.experiment import BandwidthMeasurement, MeasurementPoint
from repro.core.parallel import MeasurementExecutor
from repro.service.metrics import ServiceMetrics

#: Queue sentinel that tells the drain loop to exit.
_STOP = object()


class BatcherClosed(RuntimeError):
    """The batcher is draining and accepts no new work."""


class CoalescingBatcher:
    """Coalesce duplicate in-flight points; batch the rest.

    Parameters
    ----------
    executor:
        The :class:`MeasurementExecutor` misses are submitted to (its
        ``jobs`` setting decides simulation parallelism per batch).
    metrics:
        Counters to account coalesced / cache-served / simulated into.
    max_queue:
        Bound of the pending-point queue - the backpressure knob.
    max_batch:
        Most points drained into a single executor batch.
    """

    def __init__(
        self,
        executor: MeasurementExecutor,
        metrics: Optional[ServiceMetrics] = None,
        max_queue: int = 256,
        max_batch: int = 64,
    ) -> None:
        self._executor = executor
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._max_batch = max(1, max_batch)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=max(1, max_queue))
        self._inflight: Dict[str, asyncio.Future] = {}
        self._task: Optional[asyncio.Task] = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the drain task on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._drain_loop())

    async def drain(self) -> None:
        """Stop accepting work, finish everything queued, stop the task."""
        if self._closed:
            if self._task is not None:
                await self._task
            return
        self._closed = True
        await self._queue.put(_STOP)
        if self._task is not None:
            await self._task
            self._task = None

    @property
    def queue_depth(self) -> int:
        """Points currently waiting for a batch slot."""
        return self._queue.qsize()

    @property
    def inflight(self) -> int:
        """Unique keys queued or simulating right now."""
        return len(self._inflight)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, point: MeasurementPoint) -> BandwidthMeasurement:
        """Resolve one point: coalesce, or queue it for the next batch."""
        if self._closed:
            raise BatcherClosed("measurement service is draining")
        key = cache_key(point)
        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.coalesced += 1
            return await asyncio.shield(existing)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            await self._queue.put((key, point))
        except BaseException:
            # The submitter was cancelled while waiting for queue space:
            # nobody will ever enqueue this key, so fail its future for
            # any coalesced waiters that latched on meanwhile.
            self._inflight.pop(key, None)
            if not future.done():
                future.cancel()
            raise
        return await asyncio.shield(future)

    # ------------------------------------------------------------------
    # the drain task
    # ------------------------------------------------------------------
    async def _drain_loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _STOP:
                return
            batch: Dict[str, MeasurementPoint] = {item[0]: item[1]}
            stop_after = False
            while len(batch) < self._max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _STOP:
                    stop_after = True
                    break
                batch[extra[0]] = extra[1]
            await self._run_batch(batch)
            if stop_after:
                return

    async def _run_batch(self, batch: Dict[str, MeasurementPoint]) -> None:
        loop = asyncio.get_running_loop()
        # This executor's own count: other daemons in the process
        # simulate concurrently into the process-wide counters.
        before = self._executor.stats.simulations
        try:
            resolved = await loop.run_in_executor(
                None, self._executor.measure_keyed, batch
            )
        except Exception as exc:
            if len(batch) > 1:
                # One bad point must not fail its batch-mates: a failed
                # batch caches nothing, so resolve each key alone and let
                # only the failing one carry the error.
                for key, point in batch.items():
                    await self._run_batch({key: point})
                return
            # The server counts the failed request in ``errors`` when it
            # replies; counting it here too would count it twice.
            for key in batch:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(exc)
            return
        simulated = self._executor.stats.simulations - before
        self.metrics.batches += 1
        self.metrics.simulated += simulated
        self.metrics.cache_served += len(batch) - simulated
        for key in batch:
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result(resolved[key])
