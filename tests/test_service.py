"""Integration tests for the measurement daemon and its client.

The daemon runs in-process (:class:`BackgroundService` on its own event
loop thread) with ephemeral ports, so the suite needs no network setup
and can run many instances concurrently.  Each test uses a unique
simulation window so its points are guaranteed cold in the memo/cache.
"""

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import parallel
from repro.core.experiment import (
    ExperimentSettings,
    MeasurementPoint,
    simulate_point,
)
from repro.core.parallel import MeasurementExecutor
from repro.core.patterns import pattern_by_name
from repro.hmc.packet import RequestType
from repro.service.batcher import BatcherClosed, CoalescingBatcher
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError
from repro.service.server import BackgroundService


def _tiny(window_us: float) -> ExperimentSettings:
    """Unique-window settings: cold in every cache, cheap to simulate."""
    return ExperimentSettings(warmup_us=5.0, window_us=window_us)


def _point(settings: ExperimentSettings, payload_bytes: int = 32, seed: int = 1):
    pattern = pattern_by_name("1 bank", settings.config)
    return MeasurementPoint.for_pattern(
        pattern,
        request_type=RequestType.READ,
        payload_bytes=payload_bytes,
        settings=settings,
    ) if seed == 1 else MeasurementPoint(
        mask=pattern.mask,
        request_type=RequestType.READ,
        payload_bytes=payload_bytes,
        settings=settings,
        pattern_name=pattern.name,
        seed=seed,
    )


def test_hundred_identical_requests_cost_one_simulation():
    """The coalescing guarantee: N identical in-flight points, 1 run."""
    settings = _tiny(window_us=10.25)
    point = _point(settings)
    expected = simulate_point(point)[0]
    parallel.reset()
    with BackgroundService(jobs=1) as service:
        def worker(_index: int):
            with ServiceClient(port=service.port) as client:
                return client.measure_many([point] * 25)

        with ThreadPoolExecutor(max_workers=4) as pool:
            batches = list(pool.map(worker, range(4)))
        with ServiceClient(port=service.port) as client:
            stats = client.stats()

    results = [m for batch in batches for m in batch]
    assert len(results) == 100
    assert parallel.stats().simulations == 1
    assert stats["measure_requests"] == 100
    assert stats["simulated"] == 1
    assert stats["coalesced"] + stats["cache_served"] == 99
    # Daemon-served results are bit-identical to the in-process run.
    assert all(repr(m) == repr(expected) for m in results)


def test_mixed_load_mostly_coalesces_and_matches_direct_runs():
    """100 concurrent requests over 10 distinct points: >=90 free."""
    settings = _tiny(window_us=10.5)
    points = [_point(settings, seed=seed) for seed in range(1, 11)]
    expected = {point.seed: simulate_point(point)[0] for point in points}
    parallel.reset()
    with BackgroundService(jobs=1) as service:
        def worker(_index: int):
            with ServiceClient(port=service.port) as client:
                return client.measure_many(points)

        with ThreadPoolExecutor(max_workers=10) as pool:
            batches = list(pool.map(worker, range(10)))
        with ServiceClient(port=service.port) as client:
            stats = client.stats()

    assert parallel.stats().simulations == len(points)
    assert stats["measure_requests"] == 100
    assert stats["simulated"] == len(points)
    assert stats["coalesced"] + stats["cache_served"] >= 90
    for batch in batches:
        for point, measurement in zip(points, batch):
            assert repr(measurement) == repr(expected[point.seed])
    latency = stats["latency"]
    assert latency["count"] == 100
    assert latency["p95_ms"] >= latency["p50_ms"] > 0


def test_stats_ping_and_error_responses():
    with BackgroundService(jobs=1) as service:
        with ServiceClient(port=service.port) as client:
            assert client.ping() is True
            stats = client.stats()
            for key in (
                "uptime_s",
                "requests",
                "measure_requests",
                "coalesced",
                "cache_served",
                "simulated",
                "queue_depth",
                "inflight",
                "latency",
            ):
                assert key in stats
        # Malformed lines get an error response, not a dropped connection.
        with socket.create_connection(("127.0.0.1", service.port)) as raw:
            handle = raw.makefile("rwb")
            handle.write(b"this is not json\n")
            handle.write(b'{"schema": 1, "verb": "frobnicate"}\n')
            handle.write(b'{"schema": 7, "verb": "ping"}\n')
            handle.flush()
            import json

            for _ in range(3):
                response = json.loads(handle.readline())
                assert response["ok"] is False
                assert response["error"]
        with ServiceClient(port=service.port) as client:
            with pytest.raises(ServiceError):
                client._roundtrip({"schema": 1, "verb": "measure"})


def test_retired_kernel_name_gets_error_and_connection_keeps_serving():
    import json

    from repro.service.protocol import measure_request

    request = measure_request(_point(_tiny(window_us=10.5)), request_id=1)
    request["point"]["settings"]["kernel"] = "auto"
    with BackgroundService(jobs=1) as service:
        with socket.create_connection(("127.0.0.1", service.port)) as raw:
            handle = raw.makefile("rwb")
            handle.write(json.dumps(request).encode() + b"\n")
            handle.write(b'{"schema": 1, "verb": "ping"}\n')
            handle.flush()
            rejected = json.loads(handle.readline())
            assert rejected["ok"] is False
            assert "kernel" in rejected["error"]
            assert "result" not in rejected
            assert json.loads(handle.readline())["ok"] is True


def test_failing_point_does_not_fail_its_batch_mates():
    """Only the failing point of a pipelined batch gets the error reply."""
    import json
    from dataclasses import replace

    from repro.service.protocol import measure_request

    settings = _tiny(window_us=10.625)
    good = _point(settings)
    bad = replace(_point(settings, payload_bytes=64), active_ports=1000)
    expected = simulate_point(good)[0]
    with BackgroundService(jobs=1) as service:
        with socket.create_connection(("127.0.0.1", service.port)) as raw:
            handle = raw.makefile("rwb")
            for request_id, point in ((1, bad), (2, good)):
                request = measure_request(point, request_id=request_id)
                handle.write(json.dumps(request).encode() + b"\n")
            handle.flush()
            replies = {}
            for _ in range(2):
                reply = json.loads(handle.readline())
                replies[reply["id"]] = reply
        with ServiceClient(port=service.port) as client:
            stats = client.stats()

    assert replies[1]["ok"] is False
    assert "ConfigurationError" in replies[1]["error"]
    assert replies[2]["ok"] is True
    assert replies[2]["result"]["bandwidth_gbs"] == expected.bandwidth_gbs
    assert stats["errors"] == 1


def test_metrics_verb_returns_registry_snapshot():
    with BackgroundService(jobs=1) as service:
        with ServiceClient(port=service.port) as client:
            client.ping()
            snapshot = client.metrics()
    series = snapshot["series"]
    by_name = {entry["name"] for entry in series}
    # the daemon's own counters and the process-wide executor series
    assert "service_requests_total" in by_name
    assert "service_uptime_seconds" in by_name
    assert "executor_simulations_total" in by_name
    histogram = next(
        entry for entry in series if entry["name"] == "service_latency_seconds"
    )
    assert histogram["type"] == "histogram"
    assert "+Inf" in histogram["buckets"]


def _series(snapshot, name):
    return [entry for entry in snapshot["series"] if entry["name"] == name]


def test_fresh_daemon_metrics_latency_count_matches_its_stats():
    """Each served request is observed once, into its own daemon's histogram."""
    with BackgroundService(jobs=1, use_cache=False) as busy:
        with ServiceClient(port=busy.port) as client:
            client.measure(_point(_tiny(window_us=10.875)))
            busy_metrics, busy_stats = client.metrics(), client.stats()
    with BackgroundService(jobs=1, use_cache=False) as fresh:
        with ServiceClient(port=fresh.port) as client:
            fresh_metrics, fresh_stats = client.metrics(), client.stats()
    for metrics, stats in ((busy_metrics, busy_stats), (fresh_metrics, fresh_stats)):
        (histogram,) = _series(metrics, "service_latency_seconds")
        assert histogram["count"] == stats["latency"]["count"]
    assert busy_stats["latency"]["count"] == 1
    assert fresh_stats["latency"]["count"] == 0


def test_two_daemons_in_one_process_each_report_only_their_own_series():
    with BackgroundService(jobs=1) as first, BackgroundService(jobs=1) as second:
        with ServiceClient(port=first.port) as client:
            client.ping()
            client.ping()
        snapshots = []
        for service in (first, second):
            with ServiceClient(port=service.port) as client:
                snapshots.append(client.metrics())
    counts = []
    for snapshot in snapshots:
        (requests,) = _series(snapshot, "service_requests_total")
        assert requests["labels"] == {}
        counts.append(requests["value"])
    # Each daemon counts its own lines: two pings + the metrics request,
    # and the metrics request alone.
    assert counts == [3, 1]


def test_two_daemons_in_one_process_each_count_only_their_own_simulations():
    """``simulated`` is what the daemon's own executor ran, even when a
    second daemon in the process simulates while its batch is open."""
    settings = _tiny(window_us=11.0625)
    parallel.reset()
    with BackgroundService(jobs=1, use_cache=False) as first, BackgroundService(
        jobs=1, use_cache=False
    ) as second:
        executors = [first.service._executor, second.service._executor]
        entered, released = threading.Event(), threading.Event()
        measure_keyed = executors[0].measure_keyed

        def held(batch):
            entered.set()
            released.wait(timeout=60)
            return measure_keyed(batch)

        executors[0].measure_keyed = held

        def measure_on_first():
            with ServiceClient(port=first.port) as client:
                return client.measure(_point(settings, payload_bytes=32))

        with ThreadPoolExecutor(max_workers=1) as pool:
            pending = pool.submit(measure_on_first)
            assert entered.wait(timeout=60)
            with ServiceClient(port=second.port) as client:
                client.measure_many([_point(settings, 64), _point(settings, 128)])
            released.set()
            pending.result(timeout=60)
        stats = []
        for service in (first, second):
            with ServiceClient(port=service.port) as client:
                stats.append(client.stats())
    assert [s["simulated"] for s in stats] == [1, 2]
    assert [s["cache_served"] for s in stats] == [0, 0]
    assert [executor.stats.simulations for executor in executors] == [1, 2]


def test_shutdown_verb_drains_and_stops_accepting():
    settings = _tiny(window_us=10.75)
    with BackgroundService(jobs=1) as service:
        port = service.port
        with ServiceClient(port=port) as client:
            results = client.measure_many([_point(settings)] * 5)
            assert len(results) == 5
            client.shutdown()
        service._thread.join(timeout=30)
        assert not service._thread.is_alive()
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=0.5).close()


def test_batcher_drain_completes_inflight_work():
    """Graceful drain: everything submitted before drain still resolves."""

    async def scenario():
        settings = _tiny(window_us=11.25)
        batcher = CoalescingBatcher(MeasurementExecutor(jobs=1), max_batch=2)
        batcher.start()
        points = [_point(settings, payload_bytes=size) for size in (16, 32, 48)]
        tasks = [asyncio.ensure_future(batcher.submit(p)) for p in points]
        await asyncio.sleep(0)  # let every submit enqueue its point
        await batcher.drain()
        results = await asyncio.gather(*tasks)
        assert [m.payload_bytes for m in results] == [16, 32, 48]
        with pytest.raises(BatcherClosed):
            await batcher.submit(points[0])

    asyncio.run(scenario())


class _RejectingExecutor:
    """Executor stub whose batches fail whenever they hold a rejected key."""

    def __init__(self, rejected):
        self.rejected = set(rejected)
        self.calls = []
        self.stats = parallel.ExecutorStats()

    def measure_keyed(self, keyed):
        self.calls.append(sorted(keyed))
        bad = self.rejected.intersection(keyed)
        if bad:
            raise ValueError(f"rejected {sorted(bad)}")
        return {key: f"measured {key}" for key in keyed}


def _run_batcher_on(executor, points):
    """Submit ``points`` as one batch; return each submit's result or error."""

    async def scenario():
        batcher = CoalescingBatcher(executor, max_batch=len(points))
        batcher.start()
        tasks = [asyncio.ensure_future(batcher.submit(p)) for p in points]
        await asyncio.sleep(0)  # let every submit enqueue its point
        await batcher.drain()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        return outcomes, batcher.metrics

    return asyncio.run(scenario())


def test_batcher_resolves_a_failed_batch_key_by_key():
    """A failing key is retried alone; its batch-mates get their results."""
    from repro.core.cache import cache_key

    settings = _tiny(window_us=11.625)
    points = [_point(settings, payload_bytes=size) for size in (16, 32, 48)]
    keys = [cache_key(p) for p in points]
    executor = _RejectingExecutor(rejected=[keys[1]])

    outcomes, metrics = _run_batcher_on(executor, points)

    assert outcomes[0] == f"measured {keys[0]}"
    assert isinstance(outcomes[1], ValueError)
    assert outcomes[2] == f"measured {keys[2]}"
    assert executor.calls == [sorted(keys)] + [[key] for key in keys]
    assert metrics.errors == 0  # the server counts failed replies


def test_batcher_does_not_retry_a_failed_single_key_batch():
    from repro.core.cache import cache_key

    point = _point(_tiny(window_us=11.75))
    executor = _RejectingExecutor(rejected=[cache_key(point)])

    outcomes, metrics = _run_batcher_on(executor, [point])

    assert isinstance(outcomes[0], ValueError)
    assert executor.calls == [[cache_key(point)]]
    assert metrics.errors == 0


def test_backpressure_queue_bounds_pending_points():
    """A full queue delays submitters instead of growing without bound."""

    async def scenario():
        settings = _tiny(window_us=11.5)
        batcher = CoalescingBatcher(
            MeasurementExecutor(jobs=1), max_queue=2, max_batch=1
        )
        points = [
            _point(settings, payload_bytes=16 * (1 + i % 8), seed=1 + i // 8)
            for i in range(6)
        ]
        batcher.start()
        tasks = [asyncio.ensure_future(batcher.submit(p)) for p in points]
        results = await asyncio.gather(*tasks)
        assert len(results) == 6
        await batcher.drain()

    asyncio.run(scenario())


def test_read_timeout_raises_typed_timeout_error():
    """A daemon that accepts but never answers must not hang the client."""
    from repro.service.protocol import ServiceTimeoutError

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    try:
        client = ServiceClient(port=port, connect_timeout=5.0, read_timeout=0.2)
        try:
            with pytest.raises(ServiceTimeoutError, match="timed out after 0.2s"):
                client.ping()
        finally:
            client.close()
    finally:
        listener.close()
    # The typed error serves both exception families: existing callers
    # catching ServiceError and new callers catching TimeoutError.
    assert issubclass(ServiceTimeoutError, ServiceError)
    assert issubclass(ServiceTimeoutError, TimeoutError)


def test_background_service_start_propagates_startup_failures():
    """A daemon that cannot bind must raise in start(), not hang forever."""
    service = BackgroundService(host="999.999.999.999")
    with pytest.raises(OSError):
        service.start()


def test_background_service_stop_is_clean_after_failed_start():
    service = BackgroundService(host="999.999.999.999")
    with pytest.raises(OSError):
        service.start()
    service.stop()  # the dead thread joins immediately; no error


def test_daemon_preforks_worker_pool_before_serving():
    """The pool must fork before any socket exists (fd inheritance).

    A pool forked lazily mid-request inherits the daemon's listener and
    connection fds; after a SIGKILL those sockets stay alive in the
    orphaned workers and peers — the fleet router in particular — hang
    on reads that never see EOF instead of failing over.
    """
    parallel.shutdown_pool()
    try:
        with BackgroundService(jobs=2, use_cache=False):
            assert parallel.pool_workers() >= 2
            # The width being configured is not enough - the worker
            # *processes* must exist (ProcessPoolExecutor forks lazily).
            assert len(parallel._POOL._processes) >= 2
    finally:
        parallel.shutdown_pool()
