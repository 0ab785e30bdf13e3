"""The measurement daemon: asyncio NDJSON server with graceful drain.

``repro serve`` binds a TCP listener and speaks the protocol of
:mod:`repro.service.protocol`.  Every request line becomes its own task,
so one connection can pipeline many requests and receive responses as
each completes (matched by the echoed ``id``).  Measure requests flow
through the :class:`~repro.service.batcher.CoalescingBatcher`; the
``stats`` verb exposes the live :class:`ServiceMetrics` snapshot.

Shutdown (SIGTERM, SIGINT, or the ``shutdown`` verb) is graceful: the
listener closes first, every request already read finishes - the
batcher drains its queue completely - responses are flushed, and only
then do connections close.  Requests a client sends *after* initiating
shutdown are answered with an error instead of being dropped silently.

The listener itself - per-line tasks, shutdown flag, signal handling,
the hostile-line rules and the background-thread wrapper - is
:class:`LineServer` / :class:`BackgroundLoop`, shared with the fleet
router (:mod:`repro.fleet.router`).
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from typing import Callable, Optional, Set

from repro.core import parallel, schema
from repro.core.cache import cache_key
from repro.core.parallel import MeasurementExecutor
from repro.obs import wiretrace
from repro.obs.log import get_logger
from repro.obs.registry import get_registry
from repro.service import protocol
from repro.service.batcher import BatcherClosed, CoalescingBatcher
from repro.service.metrics import ServiceMetrics


#: The longest request line a listener reads (asyncio's default
#: ``StreamReader`` limit).  A longer line is answered with an error and
#: its connection closed: the id cannot be read from a line that was
#: never read whole.
LINE_LIMIT = 2**16

#: Seconds a connection closed for an over-long line keeps draining its
#: peer's input.  Closing a socket with unread input resets it, and the
#: reset can destroy the error reply before the peer has read it.
LINGER_S = 2.0


class LineServer:
    """An NDJSON listener: one task per request line, graceful shutdown.

    The base of the daemon (:class:`MeasurementService`) and of the
    fleet router.  Subclasses bind with :meth:`_listen` in ``start()``,
    answer lines in :meth:`_handle_line`, count and answer unreadable
    lines in :meth:`_reject`, and drain in ``stop()``.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._line_tasks: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()

    async def start(self) -> None:
        raise NotImplementedError

    async def stop(self) -> None:
        raise NotImplementedError

    async def _listen(self) -> None:
        """Bind the listener; :attr:`port` then holds the bound port."""
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Flag the server to drain and exit (signal- and thread-safe)."""
        loop, event = self._loop, self._stop_requested
        if loop is None or event is None:
            return
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            event.set()
        else:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # loop already closed: nothing left to stop

    async def serve_until_shutdown(self, install_signal_handlers: bool = True) -> None:
        """Serve until SIGTERM/SIGINT or a ``shutdown`` verb, then drain."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    # Non-main thread or platform without signal support.
                    pass
        try:
            assert self._stop_requested is not None
            await self._stop_requested.wait()
            await self.stop()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    async def _stop_listening(self) -> None:
        """Close the listener and let the read loops stop pulling lines.

        Every line already read keeps running; ``stop()`` awaits them
        with :meth:`_finish_lines`.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.request_shutdown()

    async def _finish_lines(self) -> None:
        if self._line_tasks:
            await asyncio.gather(*tuple(self._line_tasks), return_exceptions=True)

    async def _close_connections(self) -> None:
        for writer in tuple(self._writers):
            await _close_writer(writer)
        self._writers.clear()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        assert self._stop_requested is not None
        try:
            while not self._stop_requested.is_set():
                try:
                    line = await reader.readline()
                except ValueError:  # the line outgrew LINE_LIMIT
                    await self._reject(
                        writer,
                        write_lock,
                        f"request line exceeds {LINE_LIMIT} bytes",
                    )
                    await _discard_input(reader, writer)
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._handle_line(line, writer, write_lock)
                )
                self._line_tasks.add(task)
                task.add_done_callback(self._line_tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if not self._stop_requested.is_set():
                self._writers.discard(writer)
                await _close_writer(writer)
            # During shutdown, stop() owns flushing and closing writers.

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        raise NotImplementedError

    async def _reject(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, message: str
    ) -> None:
        """Count and answer a line that is not a valid request."""
        raise NotImplementedError

    async def _send(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, payload: dict
    ) -> None:
        await self._send_raw(
            writer, write_lock, (schema.dumps(payload) + "\n").encode()
        )

    async def _send_raw(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, data: bytes
    ) -> None:
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away; its results stay cached anyway


async def _discard_input(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close, then drop the peer's input until EOF or :data:`LINGER_S`."""
    try:
        if writer.can_write_eof():
            writer.write_eof()
    except (OSError, RuntimeError):
        return

    async def drain() -> None:
        while await reader.read(LINE_LIMIT):
            pass

    try:
        await asyncio.wait_for(drain(), timeout=LINGER_S)
    except (asyncio.TimeoutError, ConnectionError):
        pass


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        if writer.can_write_eof():
            writer.write_eof()
    except (OSError, RuntimeError):
        pass
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


class MeasurementService(LineServer):
    """One daemon instance: listener + batcher + metrics.

    Parameters mirror the CLI: ``jobs``/``use_cache`` configure the
    underlying :class:`MeasurementExecutor` (``None`` inherits the
    process defaults), ``max_queue``/``max_batch`` the batcher.
    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.
    """

    def __init__(
        self,
        host: str = protocol.DEFAULT_HOST,
        port: int = protocol.DEFAULT_PORT,
        jobs: Optional[int] = None,
        use_cache: Optional[bool] = None,
        max_queue: int = 256,
        max_batch: int = 64,
    ) -> None:
        super().__init__(host, port)
        self.metrics = ServiceMetrics()
        self._log = get_logger("backend")
        self._executor = MeasurementExecutor(jobs=jobs, use_cache=use_cache)
        self._batcher = CoalescingBatcher(
            self._executor,
            metrics=self.metrics,
            max_queue=max_queue,
            max_batch=max_batch,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the batcher's drain task."""
        # Fork the worker pool while no listener or connection socket
        # exists: forked workers inherit open fds, and a worker holding
        # the daemon's sockets would keep them alive past a SIGKILL —
        # peers (the fleet router) would hang instead of failing over.
        self._executor.prefork()
        self._batcher.start()
        await self._listen()
        self._log.info(
            "serve_started", host=self.host, port=self.port,
            workers=parallel.pool_workers(),
        )

    async def stop(self) -> None:
        """Graceful drain: close listener, finish queued work, flush."""
        await self._stop_listening()
        # The batcher completes everything the read lines submitted
        # before its drain returns.
        await self._finish_lines()
        await self._batcher.drain()
        await self._close_connections()
        self._log.info(
            "serve_drained",
            measure_requests=self.metrics.measure_requests,
            errors=self.metrics.errors,
        )

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        self.metrics.requests += 1
        try:
            request = protocol.parse_request(line.decode())
        except (schema.SchemaError, UnicodeDecodeError) as exc:
            await self._reject(writer, write_lock, str(exc))
            return
        if request.verb == "ping":
            response = protocol.ok_response(request.id, {"pong": True})
        elif request.verb == "stats":
            response = protocol.ok_response(
                request.id,
                self.metrics.snapshot(
                    queue_depth=self._batcher.queue_depth,
                    inflight=self._batcher.inflight,
                ),
            )
        elif request.verb == "metrics":
            response = protocol.ok_response(
                request.id, schema.metrics_to_dict(self.metrics_snapshot())
            )
        elif request.verb == "shutdown":
            response = protocol.ok_response(request.id, {"stopping": True})
            self.request_shutdown()
        else:  # measure
            response = await self._handle_measure(request)
        await self._send(writer, write_lock, response)

    async def _handle_measure(self, request: protocol.Request) -> dict:
        self.metrics.measure_requests += 1
        started = time.monotonic()
        assert request.point is not None
        traced = wiretrace.parse_trace_field(request.trace)
        span = None
        if traced is not None:
            # The serve span carries the point's cache key so the
            # exporter can hang the fork worker's simulation subtree
            # (stamped with the same key) underneath it.
            span = wiretrace.start_span(
                "backend",
                "serve",
                trace_id=traced["trace_id"],
                parent_id=traced["span_id"],
                attrs={"cache_key": cache_key(request.point)},
            )
        try:
            measurement = await self._batcher.submit(request.point)
        except BatcherClosed as exc:
            self.metrics.errors += 1
            if span is not None:
                span.finish(ok=False, error=str(exc))
            return protocol.error_response(request.id, str(exc))
        except Exception as exc:  # simulation failure: report, keep serving
            self.metrics.errors += 1
            self._log.error(
                "measure_failed",
                trace_id=traced["trace_id"] if traced else None,
                error=f"{type(exc).__name__}: {exc}",
            )
            if span is not None:
                span.finish(ok=False, error=f"{type(exc).__name__}: {exc}")
            return protocol.error_response(
                request.id, f"{type(exc).__name__}: {exc}"
            )
        self.metrics.latency.observe(time.monotonic() - started)
        if span is not None:
            span.finish(ok=True)
        return protocol.ok_response(
            request.id, schema.measurement_to_dict(measurement)
        )

    def metrics_snapshot(self) -> dict:
        """The ``metrics`` verb's answer: process collectors + own series."""
        return get_registry().snapshot(extra_series=self.metrics.series())

    async def _reject(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, message: str
    ) -> None:
        self.metrics.errors += 1
        await self._send(writer, write_lock, protocol.error_response(None, message))


def run_service(
    host: str = protocol.DEFAULT_HOST,
    port: int = protocol.DEFAULT_PORT,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    max_queue: int = 256,
    max_batch: int = 64,
) -> None:
    """Run a daemon in the foreground until SIGTERM/SIGINT (the CLI path).

    The ``listening on host:port`` line it prints is the ready line
    ``repro fleet up`` waits for.  Its metrics are scraped through the
    ``metrics`` verb (``repro metrics --port PORT [--serve PORT]``).
    """

    async def _main() -> None:
        service = MeasurementService(
            host=host,
            port=port,
            jobs=jobs,
            use_cache=use_cache,
            max_queue=max_queue,
            max_batch=max_batch,
        )
        await service.start()
        print(f"repro serve: listening on {service.host}:{service.port}", flush=True)
        await service.serve_until_shutdown()
        snapshot = service.metrics.snapshot()
        print(
            "repro serve: drained cleanly "
            f"({snapshot['measure_requests']} measure requests, "
            f"{snapshot['coalesced']} coalesced, "
            f"{snapshot['cache_served']} cache-served, "
            f"{snapshot['simulated']} simulated)",
            flush=True,
        )

    asyncio.run(_main())
    # The daemon owned the process: drain the shared worker pool so the
    # interpreter exits promptly instead of waiting on idle workers.
    parallel.shutdown_pool()


class BackgroundLoop:
    """A :class:`LineServer` on a dedicated thread (tests, notebooks, embedding).

    ``start()`` blocks until the listener is bound and returns the
    port - or re-raises whatever the thread died of, including
    construction errors, so a misconfigured server fails fast instead
    of hanging the caller on a ready flag nobody will ever set.
    ``stop()`` performs the same graceful drain as SIGTERM, joins the
    thread, and *reports* a thread that failed to stop within the
    timeout (a stuck drain raises instead of silently leaking the
    server).  Usable as a context manager.
    """

    def __init__(self, factory: Callable[[], LineServer], name: str) -> None:
        self._factory = factory
        self._name = name
        self.server: Optional[LineServer] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        """Launch the server thread; returns the bound port."""
        self._thread = threading.Thread(target=self._run, name=self._name, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        assert self.port is not None
        return self.port

    def stop(self, timeout: float = 60.0) -> None:
        """Request graceful drain and join the server thread.

        Raises :class:`RuntimeError` when the thread is still alive
        after ``timeout`` seconds - a drain that cannot finish (a hung
        simulation, a wedged pool) must be reported, not swallowed.
        """
        server = self.server
        if server is not None:
            server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise RuntimeError(
                    f"{self._name} thread failed to stop within {timeout}s "
                    "(drain is stuck; its port stays bound)"
                )

    def _run(self) -> None:
        async def _main() -> None:
            self.server = self._factory()
            await self.server.start()
            self.port = self.server.port
            self._ready.set()
            await self.server.serve_until_shutdown(install_signal_handlers=False)

        try:
            asyncio.run(_main())
        except BaseException as exc:
            # Anything raised before the listener bound - including a
            # construction error - must reach the caller blocked in
            # start(), not die silently on this thread while start()
            # waits forever.
            if self._startup_error is None:
                self._startup_error = exc
        finally:
            self._ready.set()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


class BackgroundService(BackgroundLoop):
    """A :class:`MeasurementService` on a dedicated thread."""

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("port", 0)
        super().__init__(
            lambda: MeasurementService(**kwargs), "repro-measurement-service"
        )

    @property
    def service(self) -> Optional[MeasurementService]:
        return self.server  # type: ignore[return-value]
