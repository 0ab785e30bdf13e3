"""The fleet front-end: an asyncio NDJSON router over N backends.

The router speaks exactly the daemon protocol
(:mod:`repro.service.protocol`, ``"schema": 1``) on its listener, so
every existing client - ``repro query``, :class:`ServiceClient`, a raw
socket - works against a fleet unchanged.  For each ``measure`` request
it computes the point's content-addressed cache key
(:func:`repro.core.cache.cache_key`) - the same identity the backends
coalesce and cache on - and walks the key's hash-ring preference order
(:class:`~repro.fleet.ring.HashRing`): the owner backend first, then
each successor until one answers.  The request and response lines are
relayed *verbatim*, which is what makes a 1-backend fleet byte-identical
to talking to ``repro serve`` directly.

Per backend the router keeps a :class:`BackendChannel`: a pool of
reusable connections plus a semaphore bounding the in-flight window, so
one slow backend queues its own work instead of exhausting router-side
file descriptors.  A client that pipelines a whole ``measure_many``
batch gets scatter-gather for free - every request line is its own
asyncio task, so the batch fans out across backends concurrently and
responses return as they complete (matched by the echoed ``id``).

Failure handling: a connect error, read timeout, or a disconnect
before a whole response line marks the backend dead, removes it from
the ring (only its key share moves - a *rebalance*, counted), and the
request fails over to the next preference node; a partial line is
never relayed.  A background probe pings dead backends every
:data:`PROBE_INTERVAL` seconds and restores them to the ring when they
answer.  The listener (:class:`~repro.service.server.LineServer`, shared
with the daemon) answers malformed and over-long request lines with an
error reply.  All of it is observable: the router owns its
``fleet_requests_total{backend=}``, ``fleet_failovers_total{backend=}``,
``fleet_ring_rebalances_total{event=}`` and per-backend latency
histogram (:meth:`FleetRouter.series`); the ``stats`` verb
renders the same state as per-backend health with p50/p95, and the
``metrics`` verb answers the whole fleet's merged snapshot.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core import schema
from repro.core.cache import cache_key
from repro.fleet.ring import DEFAULT_REPLICAS, HashRing
from repro.obs import aggregate, wiretrace
from repro.obs.log import get_logger
from repro.obs.registry import Histogram, get_registry
from repro.service import protocol
from repro.service.server import BackgroundLoop, LineServer

#: Seconds between liveness probes of dead backends.
PROBE_INTERVAL = 2.0

#: Bound on concurrent in-flight requests per backend.
DEFAULT_WINDOW = 8

#: Default connect/read timeouts towards a backend, seconds.  Reads are
#: generous - a cold simulation takes real time - but not infinite: a
#: wedged backend must eventually fail over, not hang its clients.
CONNECT_TIMEOUT = 5.0
READ_TIMEOUT = 600.0


class BackendUnavailable(ConnectionError):
    """A backend could not be reached or died mid-request."""


class BackendChannel:
    """Pooled connections and a bounded in-flight window to one backend.

    Connections are used exclusively for one request/response round trip
    and then returned to the free list, so response matching needs no id
    bookkeeping; the semaphore bounds how many round trips (and thus how
    many connections) can be in flight at once.
    """

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        connect_timeout: float = CONNECT_TIMEOUT,
        read_timeout: float = READ_TIMEOUT,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.inflight = 0
        self._window = asyncio.Semaphore(DEFAULT_WINDOW)
        self._free: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def _acquire(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        while self._free:
            reader, writer = self._free.pop()
            if not writer.is_closing():
                return reader, writer
            _abandon(writer)
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=self.connect_timeout,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise BackendUnavailable(
                f"{self.name} ({self.host}:{self.port}): connect failed: {exc}"
            ) from None

    async def roundtrip(
        self, line: bytes, timing: Optional[Dict[str, float]] = None
    ) -> bytes:
        """Send one request line, return the backend's response line.

        Raises :class:`BackendUnavailable` on connect failure, read
        timeout, or a connection closed before a whole response line -
        the signals the router fails over on.  When ``timing`` is
        given, the wait for an in-flight window slot is reported into it
        as ``queue_wait_start_us`` (epoch) / ``queue_wait_us``
        (duration) so the router can record a queue-wait span for
        traced requests.
        """
        if timing is not None:
            queue_entered = (time.time(), time.perf_counter())
        async with self._window:
            if timing is not None:
                timing["queue_wait_start_us"] = queue_entered[0] * 1e6
                timing["queue_wait_us"] = (
                    time.perf_counter() - queue_entered[1]
                ) * 1e6
            reader, writer = await self._acquire()
            self.inflight += 1
            try:
                writer.write(line)
                await writer.drain()
                response = await asyncio.wait_for(
                    reader.readline(), timeout=self.read_timeout
                )
            except (OSError, ValueError, asyncio.TimeoutError) as exc:
                # ValueError: a reply line over the stream limit.
                _abandon(writer)
                raise BackendUnavailable(
                    f"{self.name} ({self.host}:{self.port}): {exc or 'read timed out'}"
                ) from None
            finally:
                self.inflight -= 1
            if not response.endswith(b"\n"):
                # EOF before a whole line: relaying the fragment would
                # splice it into the client's next reply.
                _abandon(writer)
                raise BackendUnavailable(
                    f"{self.name} ({self.host}:{self.port}): closed mid-response"
                )
            self._free.append((reader, writer))
            return response

    async def probe(self) -> bool:
        """One ``ping`` round trip; True when the backend answers."""
        line = (schema.dumps(protocol.verb_request("ping")) + "\n").encode()
        try:
            response = await self.roundtrip(line)
            return bool(protocol.parse_response(response.decode()).get("ok"))
        except (BackendUnavailable, schema.SchemaError):
            return False

    def close(self) -> None:
        """Drop every pooled connection."""
        while self._free:
            _, writer = self._free.pop()
            _abandon(writer)


def _abandon(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
    except (OSError, RuntimeError):
        pass


class FleetRouter(LineServer):
    """One router process: listener + hash ring + backend channels.

    ``backends`` maps stable ring names to ``(host, port)`` addresses.
    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.
    """

    def __init__(
        self,
        backends: Mapping[str, Tuple[str, int]],
        host: str = protocol.DEFAULT_HOST,
        port: int = 0,
        replicas: int = DEFAULT_REPLICAS,
        connect_timeout: float = CONNECT_TIMEOUT,
        read_timeout: float = READ_TIMEOUT,
    ) -> None:
        if not backends:
            raise ValueError("a fleet router needs at least one backend")
        super().__init__(host, port)
        self.started = time.monotonic()
        self._log = get_logger("router")
        self.ring = HashRing(backends, replicas=replicas)
        self.channels: Dict[str, BackendChannel] = {
            name: BackendChannel(
                name,
                address[0],
                address[1],
                connect_timeout=connect_timeout,
                read_timeout=read_timeout,
            )
            for name, address in backends.items()
        }
        self.dead: Set[str] = set()
        self.requests = 0
        self.measure_requests = 0
        self.errors = 0
        # Retries (attempts after a request's first).  Not the sum of
        # ``_backend_failures``, which counts failed attempts: a request
        # that exhausts the ring fails once more than it retries.
        self.failovers = 0
        # Per-backend and per-event state that stats() and series() both
        # read; the ring total is a sum over it.
        self._backend_requests = {name: 0 for name in backends}
        self._backend_failures = {name: 0 for name in backends}
        self._latency = {
            name: Histogram("fleet_backend_latency_seconds", {"backend": name})
            for name in backends
        }
        self._rebalances = {"removed": 0, "restored": 0}
        self._probe_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # lifecycle (the listener is the shared LineServer)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the dead-backend probe task."""
        await self._listen()
        loop = asyncio.get_running_loop()
        self._probe_task = loop.create_task(self._probe_loop())
        self._log.info(
            "router_started",
            host=self.host,
            port=self.port,
            backends=sorted(self.channels),
        )

    async def stop(self) -> None:
        """Graceful drain: close listener, finish in-flight relays."""
        await self._stop_listening()
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        await self._finish_lines()
        await self._close_connections()
        for channel in self.channels.values():
            channel.close()
        self._log.info(
            "router_drained",
            measure_requests=self.measure_requests,
            failovers=self.failovers,
            rebalances=self.rebalances,
        )

    # ------------------------------------------------------------------
    # ring health
    # ------------------------------------------------------------------
    def _mark_dead(self, name: str) -> None:
        """Remove a failed backend from the ring (its key share moves)."""
        if name in self.dead or name not in self.ring:
            return
        if len(self.ring) == 1:
            # The last backend stays on the ring: requests keep trying
            # it (and erroring) instead of having nowhere to hash to.
            return
        self.ring.remove(name)
        self.dead.add(name)
        self._rebalances["removed"] += 1
        self._log.warning(
            "backend_dead", backend=name, ring_nodes=sorted(self.ring.nodes)
        )

    def _restore(self, name: str) -> None:
        """Re-add a recovered backend (its key share moves back)."""
        if name not in self.dead:
            return
        self.dead.discard(name)
        self.ring.add(name)
        self._rebalances["restored"] += 1
        self._log.info(
            "backend_restored", backend=name, ring_nodes=sorted(self.ring.nodes)
        )

    async def _probe_loop(self) -> None:
        """Ping dead backends periodically; restore the ones that answer."""
        while True:
            await asyncio.sleep(PROBE_INTERVAL)
            for name in sorted(self.dead):
                if await self.channels[name].probe():
                    self._restore(name)

    @property
    def rebalances(self) -> int:
        """Ring membership changes, removals and restorations alike."""
        return sum(self._rebalances.values())

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        self.requests += 1
        try:
            request = protocol.parse_request(line.decode())
        except (schema.SchemaError, UnicodeDecodeError) as exc:
            await self._reject(writer, write_lock, str(exc))
            return
        if request.verb == "ping":
            await self._send(
                writer, write_lock, protocol.ok_response(request.id, {"pong": True})
            )
        elif request.verb == "stats":
            await self._send(
                writer, write_lock, protocol.ok_response(request.id, self.stats())
            )
        elif request.verb == "metrics":
            await self._send(
                writer,
                write_lock,
                protocol.ok_response(
                    request.id, schema.metrics_to_dict(await self.fleet_snapshot())
                ),
            )
        elif request.verb == "shutdown":
            await self._send(
                writer, write_lock, protocol.ok_response(request.id, {"stopping": True})
            )
            self.request_shutdown()
        else:  # measure: relay raw lines so payloads stay byte-identical
            self.measure_requests += 1
            assert request.point is not None
            response = await self._route_measure(line, request)
            await self._send_raw(writer, write_lock, response)

    async def _route_measure(self, line: bytes, request: protocol.Request) -> bytes:
        """Relay one measure line along its key's ring preference order.

        Untraced lines relay verbatim (response lines always do).  A
        *traced* request additionally grows a ``route`` span covering
        the whole routing operation, one ``relay`` (or, on failure,
        ``failover``) child per attempt, and a ``queue_wait`` child
        under the successful relay for the in-flight window wait; the
        relayed line's ``trace.span_id`` is rewritten per attempt so
        the backend's serve span parents under the relay span.
        """
        key = cache_key(request.point)
        traced = wiretrace.parse_trace_field(request.trace)
        route_span = None
        if traced is not None:
            route_span = wiretrace.start_span(
                "router",
                "route",
                trace_id=traced["trace_id"],
                parent_id=traced["span_id"],
                attrs={"cache_key": key},
            )
        tried: Set[str] = set()
        first = True
        # The preference list is re-read after each failure: marking a
        # backend dead rebalances the ring, and the retry should follow
        # the *new* placement (which is also what later requests see).
        while True:
            candidates = [
                name for name in self.ring.preference(key) if name not in tried
            ]
            if not candidates:
                break
            name = candidates[0]
            tried.add(name)
            if not first:
                self.failovers += 1
            first = False
            channel = self.channels[name]
            relay_line = line
            relay_span = None
            timing: Optional[Dict[str, float]] = None
            if route_span is not None:
                relay_span = wiretrace.start_span(
                    "router",
                    "relay",
                    trace_id=route_span.trace_id,
                    parent_id=route_span.span_id,
                    attrs={"backend": name},
                )
                relay_line = _retrace_line(line, relay_span)
                timing = {}
            started = time.monotonic()
            try:
                response = await channel.roundtrip(relay_line, timing=timing)
            except BackendUnavailable as exc:
                self._backend_failures[name] += 1
                if relay_span is not None:
                    relay_span.name = "failover"
                    relay_span.finish(ok=False, error=str(exc))
                self._log.warning(
                    "request_failover",
                    backend=name,
                    error=str(exc),
                    trace_id=traced["trace_id"] if traced else None,
                )
                self._mark_dead(name)
                continue
            self._backend_requests[name] += 1
            self._latency[name].observe(time.monotonic() - started)
            if relay_span is not None:
                relay_span.finish(ok=True)
                if timing and "queue_wait_us" in timing:
                    wiretrace.record_span(
                        "router",
                        "queue_wait",
                        trace_id=relay_span.trace_id,
                        parent_id=relay_span.span_id,
                        start_us=timing["queue_wait_start_us"],
                        duration_us=timing["queue_wait_us"],
                        attrs={"backend": name},
                    )
            if route_span is not None:
                route_span.finish(backend=name, failovers=len(tried) - 1)
            return response
        self.errors += 1
        if route_span is not None:
            route_span.finish(ok=False, failovers=len(tried))
        self._log.error(
            "route_exhausted",
            tried=sorted(tried),
            trace_id=traced["trace_id"] if traced else None,
        )
        payload = protocol.error_response(
            request.id,
            f"no backend available for this point (tried {sorted(tried)})",
        )
        return (schema.dumps(payload) + "\n").encode()

    # ------------------------------------------------------------------
    # fleet-wide metrics
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict:
        """The router process's collectors plus its own ``fleet_*`` series."""
        return get_registry().snapshot(extra_series=self.series())

    async def fleet_snapshot(self) -> Dict:
        """The ``metrics`` verb: every live backend's snapshot, merged.

        Backend series gain a ``backend=<name>`` label and merge per
        :mod:`repro.obs.aggregate`; the router's own
        :meth:`metrics_snapshot` (``fleet_*`` series, already
        backend-labelled) joins as-is.  A backend that fails to answer
        is skipped with a warning event - a degraded fleet still
        reports the survivors.
        """
        line = (schema.dumps(protocol.verb_request("metrics")) + "\n").encode()
        names = [name for name in sorted(self.channels) if name not in self.dead]

        async def fetch(name: str):
            try:
                raw = await self.channels[name].roundtrip(line)
                response = protocol.parse_response(raw.decode())
                if not response.get("ok"):
                    raise schema.SchemaError(
                        str(response.get("error") or "backend refused metrics")
                    )
                return name, schema.metrics_from_dict(response["result"])
            except (BackendUnavailable, schema.SchemaError) as exc:
                self._log.warning(
                    "backend_metrics_failed", backend=name, error=str(exc)
                )
                return name, None

        gathered = await asyncio.gather(*(fetch(name) for name in names))
        snapshots = {name: snap for name, snap in gathered if snap is not None}
        return aggregate.fleet_snapshot(
            snapshots, extra_series=self.metrics_snapshot()["series"]
        )

    # ------------------------------------------------------------------
    # series and stats: two renderings of the same per-backend state
    # ------------------------------------------------------------------
    def series(self) -> List[Dict]:
        """The router's own ``fleet_*`` series."""
        series: List[Dict] = []
        for name in sorted(self.channels):
            labels = {"backend": name}
            series += [
                _counter("fleet_requests_total", labels, self._backend_requests[name]),
                _counter("fleet_failovers_total", labels, self._backend_failures[name]),
                self._latency[name].series(),
            ]
        for event, count in sorted(self._rebalances.items()):
            series.append(
                _counter("fleet_ring_rebalances_total", {"event": event}, count)
            )
        series.append(
            {
                "name": "fleet_backends_alive",
                "type": "gauge",
                "labels": {},
                "value": len(self.ring),
            }
        )
        return series

    def stats(self) -> Dict:
        """The fleet-level ``stats`` verb payload."""
        backends = {}
        for name, channel in sorted(self.channels.items()):
            latency = self._latency[name].quantiles_ms()
            backends[name] = {
                "host": channel.host,
                "port": channel.port,
                "alive": name not in self.dead,
                "requests": self._backend_requests[name],
                "failovers": self._backend_failures[name],
                "inflight": channel.inflight,
                "latency": {
                    key: latency[key] for key in ("count", "p50_ms", "p95_ms")
                },
            }
        return {
            "router": {
                "uptime_s": round(time.monotonic() - self.started, 3),
                "requests": self.requests,
                "measure_requests": self.measure_requests,
                "errors": self.errors,
                "failovers": self.failovers,
            },
            "ring": {
                "nodes": sorted(self.ring.nodes),
                "replicas": self.ring.replicas,
                "rebalances": self.rebalances,
            },
            "backends": backends,
        }

    async def _reject(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, message: str
    ) -> None:
        self.errors += 1
        await self._send(writer, write_lock, protocol.error_response(None, message))


def _counter(name: str, labels: Dict[str, str], value: int) -> Dict:
    return {"name": name, "type": "counter", "labels": labels, "value": value}


def _retrace_line(line: bytes, span: wiretrace.SpanHandle) -> bytes:
    """Rewrite a traced request line so ``span`` becomes the parent.

    Only the ``trace.span_id`` changes; the payload re-encodes through
    the same canonical :func:`schema.dumps` the client used, so the
    bytes differ from the original solely in that field.  On any decode
    surprise the original line relays untouched - tracing must never
    break routing.
    """
    try:
        payload = schema.loads(line.decode())
        trace = dict(payload.get("trace") or {})
        trace["span_id"] = span.span_id
        payload["trace"] = trace
        return (schema.dumps(payload) + "\n").encode()
    except (schema.SchemaError, UnicodeDecodeError, ValueError):
        return line


def run_router(
    backends: Mapping[str, Tuple[str, int]],
    host: str = protocol.DEFAULT_HOST,
    port: int = 0,
    replicas: int = DEFAULT_REPLICAS,
) -> None:
    """Run a router in the foreground until SIGTERM/SIGINT (the CLI path).

    The ``routing on host:port`` line it prints is the ready line
    ``repro fleet up`` waits for.
    """

    async def _main() -> None:
        router = FleetRouter(backends, host=host, port=port, replicas=replicas)
        await router.start()
        print(
            f"repro fleet-router: routing on {router.host}:{router.port} "
            f"across {len(backends)} backend(s)",
            flush=True,
        )
        await router.serve_until_shutdown()
        print(
            "repro fleet-router: drained cleanly "
            f"({router.measure_requests} measure requests, "
            f"{router.failovers} failovers, "
            f"{router.rebalances} ring rebalances)",
            flush=True,
        )

    asyncio.run(_main())


class BackgroundRouter(BackgroundLoop):
    """A :class:`FleetRouter` on a dedicated thread (tests, notebooks).

    Mirrors :class:`~repro.service.server.BackgroundService`: ``start()``
    blocks until the listener is bound (or raises the startup error) and
    returns the port; ``stop()`` drains gracefully and joins the thread.
    """

    def __init__(self, backends: Mapping[str, Tuple[str, int]], **kwargs) -> None:
        kwargs.setdefault("port", 0)
        backends = dict(backends)
        super().__init__(
            lambda: FleetRouter(backends, **kwargs), "repro-fleet-router"
        )

    @property
    def router(self) -> Optional[FleetRouter]:
        return self.server  # type: ignore[return-value]
