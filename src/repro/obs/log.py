"""Structured NDJSON event logging for fleet processes.

Every long-running repro process (daemon, router, fleet manager, and
the executor retry paths) emits machine-readable events through one
process-wide :class:`EventLogger`.  Each event is a single JSON object
per line -- the same NDJSON discipline as the wire protocol and the
sweep output -- so fleet logs can be grepped, joined on ``trace_id``
against the distributed spans (:mod:`repro.obs.wiretrace`), and tailed
by dashboards without a parser beyond ``json.loads``.

Record schema (keys always present first, sorted by ``json.dumps``)::

    {"ts": <epoch seconds, 6 decimals>,
     "level": "debug"|"info"|"warning"|"error",
     "service": "<REPRO_SERVICE_NAME or caller default>",
     "event": "<snake_case event name>",
     ...free-form JSON-safe fields...,
     "trace_id": "<hex>"}        # only on trace-correlated events

Configuration is environment-first so the fleet manager can switch it
on for every spawned child without touching call sites:

``REPRO_LOG``
    Where events go: ``stderr``, ``stdout``, a file path (append
    mode), or unset/empty to disable logging entirely.
``REPRO_LOG_LEVEL``
    Minimum level (``debug`` < ``info`` < ``warning`` < ``error``);
    defaults to ``info``.
``REPRO_SERVICE_NAME``
    Default ``service`` field for every record, letting one shared
    target (e.g. a fleet-wide stderr capture) attribute events to the
    emitting process (``backend-0``, ``router``, ...).

:func:`configure` installs a logger that overrides the environment
(tests use it to capture events).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import IO, Any, Dict, Optional

#: Environment variable naming the log target (stderr/stdout/path).
LOG_ENV = "REPRO_LOG"

#: Environment variable naming the minimum level (default ``info``).
LEVEL_ENV = "REPRO_LOG_LEVEL"

#: Environment variable naming the default ``service`` record field.
SERVICE_ENV = "REPRO_SERVICE_NAME"

#: Recognised levels, in increasing severity.
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _resolve_stream(target: str) -> Optional[IO[str]]:
    """Map a target name to a writable text stream (``None`` = off)."""
    cleaned = target.strip()
    if not cleaned:
        return None
    if cleaned == "stderr":
        return sys.stderr
    if cleaned == "stdout":
        return sys.stdout
    directory = os.path.dirname(cleaned)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return open(cleaned, "a", encoding="utf-8")


class EventLogger:
    """Leveled, trace-correlated NDJSON event writer.

    A disabled logger (``stream=None``) keeps the full API but writes
    nothing, so call sites never guard their ``logger.info(...)``
    lines.  ``bind`` derives a view with a different ``service`` field
    sharing the same stream, level, and lock -- the router and daemon
    use it to attribute events without reconfiguring the process.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        service: str = "repro",
        level: str = "info",
    ) -> None:
        self.service = service
        self.level = level if level in LEVELS else "info"
        self._threshold = LEVELS[self.level]
        self._stream = stream
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether records actually reach a stream."""
        return self._stream is not None

    def bind(self, service: str) -> "EventLogger":
        """Return a view of this logger with a different service name."""
        bound = EventLogger.__new__(EventLogger)
        bound.service = service
        bound.level = self.level
        bound._threshold = self._threshold
        bound._stream = self._stream
        bound._lock = self._lock
        return bound

    def log(
        self,
        level: str,
        event: str,
        trace_id: Optional[str] = None,
        **fields: Any,
    ) -> None:
        """Emit one event record at ``level`` with free-form fields."""
        if self._stream is None or LEVELS.get(level, 0) < self._threshold:
            return
        record: Dict[str, Any] = {
            "ts": round(time.time(), 6),
            "level": level,
            "service": self.service,
            "event": event,
        }
        if trace_id is not None:
            record["trace_id"] = trace_id
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        line = json.dumps(
            record, sort_keys=True, separators=(",", ":"), default=str
        )
        try:
            with self._lock:
                self._stream.write(line + "\n")
                self._stream.flush()
        except (OSError, ValueError):
            pass  # a torn-down stream must never crash the service

    def debug(self, event: str, **fields: Any) -> None:
        """Emit a ``debug`` event."""
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        """Emit an ``info`` event."""
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        """Emit a ``warning`` event."""
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        """Emit an ``error`` event."""
        self.log("error", event, **fields)


_LOCK = threading.Lock()
_LOGGER: Optional[EventLogger] = None
#: The file :func:`_resolve_stream` opened for ``_LOGGER`` (never
#: stdout/stderr); closed when that logger is replaced or dropped.
_OPENED: Optional[IO[str]] = None


def _install(logger: Optional[EventLogger]) -> None:
    """Swap the process logger, closing the file the old one opened.

    Called with ``_LOCK`` held.  Views from :meth:`EventLogger.bind`
    share the closed stream and go quiet (``log`` swallows the
    ``ValueError``).
    """
    global _LOGGER, _OPENED
    if _OPENED is not None:
        _OPENED.close()
    _LOGGER = logger
    stream = logger._stream if logger is not None else None
    _OPENED = None if stream in (None, sys.stdout, sys.stderr) else stream


def configure(
    target: Optional[str] = None,
    level: Optional[str] = None,
    service: Optional[str] = None,
) -> EventLogger:
    """Build and install the process logger, overriding the environment.

    ``target`` follows ``REPRO_LOG`` semantics (``stderr`` / ``stdout``
    / path / ``None`` or empty to disable).  Returns the installed
    logger so the caller can emit a first event immediately.
    """
    stream = _resolve_stream(target) if target else None
    logger = EventLogger(
        stream=stream,
        service=service or os.environ.get(SERVICE_ENV) or "repro",
        level=level or os.environ.get(LEVEL_ENV) or "info",
    )
    with _LOCK:
        _install(logger)
    return logger


def get_logger(service: Optional[str] = None) -> EventLogger:
    """Return the process logger, building it from the environment once.

    ``service`` is a *fallback* attribution for processes launched
    outside a fleet: the ``REPRO_SERVICE_NAME`` environment variable
    (stamped per child by the fleet manager) always wins, so a spawned
    ``backend-1`` stays ``backend-1`` even when the daemon asks for a
    generic ``backend`` logger.
    """
    with _LOCK:
        if _LOGGER is None:
            _install(
                EventLogger(
                    stream=_resolve_stream(os.environ.get(LOG_ENV, "")),
                    service=os.environ.get(SERVICE_ENV) or "repro",
                    level=os.environ.get(LEVEL_ENV) or "info",
                )
            )
        logger = _LOGGER
    env_service = os.environ.get(SERVICE_ENV)
    wanted = env_service or service
    if wanted and wanted != logger.service:
        return logger.bind(wanted)
    return logger


def reset() -> None:
    """Drop the cached process logger (tests re-read the environment)."""
    with _LOCK:
        _install(None)
