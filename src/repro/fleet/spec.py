"""Fleet deployment model: what to launch and what is running.

:class:`FleetSpec` is the *input* - how many backends, where to put the
run directory, how wide each backend's worker pool is - and
:class:`FleetState` is the *output* the manager persists after ``repro
fleet up``: the router's and every backend's PID, host, bound port,
cache shard and log file.  The state lives as ``fleet.json`` inside the
run directory so every later command (``fleet status``, ``fleet
down``, ``query --fleet``, ``sweep --fleet``) and every other process
on the machine can find the running fleet with nothing but the run-dir
path.

The run directory layout::

    <run_dir>/
      fleet.json           # persisted FleetState (incl. resolved obs config)
      logs/router.log      # router stdout/stderr (ready lines live here)
      logs/backend-0.log
      logs/backend-0.events.ndjson   # structured NDJSON events (REPRO_LOG)
      cache/backend-0/     # that backend's REPRO_CACHE_DIR shard
      cache/backend-1/
      trace/               # per-process wire-span sinks when tracing is on
      ...

Backend *names* (``backend-0`` ...) are the hash-ring node identities;
they are stable across restarts even when the ephemeral ports change,
so a relaunched fleet keeps every shard's key slice warm.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.fleet.ring import DEFAULT_REPLICAS

#: Default fleet run directory, relative to the working directory.
DEFAULT_RUN_DIR = ".repro-fleet"

#: fleet.json carries this version; readers reject anything newer.
STATE_VERSION = 1


class FleetStateError(RuntimeError):
    """The fleet state file is missing, malformed, or incompatible."""


def backend_name(index: int) -> str:
    """The stable ring identity of backend ``index``."""
    return f"backend-{index}"


@dataclass(frozen=True)
class FleetSpec:
    """Everything ``repro fleet up`` needs to launch a fleet."""

    backends: int = 3
    host: str = "127.0.0.1"
    router_port: int = 0  # 0 binds an ephemeral port
    run_dir: str = DEFAULT_RUN_DIR
    jobs_per_backend: Optional[int] = None  # None: each backend decides
    max_queue: int = 256
    max_batch: int = 64
    replicas: int = DEFAULT_REPLICAS
    use_cache: bool = True
    trace_sample: Optional[int] = None  # REPRO_TRACE_SAMPLE for every child
    log_level: str = "info"  # REPRO_LOG_LEVEL for every child

    def __post_init__(self) -> None:
        if self.backends < 1:
            raise ValueError(f"a fleet needs >= 1 backend, got {self.backends}")

    def backend_names(self) -> List[str]:
        """The stable ring identities, in index order."""
        return [backend_name(i) for i in range(self.backends)]

    def cache_dir(self, name: str) -> Path:
        """The ``REPRO_CACHE_DIR`` shard of one backend."""
        return Path(self.run_dir) / "cache" / name

    def log_path(self, name: str) -> Path:
        """The log file of one process (``router`` or a backend name)."""
        return Path(self.run_dir) / "logs" / f"{name}.log"

    def events_path(self, name: str) -> Path:
        """The structured NDJSON event log of one process."""
        return Path(self.run_dir) / "logs" / f"{name}.events.ndjson"

    def trace_dir(self) -> Path:
        """The shared wire-span sink directory (``REPRO_TRACE_DIR``)."""
        return Path(self.run_dir) / "trace"

    def obs_config(self) -> Dict:
        """The resolved observability contract for every fleet child.

        This is what the manager injects into each child's environment
        and persists into ``fleet.json`` (under ``"obs"``) so clients
        can adopt the same tracing configuration without re-deriving
        it.
        """
        return {
            "trace_sample": self.trace_sample,
            "trace_dir": (
                str(self.trace_dir()) if self.trace_sample else None
            ),
            "log_level": self.log_level,
            "event_logs": {
                name: str(self.events_path(name))
                for name in self.backend_names() + ["router"]
            },
        }


@dataclass(frozen=True)
class BackendState:
    """One running backend daemon as the manager recorded it."""

    name: str
    host: str
    port: int
    pid: int
    cache_dir: str
    log: str

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)


@dataclass(frozen=True)
class FleetState:
    """A running fleet: the router plus its backends, JSON-persistable."""

    host: str
    router_port: int
    router_pid: int
    backends: Tuple[BackendState, ...]
    replicas: int = DEFAULT_REPLICAS
    run_dir: str = DEFAULT_RUN_DIR
    spec: Optional[Dict] = field(default=None)
    obs: Optional[Dict] = field(default=None)  # resolved observability config

    @property
    def router_address(self) -> Tuple[str, int]:
        return (self.host, self.router_port)

    def backend_map(self) -> Dict[str, Tuple[str, int]]:
        """Ring name -> (host, port), the router/client wiring form."""
        return {b.name: (b.host, b.port) for b in self.backends}

    def backend(self, name: str) -> BackendState:
        for entry in self.backends:
            if entry.name == name:
                return entry
        raise KeyError(f"no backend named {name!r} in this fleet")

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "version": STATE_VERSION,
            "host": self.host,
            "router_port": self.router_port,
            "router_pid": self.router_pid,
            "replicas": self.replicas,
            "run_dir": self.run_dir,
            "backends": [asdict(b) for b in self.backends],
            "spec": self.spec,
            "obs": self.obs,
        }

    def save(self, run_dir: Union[str, Path, None] = None) -> Path:
        """Write ``fleet.json`` atomically into the run directory."""
        root = Path(run_dir if run_dir is not None else self.run_dir)
        root.mkdir(parents=True, exist_ok=True)
        path = root / "fleet.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def from_dict(cls, payload: Dict) -> "FleetState":
        version = payload.get("version")
        if version != STATE_VERSION:
            raise FleetStateError(
                f"unsupported fleet state version {version!r} (this build "
                f"speaks version {STATE_VERSION})"
            )
        try:
            backends = tuple(
                BackendState(**entry) for entry in payload["backends"]
            )
            return cls(
                host=payload["host"],
                router_port=payload["router_port"],
                router_pid=payload["router_pid"],
                backends=backends,
                replicas=payload.get("replicas", DEFAULT_REPLICAS),
                run_dir=payload.get("run_dir", DEFAULT_RUN_DIR),
                spec=payload.get("spec"),
                obs=payload.get("obs"),
            )
        except (KeyError, TypeError) as exc:
            raise FleetStateError(f"malformed fleet state: {exc}") from None

    @classmethod
    def load(cls, run_dir: Union[str, Path] = DEFAULT_RUN_DIR) -> "FleetState":
        """Read ``fleet.json`` from a run directory."""
        path = Path(run_dir) / "fleet.json"
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise FleetStateError(
                f"no fleet state at {path}; is a fleet up? "
                "(run `repro fleet up`, or pass the right --run-dir)"
            ) from None
        except ValueError as exc:
            raise FleetStateError(f"unreadable fleet state {path}: {exc}") from None
        return cls.from_dict(payload)


def state_path(run_dir: Union[str, Path] = DEFAULT_RUN_DIR) -> Path:
    """Where ``fleet.json`` lives for a run directory."""
    return Path(run_dir) / "fleet.json"
