"""The fleet manager: launch, inspect, and tear down a fleet.

``repro fleet up`` turns a :class:`~repro.fleet.spec.FleetSpec` into
real OS processes: N ``repro serve`` backends - each with its own
worker pool and its own ``REPRO_CACHE_DIR`` shard under the run
directory - plus one ``repro fleet route`` front-end.  Each process
logs to ``<run_dir>/logs/<name>.log``; the manager watches the log for
the ready line (``listening on host:port`` / ``routing on host:port``)
to learn the ephemerally bound port, then persists the whole wiring as
``fleet.json`` so any later process can find the fleet.

``repro fleet status`` reads that state back, checks every PID, and
(when the router answers) merges in the router's live ``stats`` view -
which backends the ring currently considers alive, per-backend request
counts and latency.

``repro fleet down`` stops the router first (so nothing routes into
half a fleet), then the backends: SIGTERM to each process group for a
graceful drain, a bounded wait, SIGKILL for stragglers - worker-pool
processes included - and finally removes ``fleet.json``.  Cache shards
survive teardown on purpose - the next ``fleet up`` with the same run
dir starts warm, because backend *names* (the ring identities) are
stable across restarts.

Observability propagation contract
----------------------------------
Spawned children inherit the manager's environment, then the manager
*explicitly* overrides the observability knobs so the whole fleet
shares one coherent configuration (see :func:`_child_env`):

* ``REPRO_SERVICE_NAME`` - the child's fleet identity (``backend-0``
  ..., ``router``); structured log events and wire spans carry it.
* ``REPRO_LOG`` - NDJSON event-log destination.  Defaults to
  ``<run_dir>/logs/<name>.events.ndjson``; an ambient ``REPRO_LOG``
  in the manager's environment wins, letting operators redirect the
  whole fleet (for example to ``stderr``) without new flags.
* ``REPRO_LOG_LEVEL`` - from ``FleetSpec.log_level``.
* ``REPRO_TRACE_SAMPLE`` / ``REPRO_TRACE_DIR`` - only when
  ``FleetSpec.trace_sample`` is set: every child samples wire spans
  at that rate into the shared ``<run_dir>/trace`` sink directory, so
  one export assembles the whole distributed tree.  When unset, both
  variables are *removed* from the child environment - a fleet is
  traced by its spec, never accidentally by ambient state.
* ``REPRO_CACHE_DIR`` - backends only, their private cache shard.

The resolved configuration is persisted verbatim into ``fleet.json``
under ``"obs"`` (see ``FleetSpec.obs_config``) so clients - which are
*not* children of the manager - can adopt the same trace dir and
sample rate by reading the state file.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.fleet.spec import (
    DEFAULT_RUN_DIR,
    BackendState,
    FleetSpec,
    FleetState,
    FleetStateError,
    state_path,
)
from repro.obs.log import LEVEL_ENV, LOG_ENV, SERVICE_ENV, get_logger
from repro.obs.trace import SAMPLE_ENV
from repro.obs.wiretrace import TRACE_DIR_ENV

#: Seconds to wait for a spawned process to print its ready line.
LAUNCH_TIMEOUT = 30.0

#: Seconds between SIGTERM and SIGKILL during ``fleet down``.
STOP_TIMEOUT = 30.0

_SERVE_READY = re.compile(r"listening on ([^\s:]+):(\d+)")
_ROUTER_READY = re.compile(r"routing on ([^\s:]+):(\d+)")

#: ``Popen`` handles of the fleet processes this process started, by
#: pid: reaping a leader through its handle records its exit, so no
#: handle is left to warn that its process "is still running".
_CHILDREN: Dict[int, subprocess.Popen] = {}


class FleetLaunchError(RuntimeError):
    """A fleet process failed to start or report ready in time."""


def _pid_alive(pid: int) -> bool:
    """Whether a PID currently names a running process."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def _spawn(command: List[str], log_path: Path, env: Dict[str, str]) -> subprocess.Popen:
    """Start one detached fleet process, logging to its own file."""
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            command,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            start_new_session=True,  # our Ctrl-C must not kill the fleet
        )
    _CHILDREN[proc.pid] = proc
    return proc


def _await_ready(
    proc: subprocess.Popen,
    log_path: Path,
    pattern: re.Pattern,
    timeout: float = LAUNCH_TIMEOUT,
) -> Tuple[str, int]:
    """Poll a process's log until its ready line appears; return host, port."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            text = log_path.read_text(errors="replace")
        except FileNotFoundError:
            text = ""
        match = pattern.search(text)
        if match:
            return match.group(1), int(match.group(2))
        if proc.poll() is not None:
            tail = text.strip().splitlines()[-5:]
            raise FleetLaunchError(
                f"fleet process exited with code {proc.returncode} before "
                f"reporting ready; last log lines from {log_path}: {tail}"
            )
        time.sleep(0.05)
    proc.terminate()
    raise FleetLaunchError(
        f"fleet process did not report ready within {timeout}s (log: {log_path})"
    )


def _signal_group(pgid: int, sig: int) -> bool:
    """Send ``sig`` (0 only probes) to a fleet child's process group.

    :func:`_spawn` starts each child in a new session, so its pid is
    also the id of a process group that holds the worker-pool processes
    it forks - and keeps holding them after the child itself dies.
    Returns False once the group is empty.  A zombie leader keeps its
    group alive, so a leader this process spawned (an in-process
    :func:`fleet_up`) is reaped first, through its handle when this
    process holds one.
    """
    if pgid <= 0:
        return False
    child = _CHILDREN.get(pgid)
    if child is not None:
        child.poll()
    else:
        try:
            os.waitpid(pgid, os.WNOHANG)
        except ChildProcessError:
            pass
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def _await_groups_gone(pgids: List[int], timeout: float) -> bool:
    """Poll until every group is empty; False if ``timeout`` ran out."""
    deadline = time.monotonic() + timeout
    while any(_signal_group(pgid, 0) for pgid in pgids):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)
    return True


def _child_env(spec: FleetSpec, name: str) -> Dict[str, str]:
    """The explicit observability environment of one fleet child.

    Implements the propagation contract from the module docstring: the
    child inherits the manager's environment, then ``REPRO_SERVICE_NAME``,
    ``REPRO_LOG`` (ambient value wins over the per-child default),
    ``REPRO_LOG_LEVEL``, and - when the spec enables tracing -
    ``REPRO_TRACE_SAMPLE`` + ``REPRO_TRACE_DIR`` are set explicitly.
    With tracing disabled both trace variables are removed so ambient
    shell state cannot silently trace a fleet its spec says is
    untraced.
    """
    env = dict(os.environ)
    env[SERVICE_ENV] = name
    env.setdefault(LOG_ENV, str(spec.events_path(name)))
    env[LEVEL_ENV] = spec.log_level
    if spec.trace_sample:
        env[SAMPLE_ENV] = str(spec.trace_sample)
        env[TRACE_DIR_ENV] = str(spec.trace_dir())
    else:
        env.pop(SAMPLE_ENV, None)
        env.pop(TRACE_DIR_ENV, None)
    return env


def _backend_command(spec: FleetSpec) -> List[str]:
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host",
        spec.host,
        "--port",
        "0",
        "--max-queue",
        str(spec.max_queue),
        "--max-batch",
        str(spec.max_batch),
    ]
    if spec.jobs_per_backend is not None:
        command += ["--jobs", str(spec.jobs_per_backend)]
    if not spec.use_cache:
        command.append("--no-cache")
    return command


def _router_command(spec: FleetSpec, backends: List[BackendState]) -> List[str]:
    command = [
        sys.executable,
        "-m",
        "repro",
        "fleet",
        "route",
        "--host",
        spec.host,
        "--port",
        str(spec.router_port),
        "--replicas",
        str(spec.replicas),
    ]
    for backend in backends:
        command += ["--backend", f"{backend.name}={backend.host}:{backend.port}"]
    return command


def fleet_up(spec: FleetSpec) -> FleetState:
    """Launch a fleet per ``spec``; returns the persisted state.

    Refuses to launch over a run directory whose recorded fleet still
    has live processes; silently replaces stale state (every PID gone).
    """
    run_dir = Path(spec.run_dir)
    try:
        existing = FleetState.load(run_dir)
    except FleetStateError:
        existing = None
    if existing is not None:
        live = [existing.router_pid] + [b.pid for b in existing.backends]
        if any(_pid_alive(pid) for pid in live):
            raise FleetStateError(
                f"a fleet is already up in {run_dir} "
                "(run `repro fleet down` first)"
            )

    log = get_logger("manager")
    if spec.trace_sample:
        spec.trace_dir().mkdir(parents=True, exist_ok=True)
    launched: List[subprocess.Popen] = []
    try:
        backends: List[BackendState] = []
        for name in spec.backend_names():
            cache_dir = spec.cache_dir(name)
            cache_dir.mkdir(parents=True, exist_ok=True)
            log_path = spec.log_path(name)
            env = _child_env(spec, name)
            env["REPRO_CACHE_DIR"] = str(cache_dir)
            proc = _spawn(_backend_command(spec), log_path, env)
            launched.append(proc)
            host, port = _await_ready(proc, log_path, _SERVE_READY)
            log.info(
                "backend_launched", backend=name, child_pid=proc.pid, port=port
            )
            backends.append(
                BackendState(
                    name=name,
                    host=host,
                    port=port,
                    pid=proc.pid,
                    cache_dir=str(cache_dir),
                    log=str(log_path),
                )
            )

        router_log = spec.log_path("router")
        router_proc = _spawn(
            _router_command(spec, backends), router_log, _child_env(spec, "router")
        )
        launched.append(router_proc)
        router_host, router_port = _await_ready(router_proc, router_log, _ROUTER_READY)
        log.info(
            "router_launched", child_pid=router_proc.pid, port=router_port
        )
    except BaseException:
        # Launch failed part-way: tear down whatever already started so
        # a failed `fleet up` never leaks daemons.
        for proc in launched:
            proc.terminate()
        time.sleep(0.2)
        for proc in launched:
            _signal_group(proc.pid, signal.SIGKILL)
            proc.wait()
            del _CHILDREN[proc.pid]
        raise

    state = FleetState(
        host=router_host,
        router_port=router_port,
        router_pid=router_proc.pid,
        backends=tuple(backends),
        replicas=spec.replicas,
        run_dir=str(run_dir),
        spec={
            "backends": spec.backends,
            "jobs_per_backend": spec.jobs_per_backend,
            "max_queue": spec.max_queue,
            "max_batch": spec.max_batch,
            "use_cache": spec.use_cache,
            "trace_sample": spec.trace_sample,
            "log_level": spec.log_level,
        },
        obs=spec.obs_config(),
    )
    state.save()
    log.info(
        "fleet_up",
        backends=spec.backends,
        router_port=router_port,
        run_dir=str(run_dir),
        trace_sample=spec.trace_sample,
    )
    return state


def fleet_status(
    run_dir: Union[str, Path] = DEFAULT_RUN_DIR, probe: bool = True
) -> Dict:
    """The fleet's health: recorded state + PID liveness + router view.

    ``probe=True`` additionally asks the router for its live ``stats``
    payload (ring membership, per-backend counters); a router that does
    not answer is reported, not raised.
    """
    state = FleetState.load(run_dir)
    status: Dict = {
        "run_dir": str(state.run_dir),
        "router": {
            "host": state.host,
            "port": state.router_port,
            "pid": state.router_pid,
            "alive": _pid_alive(state.router_pid),
        },
        "backends": {
            b.name: {
                "host": b.host,
                "port": b.port,
                "pid": b.pid,
                "alive": _pid_alive(b.pid),
                "cache_dir": b.cache_dir,
                "log": b.log,
            }
            for b in state.backends
        },
    }
    status["healthy"] = status["router"]["alive"] and all(
        entry["alive"] for entry in status["backends"].values()
    )
    if probe and status["router"]["alive"]:
        from repro.service.client import ServiceClient
        from repro.service.protocol import ServiceError

        try:
            with ServiceClient(
                host=state.host,
                port=state.router_port,
                connect_timeout=5.0,
                read_timeout=10.0,
            ) as client:
                status["router"]["stats"] = client.stats()
        except (ServiceError, OSError) as exc:
            status["router"]["stats_error"] = str(exc)
    return status


def fleet_down(
    run_dir: Union[str, Path] = DEFAULT_RUN_DIR, timeout: float = STOP_TIMEOUT
) -> Dict:
    """Stop a fleet: router first, then backends; remove ``fleet.json``.

    Each recorded pid leads a process group (see :func:`_signal_group`),
    and the whole group is signalled, so a backend's worker-pool
    processes stop with it - even when the backend itself was already
    killed and left them orphaned.  SIGTERM starts each graceful drain;
    any group still alive after ``timeout`` seconds is SIGKILLed (and
    reported as such), and the call returns once every group is empty
    or a second ``timeout`` runs out.  Cache shards and logs are kept.
    """
    state = FleetState.load(run_dir)
    ordered: List[Tuple[str, int]] = [("router", state.router_pid)]
    ordered += [(b.name, b.pid) for b in state.backends]
    groups = [pgid for _, pgid in ordered]

    terminated = [
        name for name, pgid in ordered if _signal_group(pgid, signal.SIGTERM)
    ]
    killed: List[str] = []
    if not _await_groups_gone(groups, timeout):
        for name, pgid in ordered:
            if _signal_group(pgid, signal.SIGKILL):
                killed.append(name)
        _await_groups_gone(groups, timeout)
    for pgid in groups:  # drop the handles of the leaders now reaped
        child = _CHILDREN.get(pgid)
        if child is not None and child.poll() is not None:
            del _CHILDREN[pgid]

    try:
        state_path(run_dir).unlink()
    except FileNotFoundError:
        pass
    return {
        "stopped": [name for name in terminated if name not in killed],
        "killed": killed,
        "run_dir": str(state.run_dir),
    }
