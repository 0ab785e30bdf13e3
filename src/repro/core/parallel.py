"""Parallel measurement execution with dedup, memo, and disk cache.

The paper's evaluation decomposes into hundreds of mutually independent
``measure_bandwidth`` simulations (pattern x request type x payload x
port count grids) - an embarrassingly parallel workload.  The
:class:`MeasurementExecutor` accepts *batches* of
:class:`~repro.core.experiment.MeasurementPoint` and

1. deduplicates them by content-addressed cache key,
2. serves repeats from the in-process memo, then the on-disk
   :class:`~repro.core.cache.ResultCache`,
3. simulates each remaining physical point once per process - points
   that differ only in their display label (``pattern_name``) share one
   simulation, and each label gets the result relabeled, under its own
   key (the disk cache holds only the labeled keys, so a later process
   with a disk hit for one label still simulates another label once) -
   fanning the unique misses out across a persistent, process-wide
   worker pool (see below), and
4. returns results in submission order,

so a parallel run is bit-identical to a serial one - the simulation is
deterministic per point, and ordering is the caller's, not the pool's.
``jobs=1`` bypasses the pool entirely (no subprocess in the loop when
debugging with pdb or profiling).

Pool lifecycle
--------------
Worker processes are expensive to start (interpreter boot or fork, module
imports), so the pool is created lazily on the first parallel batch and
then *reused for the life of the process* - across batches, experiments,
campaigns, and daemon requests.  Daemons are the exception: they call
:meth:`MeasurementExecutor.prefork` before binding their listener, so no
worker ever inherits a socket fd (see :func:`prefork_pool`).  It is torn down by an ``atexit`` hook or
an explicit :func:`shutdown_pool` (which benchmarks use between timed
legs so cold numbers honestly include pool start-up).  On platforms with
``fork`` (Linux, macOS with caveats) the workers are forked, so they
inherit the parent's already-imported modules; where only ``spawn``
exists (Windows) each worker re-imports on first start - slower to warm
up, identical results.  The pool modules (``multiprocessing``,
``concurrent.futures``) are imported where a pool is made or used, so a
``jobs=1`` process never loads them.

Cost-aware submission: within a batch, misses are submitted
longest-expected-first so a stray expensive point cannot serialize the
tail of the batch, then results are restored to submission order.

Misses have two backends.  By default they simulate here, inline or
across the pool.  An executor given a ``fleet`` client instead sends
them to a running measurement fleet as one pipelined
:meth:`~repro.fleet.client.FleetClient.measure_many` batch; the memo,
the disk cache, dedup and the batched store around them are the same.

Module-level :func:`configure` / :func:`configured` set the default
executor policy (``jobs``, ``use_cache`` and ``fleet``) that
:func:`get_executor` applies for
:func:`~repro.core.experiment.measure_bandwidth_cached`, the experiment
modules, campaigns and sweeps, so the CLI's ``--jobs`` / ``--no-cache``
/ ``--fleet`` reach every measurement without threading flags through
each API.  A directly constructed :class:`MeasurementExecutor` never
picks up the configured fleet: a daemon's own executor keeps
simulating locally even in a process that measures through a fleet.

The process-wide :class:`ExecutorStats` counters are updated under a
lock: the measurement daemon runs batches on executor threads while its
event loop snapshots the counters concurrently.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.cache import ResultCache, cache_key
from repro.core.experiment import (
    BandwidthMeasurement,
    MeasurementPoint,
    simulate_point,
)
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace
from repro.obs import wiretrace
from repro.obs.log import get_logger

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.fleet.client import FleetClient

#: In-process memo shared by every executor: key -> measurement.  This
#: is what lets Figs. 9-12 and 16 reuse Fig. 7/8 measurements within a
#: single campaign even when the disk cache is disabled.
_MEMO: Dict[str, BandwidthMeasurement] = {}


@dataclass
class ExecutorStats:
    """Counters of what executors actually did.

    One instance holds the process-wide totals (:func:`stats`), and each
    :class:`MeasurementExecutor` keeps its own (its ``stats``), which is
    what a daemon sharing its process with other daemons reports.

    Mutations go through :meth:`add` / :meth:`clear`, which hold the
    instance lock - the daemon submits batches from executor threads
    while its event loop reads snapshots.  Plain attribute *reads* are
    fine for single-threaded callers (tests, CLI summaries).

    ``pool_workers`` and ``start_method`` describe the shared worker
    pool at :meth:`snapshot` time (0/"" on the live counters object) -
    they are the labels under which the metrics registry files the
    executor's series, so a fork-pool run and a spawn-pool run never
    alias onto one series.
    """

    simulations: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    events_simulated: int = 0
    pool_workers: int = 0
    start_method: str = ""
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(
        self,
        simulations: int = 0,
        memo_hits: int = 0,
        disk_hits: int = 0,
        events_simulated: int = 0,
    ) -> None:
        """Atomically bump any subset of the counters."""
        with self._lock:
            self.simulations += simulations
            self.memo_hits += memo_hits
            self.disk_hits += disk_hits
            self.events_simulated += events_simulated

    def clear(self) -> None:
        """Atomically zero every counter."""
        with self._lock:
            self.simulations = 0
            self.memo_hits = 0
            self.disk_hits = 0
            self.events_simulated = 0

    def snapshot(self) -> "ExecutorStats":
        """An independent, internally consistent copy.

        The copy also captures the shared pool's current width and the
        platform start method, so consumers (the ``/stats`` verb, the
        metrics registry) can label executor series correctly.
        """
        with self._lock:
            return ExecutorStats(
                simulations=self.simulations,
                memo_hits=self.memo_hits,
                disk_hits=self.disk_hits,
                events_simulated=self.events_simulated,
                pool_workers=_POOL_WORKERS,
                start_method=_mp_context().get_start_method(),
            )


_STATS = ExecutorStats()


def _collect_executor_series():
    """Registry collector: the executor counters as labelled series."""
    snap = _STATS.snapshot()
    labels = {"pool": str(snap.pool_workers), "start_method": snap.start_method}
    return [
        {
            "name": "executor_simulations_total",
            "type": "counter",
            "labels": labels,
            "value": snap.simulations,
        },
        {
            "name": "executor_memo_hits_total",
            "type": "counter",
            "labels": labels,
            "value": snap.memo_hits,
        },
        {
            "name": "executor_disk_hits_total",
            "type": "counter",
            "labels": labels,
            "value": snap.disk_hits,
        },
        {
            "name": "executor_events_simulated_total",
            "type": "counter",
            "labels": labels,
            "value": snap.events_simulated,
        },
        {
            "name": "executor_pool_workers",
            "type": "gauge",
            "labels": {"start_method": snap.start_method},
            "value": snap.pool_workers,
        },
    ]


obs_registry.get_registry().register_collector(_collect_executor_series)

#: Module defaults applied by :func:`get_executor` (and by a directly
#: built executor for ``jobs``/``use_cache``); `None` jobs means "serial"
#: for library callers - the CLI opts into cpu_count explicitly.
_DEFAULT_JOBS: int = 1
_DEFAULT_USE_CACHE: bool = True
_DEFAULT_FLEET: Optional["FleetClient"] = None

#: ``configure(fleet=...)`` default: leave the configured fleet as is
#: (``None`` is a real value - it clears the fleet).
_KEEP = object()


def stats() -> ExecutorStats:
    """The live process-wide executor counters."""
    return _STATS


def reset(clear_memo: bool = True) -> None:
    """Zero the counters; optionally drop the in-process memo too.

    Does *not* tear down the worker pool - warm workers survive a
    counter reset.  Call :func:`shutdown_pool` for that.
    """
    _STATS.clear()
    if clear_memo:
        _MEMO.clear()


def configure(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    fleet: object = _KEEP,
) -> None:
    """Set the default executor policy for this process.

    ``fleet`` is the :class:`~repro.fleet.client.FleetClient` that
    :func:`get_executor`'s executors send their misses to, or ``None``
    to simulate locally; omitted, it is left unchanged.
    """
    global _DEFAULT_JOBS, _DEFAULT_USE_CACHE, _DEFAULT_FLEET
    if jobs is not None:
        _DEFAULT_JOBS = max(1, jobs)
    if use_cache is not None:
        _DEFAULT_USE_CACHE = use_cache
    if fleet is not _KEEP:
        _DEFAULT_FLEET = fleet  # type: ignore[assignment]


@contextmanager
def configured(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    fleet: object = _KEEP,
):
    """Temporarily override the default executor policy."""
    saved = (_DEFAULT_JOBS, _DEFAULT_USE_CACHE, _DEFAULT_FLEET)
    configure(jobs=jobs, use_cache=use_cache, fleet=fleet)
    try:
        yield
    finally:
        configure(*saved)


def default_jobs() -> int:
    """The CLI default for ``--jobs``: every available core."""
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# the persistent, process-wide worker pool
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS: int = 0
_POOL_LOCK = threading.Lock()


def _mp_context():
    """The multiprocessing start method for the worker pool.

    ``fork`` where the platform offers it: forked workers inherit the
    parent's imported modules (and its in-process memo, harmlessly), so
    the pool is warm from the first task.  Elsewhere (Windows) this
    falls back to ``spawn``: workers re-import ``repro`` on start-up,
    which only costs extra wall-clock the first time each worker runs -
    results are identical either way.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared worker pool, created lazily and grown on demand.

    A pool already at least ``workers`` wide is returned as-is (warm
    workers are the whole point); a narrower one is drained and replaced
    by a wider one.  Shrinking never happens implicitly - idle workers
    cost almost nothing.
    """
    global _POOL, _POOL_WORKERS
    from concurrent.futures import ProcessPoolExecutor

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with _POOL_LOCK:
        if _POOL is not None and _POOL_WORKERS >= workers:
            return _POOL
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=_mp_context())
        _POOL_WORKERS = workers
        return _POOL


def _prefork_nap(delay: float) -> None:
    """Priming task for :func:`prefork_pool` (module-level: picklable)."""
    time.sleep(delay)


def prefork_pool(workers: int) -> None:
    """Fork every pool worker *now* (blocking, idempotent).

    :class:`ProcessPoolExecutor` forks workers lazily, one per submit,
    and reuses an idle worker instead of forking — so merely creating
    the pool forks nothing, and the real forks happen mid-batch with
    whatever file descriptors the process has open *then*.  Each priming
    task naps just long enough that no worker goes idle while the
    ``workers`` submits are still arriving, which forces the full
    complement of forks to happen here and nowhere else.
    """
    pool = get_pool(workers)
    if workers > 1:
        list(pool.map(_prefork_nap, [0.05] * workers, chunksize=1))


def shutdown_pool() -> None:
    """Drain and discard the shared pool (idempotent).

    Registered with :mod:`atexit`; also called explicitly by the bench
    harness between timed legs and by the daemon on graceful shutdown.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
            _POOL = None
            _POOL_WORKERS = 0


def pool_workers() -> int:
    """Current width of the shared pool (0 when no pool is live)."""
    return _POOL_WORKERS


atexit.register(shutdown_pool)


def _simulate(point: MeasurementPoint) -> Tuple[BandwidthMeasurement, int]:
    """Pool worker: run one simulation (module-level, hence picklable).

    When a distributed span sink is configured (a traced fleet run:
    ``REPRO_TRACE_DIR`` plus an active lifecycle sampling rate), the
    lifecycle contexts this simulation finished are drained and written
    to the worker's own span file as ``sim`` spans stamped with the
    point's cache key - the only channel out of a fork worker, and how
    the exporter telescopes the simulated RTT under the backend's serve
    span.
    """
    outcome = simulate_point(point)
    if wiretrace.sim_sink_active():
        contexts = obs_trace.drain_finished()
        if contexts:
            wiretrace.record_sim_contexts(cache_key(point), contexts)
    return outcome


def _expected_cost(point: MeasurementPoint) -> float:
    """Relative expected event count of one simulation.

    Event volume scales with the simulated duration, the number of
    generating ports, and (for multi-cube topologies) the pass-through
    hops of extra cubes; small payloads squeeze more requests into the
    same window.  Only the *ordering* of these estimates matters - they
    schedule expensive misses first so one long simulation cannot start
    last and serialize the tail of a batch.
    """
    settings = point.settings
    duration = settings.warmup_us + settings.window_us
    ports = point.active_ports if point.active_ports is not None else 9
    cubes = settings.topology.num_cubes if settings.topology is not None else 1
    payload_factor = 1.0 + (128 - point.payload_bytes) / 256.0
    return duration * ports * cubes * payload_factor


class MeasurementExecutor:
    """Batch-dedup-fan-out front end for bandwidth measurements.

    Parameters
    ----------
    jobs:
        Worker processes for cache misses.  ``1`` runs inline (no pool).
        ``None`` uses the module default set via :func:`configure`.
    use_cache:
        Whether to consult/populate the on-disk result cache.  ``None``
        uses the module default.  The in-process memo is always used -
        it can never be stale within one process.
    cache:
        Cache instance override (tests); defaults to the directory
        resolved from the environment at each batch.
    fleet:
        A :class:`~repro.fleet.client.FleetClient` that takes the
        misses instead of the local simulation.  The executor does not
        own it.  Unlike ``jobs`` and ``use_cache`` it has no module
        default here: only :func:`get_executor` applies the configured
        fleet.

    Each executor counts what it did in its own :attr:`stats`, as well
    as in the process-wide counters.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        use_cache: Optional[bool] = None,
        cache: Optional[ResultCache] = None,
        fleet: Optional["FleetClient"] = None,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else _DEFAULT_JOBS)
        self.use_cache = use_cache if use_cache is not None else _DEFAULT_USE_CACHE
        self._cache = cache
        self.fleet = fleet
        self.stats = ExecutorStats()

    def _count(self, **counts: int) -> None:
        _STATS.add(**counts)
        self.stats.add(**counts)

    def _resolve_cache(self) -> Optional[ResultCache]:
        if not self.use_cache:
            return None
        return self._cache if self._cache is not None else ResultCache()

    def prefork(self) -> None:
        """Start the worker pool now instead of at the first batch.

        Daemons call this *before* binding their listener: with the
        ``fork`` start method, workers inherit every file descriptor
        open at fork time, so a pool forked lazily mid-request would
        hold the daemon's listener and connection sockets — and a
        SIGKILLed daemon would leave those sockets alive in its orphaned
        workers, its peers waiting on connections that never see EOF.
        Forking while no socket exists makes the daemon's death observable.
        """
        if self.jobs > 1:
            prefork_pool(self.jobs)

    def measure_point(self, point: MeasurementPoint) -> BandwidthMeasurement:
        """Measure a single point (memo -> disk -> simulate)."""
        return self.measure_points((point,))[0]

    def measure_points(
        self, points: Iterable[MeasurementPoint]
    ) -> List[BandwidthMeasurement]:
        """Measure a batch; results come back in submission order.

        Duplicate points collapse to one simulation; cached points cost
        no simulation at all.  Misses run across the worker pool (or
        inline when ``jobs == 1`` or only one miss remains).
        """
        batch = list(points)
        keys = [cache_key(point) for point in batch]
        keyed: Dict[str, MeasurementPoint] = {}
        for key, point in zip(keys, batch):
            keyed.setdefault(key, point)
        resolved = self.measure_keyed(keyed)
        return [resolved[key] for key in keys]

    def measure_keyed(
        self, keyed: Mapping[str, MeasurementPoint]
    ) -> Dict[str, BandwidthMeasurement]:
        """Batch-submit hook for externally arriving, pre-keyed points.

        The measurement daemon's coalescing batcher computes each
        point's :func:`~repro.core.cache.cache_key` once (it is also its
        coalescing identity) and submits ``{key: point}`` maps here, so
        the key work is never repeated.  Each key resolves memo -> disk
        cache -> miss backend: the unique misses fan out across the
        worker pool, or travel to the fleet as one pipelined batch.
        Misses that differ only in ``pattern_name`` run once per process,
        and each label gets the result relabeled, under its own key.  New
        results are persisted with one batched
        :meth:`~repro.core.cache.ResultCache.store_many` call, and the
        returned map covers every submitted key.
        """
        results: Dict[str, BandwidthMeasurement] = {}
        cache = self._resolve_cache()

        memo_hits = 0
        disk_hits = 0
        # Misses grouped by physics: the label reaches no simulation
        # input, so the memo also holds each simulated result under its
        # unlabeled key (as the unlabeled point's own result), and every
        # label of one physical point shares one simulation.
        missing: Dict[str, List[Tuple[str, MeasurementPoint]]] = {}
        for key, point in keyed.items():
            memoized = _MEMO.get(key)
            if memoized is not None:
                memo_hits += 1
                results[key] = memoized
                continue
            if cache is not None:
                stored = cache.load(key)
                if stored is not None:
                    disk_hits += 1
                    _MEMO[key] = stored
                    results[key] = stored
                    continue
            unlabeled = cache_key(replace(point, pattern_name=""))
            missing.setdefault(unlabeled, []).append((key, point))

        measured = {u: m for u in missing if (m := _MEMO.get(u)) is not None}
        to_run = [u for u in missing if u not in measured]
        if to_run:
            run_points = [missing[u][0][1] for u in to_run]
            if self.fleet is not None:
                # The shards that run these simulations count them.
                measurements = self.fleet.measure_many(run_points)
            else:
                outcomes = self._run_misses(run_points)
                measurements = [measurement for measurement, _ in outcomes]
                self._count(
                    simulations=len(outcomes),
                    events_simulated=sum(events for _, events in outcomes),
                )
            for unlabeled, measurement in zip(to_run, measurements):
                measured[unlabeled] = _MEMO[unlabeled] = replace(
                    measurement, pattern_name=""
                )
        memo_hits += sum(len(labels) for labels in missing.values()) - len(to_run)
        if memo_hits or disk_hits:
            self._count(memo_hits=memo_hits, disk_hits=disk_hits)

        fresh = [
            (key, replace(measured[unlabeled], pattern_name=point.pattern_name))
            for unlabeled, labels in missing.items()
            for key, point in labels
        ]
        for key, measurement in fresh:
            _MEMO[key] = measurement
            results[key] = measurement
        if fresh and cache is not None:
            cache.store_many(fresh)
        return results

    def _run_misses(
        self, miss_points: Sequence[MeasurementPoint]
    ) -> List[Tuple[BandwidthMeasurement, int]]:
        workers = min(self.jobs, len(miss_points))
        if workers <= 1:
            return [_simulate(point) for point in miss_points]
        from concurrent.futures.process import BrokenProcessPool

        # Submit expensive points first (cost-aware scheduling), then
        # restore submission order for the caller.
        n = len(miss_points)
        order = sorted(
            range(n), key=lambda i: (-_expected_cost(miss_points[i]), i)
        )
        ordered = [miss_points[i] for i in order]
        chunksize = max(1, n // (workers * 4))
        try:
            mapped = list(
                get_pool(self.jobs).map(_simulate, ordered, chunksize=chunksize)
            )
        except BrokenProcessPool:
            # A worker died (OOM kill, signal).  Replace the pool and
            # retry the batch once; a second failure propagates.
            get_logger("executor").warning(
                "pool_broken", retry=True, points=len(miss_points)
            )
            shutdown_pool()
            mapped = list(
                get_pool(self.jobs).map(_simulate, ordered, chunksize=chunksize)
            )
        results: List[Optional[Tuple[BandwidthMeasurement, int]]] = [None] * n
        for slot, outcome in zip(order, mapped):
            results[slot] = outcome
        return results  # type: ignore[return-value]


def get_executor(
    jobs: Optional[int] = None, use_cache: Optional[bool] = None
) -> MeasurementExecutor:
    """An executor for the configured policy.

    Explicit ``jobs``/``use_cache`` win over the module defaults (the
    sweep runners thread them through their API); the configured fleet,
    if any, takes the misses.
    """
    return MeasurementExecutor(jobs=jobs, use_cache=use_cache, fleet=_DEFAULT_FLEET)
