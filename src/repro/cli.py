"""Command-line interface: regenerate the paper's evaluation.

Usage::

    python -m repro list
    python -m repro run fig7
    python -m repro run fig7 --json > fig7.ndjson
    python -m repro run fig16 --fast
    python -m repro campaign --fast --jobs 8 --output report.txt
    python -m repro kernels
    python -m repro sweep --patterns "2 banks" "16 vaults" --csv out.csv
    python -m repro sweep --patterns "16 vaults" --sizes 32 128 --json
    python -m repro sweep --patterns "16 vaults" --topology chain --cubes 4
    python -m repro devices list
    python -m repro run fig7 --fast --device hbm2
    python -m repro sweep --patterns "1 vault" --sizes 32 128 --device ddr4
    python -m repro topo --kind chain --cubes 4
    python -m repro topo --kind star --cubes 8 --size 32 --json
    python -m repro cache stats
    python -m repro run fig8 --kernel vector
    python -m repro run fig13 --fast --kernel-parity
    python -m repro bench --check
    python -m repro serve --port 8642 --jobs 8
    python -m repro query --pattern "16 vaults" --size 128 --json
    python -m repro query --stats
    python -m repro query --metrics
    python -m repro fleet up -n 3
    python -m repro fleet status
    python -m repro query --fleet --pattern "16 vaults" --size 128
    python -m repro sweep --patterns "16 vaults" --fleet --json
    python -m repro fleet down
    python -m repro fleet up -n 3 --trace-sample 1 --log-level debug
    python -m repro fleet top --iterations 1 --slo-p95-ms 500
    python -m repro metrics --port 8642
    python -m repro metrics --fleet --serve 9464
    python -m repro trace run --pattern "16 vaults" --out trace.json
    python -m repro trace export spans.ndjson --format report
    python -m repro trace export .repro-fleet/trace --out fleet_trace.json
    python -m repro run fig7 --fast --trace fig7_trace.json --trace-sample 16

``--json`` output is newline-delimited JSON in the versioned wire
schema (:mod:`repro.core.schema`) - the same format the measurement
daemon speaks and the result cache stores.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.core import parallel
from repro.core.campaign import run_campaign, run_experiment
from repro.core.experiment import VALID_KERNELS, ExperimentSettings, parity_errors
from repro.experiments import REGISTRY

FAST_SETTINGS = ExperimentSettings(warmup_us=10.0, window_us=40.0)

_DESCRIPTIONS = {
    "table1": "structural properties of HMC versions",
    "table2": "transaction sizes in flits",
    "table3": "cooling configurations + derived cooling power",
    "fig3": "address mapping by max block size",
    "fig6": "bandwidth vs 8-bit address mask position",
    "fig7": "bandwidth by access pattern (ro/rw/wo)",
    "fig8": "read bandwidth + MRPS by request size",
    "fig9": "temperature + bandwidth per pattern, Cfg1-4",
    "fig10": "system power + bandwidth per pattern",
    "fig11": "linear fits of T/P vs bandwidth (Cfg2)",
    "fig12": "iso-temperature cooling power vs bandwidth",
    "fig13": "linear vs random by request size (closed page)",
    "fig14": "TX-path latency deconstruction",
    "fig15": "low-load latency vs stream depth",
    "fig16": "high-load read latency by pattern/size",
    "fig17": "Little's-law occupancy at saturation",
    "fig18": "latency-bandwidth for all patterns and sizes",
    "failures": "thermal failure limits + recovery",
    "hmc2": "projection onto HMC 2.0 (extension)",
    "nethops": "chained-cube hop latency (extension)",
    "netbw": "remote-cube bandwidth on a chain (extension)",
}


#: Relative-error tolerance for vector-vs-DES parity gates (``repro bench
#: --check`` and ``repro run --kernel-parity``): 0.1%.
KERNEL_PARITY_TOLERANCE = 0.001

#: Minimum DES-equivalent event advance ratio (`events_equivalent /
#: events`) the vector kernel must reach on the bench suite.  Its cold
#: calibration is 3 of 48 window chunks (a 16x ratio); gating at 15 is
#: deterministic and machine-independent (wall speedups are reported,
#: never gated).
KERNEL_MIN_ADVANCE_RATIO = 15.0

#: The accelerated kernel `repro bench` measures against the DES.
BENCH_KERNEL = "vector"

#: The fixed suite `repro bench` measures: the six
#: certified-stationary workloads (pattern label, type, payload, mode)
#: whose vector results are parity-gated against event-exact DES runs.
KERNEL_BENCH_POINTS = (
    ("ro128r", "ro", 128, "random"),
    ("wo128r", "wo", 128, "random"),
    ("ro32r", "ro", 32, "random"),
    ("ro128l", "ro", 128, "linear"),
    ("ro64r", "ro", 64, "random"),
    ("wo64r", "wo", 64, "random"),
)


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    settings = FAST_SETTINGS if args.fast else ExperimentSettings()
    device = getattr(args, "device", None)
    if device and device != "hmc1":
        from repro.devices import resolve_device

        settings = resolve_device(device).apply(settings)
    kernel = getattr(args, "kernel", None)
    if kernel and kernel != "des":
        from dataclasses import replace

        settings = replace(settings, kernel=kernel)
    return settings


def _choice_flag(
    parser: argparse.ArgumentParser,
    flag: str,
    *,
    choices,
    help_text: str,
    default: Optional[str] = None,
    dest: Optional[str] = None,
) -> None:
    """Add a selector flag with the CLI's one validation/error format.

    Every name-selector flag (``--device``, ``--kernel``, ``--topology``,
    ``--cube-map``) goes through here so an invalid value always reads
    ``invalid <flag> 'value' (choose from a, b, c)`` and the help text
    always lists the accepted names.  ``choices`` may be a callable for
    registries that can grow at runtime (the device zoo).
    """

    def parse(value: str) -> str:
        names = tuple(choices() if callable(choices) else choices)
        if value not in names:
            raise argparse.ArgumentTypeError(
                f"invalid {flag} {value!r} (choose from {', '.join(names)})"
            )
        return value

    names = tuple(choices() if callable(choices) else choices)
    kwargs = {"dest": dest} if dest else {}
    parser.add_argument(
        flag,
        default=default,
        type=parse,
        metavar="{" + ",".join(names) + "}",
        help=help_text,
        **kwargs,
    )


def _device_names():
    """Registered backend names (imported lazily to keep startup cheap).

    Scans the ``repro.devices`` entry-point group first so third-party
    backends are accepted by ``--device`` and listed in its errors.
    """
    from repro.devices import device_names
    from repro.devices.registry import _load_entry_points

    _load_entry_points()
    return device_names()


def _with_topology(
    settings: ExperimentSettings, args: argparse.Namespace
) -> ExperimentSettings:
    """Apply the ``--topology``/``--cubes`` flags to the settings."""
    kind = getattr(args, "topology", None)
    cubes = getattr(args, "cubes", None)
    if kind is None and cubes is None:
        return settings
    from dataclasses import replace

    from repro.topology.spec import TopologySpec

    spec = TopologySpec(
        kind or "chain", cubes or 1, getattr(args, "cube_map", "contiguous")
    )
    return replace(settings, topology=spec)


def _jobs(args: argparse.Namespace) -> int:
    """Worker count: ``--jobs`` when given, else every available core."""
    return args.jobs if args.jobs else parallel.default_jobs()


@contextmanager
def _tracing(args: argparse.Namespace):
    """Honour ``--trace``/``--trace-sample`` around a command body.

    Tracing forces the serial in-process executor and disables the
    result cache so every sampled request actually simulates in this
    process; the lifecycles collected while the body runs are written
    to the ``--trace`` path as ``sim`` spans in a Chrome/Perfetto
    ``trace_event`` document.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield
        return
    from repro.obs import export as obs_export
    from repro.obs import trace as obs_trace
    from repro.obs import wiretrace

    args.jobs = 1
    args.no_cache = True
    obs_trace.drain_finished()  # drop any spans a previous command left
    obs_trace.configure(args.trace_sample)
    try:
        yield
    finally:
        obs_trace.configure(None)
        spans = wiretrace.sim_spans(obs_trace.drain_finished())
        count = obs_export.write_wire_trace(
            path, spans, label=f"repro {args.command}"
        )
        print(f"wrote {path} ({count} spans, sample 1/{args.trace_sample})")


def _cmd_list(_: argparse.Namespace) -> int:
    width = max(len(i) for i in REGISTRY)
    for experiment_id in REGISTRY:
        description = _DESCRIPTIONS.get(experiment_id, "")
        print(f"{experiment_id:{width}s}  {description}")
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    """``repro devices list``: the registered memory-device backends."""
    from repro.devices import iter_devices

    _device_names()  # force the lazy entry-point scan so plugins appear
    entries = list(iter_devices())
    width = max(len(name) for name, _ in entries)
    for name, description in entries:
        print(f"{name:{width}s}  {description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if getattr(args, "kernel_parity", False):
        return _run_kernel_parity(args)
    if args.json:
        with _tracing(args):
            return _run_json(args)
    with _tracing(args), parallel.configured(
        jobs=_jobs(args), use_cache=not args.no_cache
    ):
        outcome = run_experiment(args.experiment, _settings(args))
    print(outcome.report)
    if not outcome.passed:
        print("Shape deviations:", "; ".join(outcome.problems), file=sys.stderr)
        return 1
    return 0


def _run_json(args: argparse.Namespace) -> int:
    """Emit one wire-schema ``measurement_result`` line per grid point."""
    from repro.core import schema
    from repro.core.campaign import collect_measurement_points

    settings = _settings(args)
    points = collect_measurement_points([args.experiment], settings)
    if not points:
        print(
            f"{args.experiment} has no measurement grid (static table or "
            "analytic figure); --json applies to simulated experiments",
            file=sys.stderr,
        )
        return 2
    with parallel.configured(jobs=_jobs(args), use_cache=not args.no_cache):
        measurements = parallel.get_executor().measure_points(points)
    for point, measurement in zip(points, measurements):
        print(schema.dumps(schema.result_to_dict(point, measurement)))
    return 0


def _run_kernel_parity(args: argparse.Namespace) -> int:
    """``run --kernel-parity``: vector vs DES over one experiment's grid.

    Simulates every point of the experiment's measurement grid under
    both kernels and fails (exit 1) if any headline metric diverges by
    more than :data:`KERNEL_PARITY_TOLERANCE`.  Points the vector
    kernel declines (decertified or ineligible) fall back to DES and
    therefore compare exactly - the flag checks the whole grid, not
    just the certified subset.
    """
    from dataclasses import replace

    from repro.core.campaign import collect_measurement_points

    settings = _settings(args)
    if settings.kernel == "des":
        settings = replace(settings, kernel="vector")
    des_settings = replace(settings, kernel="des")
    points = collect_measurement_points([args.experiment], settings)
    if not points:
        print(
            f"{args.experiment} has no measurement grid; --kernel-parity "
            "applies to simulated experiments",
            file=sys.stderr,
        )
        return 2
    des_points = [replace(p, settings=des_settings) for p in points]
    with parallel.configured(jobs=_jobs(args), use_cache=not args.no_cache):
        executor = parallel.get_executor()
        hybrid = executor.measure_points(points)
        exact = executor.measure_points(des_points)
    worst = 0.0
    failures = 0
    for point, des_m, hyb_m in zip(points, exact, hybrid):
        errors = parity_errors(des_m, hyb_m)
        peak_metric = max(errors, key=lambda k: errors[k])
        peak = errors[peak_metric]
        worst = max(worst, peak)
        flag = "ok" if peak <= KERNEL_PARITY_TOLERANCE else "FAIL"
        if flag == "FAIL":
            failures += 1
        print(
            f"{flag:4s} {point.pattern_name} {point.request_type.value} "
            f"{point.payload_bytes}B {point.mode.value}: "
            f"worst {peak:.4%} ({peak_metric})"
        )
    print(
        f"kernel parity ({settings.kernel} vs des): {len(points)} points, "
        f"worst error {worst:.4%}, tolerance {KERNEL_PARITY_TOLERANCE:.2%}"
    )
    return 1 if failures else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    with _maybe_fleet(args):
        result = run_campaign(
            _settings(args),
            experiment_ids=args.only or None,
            jobs=_jobs(args),
            use_cache=not args.no_cache,
        )
    report = result.full_report()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.output}")
    print(result.summary())
    return 0 if result.passed else 1


def _cmd_kernels(args: argparse.Namespace) -> int:
    from repro.workloads import (
        characterize,
        graph_traversal,
        hash_table_updates,
        pointer_chase,
        stencil_2d,
        streaming,
        strided,
    )

    count = 2000 if args.fast else 6000
    kernels = (
        streaming(count),
        strided(count, 2048),
        stencil_2d(32, 128),
        pointer_chase(max(100, count // 20)),
        hash_table_updates(count // 2),
        graph_traversal(count, skew=2.0),
    )
    for trace in kernels:
        report = characterize(trace)
        print(
            f"{report.trace_name:24s} {report.pattern_class:32s} "
            f"BW={report.result.bandwidth_gbs:6.2f} GB/s  "
            f"RTT={report.result.latency_avg_ns / 1e3:6.2f} us"
        )
        print(f"{'':24s} -> {report.advice()}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.sweeps import SweepGrid, run_sweep, run_sweep_detailed, to_csv
    from repro.hmc.packet import RequestType

    grid = SweepGrid(
        patterns=tuple(args.patterns),
        request_types=tuple(RequestType.from_label(t) for t in args.types),
        payload_bytes=tuple(args.sizes),
    )
    settings = _with_topology(_settings(args), args)
    if args.json:
        from repro.core import schema

        with _tracing(args), _maybe_fleet(args):
            detailed = run_sweep_detailed(
                grid, settings, jobs=_jobs(args), use_cache=not args.no_cache
            )
        for point, measurement in detailed:
            print(schema.dumps(schema.result_to_dict(point, measurement)))
        return 0
    with _tracing(args), _maybe_fleet(args):
        records = run_sweep(
            grid, settings, jobs=_jobs(args), use_cache=not args.no_cache
        )
    text = to_csv(records, args.csv)
    if args.csv:
        print(f"wrote {args.csv} ({len(records)} records)")
    else:
        print(text, end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_service

    run_service(
        host=args.host,
        port=args.port,
        jobs=_jobs(args),
        use_cache=not args.no_cache,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    if getattr(args, "fleet", False):
        from repro.fleet.client import FleetClient

        if args.shutdown:
            print(
                "a fleet is stopped with `repro fleet down`, not --shutdown",
                file=sys.stderr,
            )
            return 2
        with FleetClient(run_dir=args.fleet_dir) as fleet_client:
            if args.ping:
                print("pong" if fleet_client.ping() else "no answer")
                return 0
            if args.stats:
                print(json.dumps(fleet_client.stats(), indent=2, sort_keys=True))
                return 0
            if args.metrics:
                print(json.dumps(fleet_client.metrics(), indent=2, sort_keys=True))
                return 0
            return _query_measure(args, fleet_client)

    from repro.service.client import ServiceClient

    with ServiceClient(host=args.host, port=args.port) as client:
        if args.ping:
            print("pong" if client.ping() else "no answer")
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.metrics:
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            client.shutdown()
            print("shutdown requested; daemon is draining")
            return 0
        return _query_measure(args, client)


def _query_measure(args: argparse.Namespace, client) -> int:
    """Round-trip one measurement point through the daemon."""
    from repro.core import schema
    from repro.core.experiment import MeasurementPoint
    from repro.core.patterns import pattern_by_name
    from repro.fpga.address_gen import AddressingMode
    from repro.hmc.packet import RequestType

    settings = _with_topology(_settings(args), args)
    point = MeasurementPoint.for_pattern(
        pattern_by_name(args.pattern, settings.config),
        request_type=RequestType.from_label(args.type),
        payload_bytes=args.size,
        settings=settings,
        mode=AddressingMode.from_label(args.mode),
        active_ports=args.ports,
    )
    measurement = client.measure(point)
    if args.json:
        print(schema.dumps(schema.result_to_dict(point, measurement)))
    else:
        print(
            f"{point.pattern_name} {point.request_type.value} "
            f"{point.payload_bytes}B {point.mode.value}: "
            f"{measurement.bandwidth_gbs:.2f} GB/s, {measurement.mrps:.1f} MRPS, "
            f"read avg {measurement.read_latency_avg_ns / 1e3:.2f} us"
        )
    return 0


def _cmd_fleet_up(args: argparse.Namespace) -> int:
    from repro.fleet.manager import FleetLaunchError, fleet_up
    from repro.fleet.spec import FleetSpec, FleetStateError

    spec = FleetSpec(
        backends=args.backends,
        host=args.host,
        router_port=args.router_port,
        run_dir=args.run_dir,
        jobs_per_backend=args.jobs,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        replicas=args.replicas,
        use_cache=not args.no_cache,
        trace_sample=args.trace_sample,
        log_level=args.log_level,
    )
    try:
        state = fleet_up(spec)
    except (FleetLaunchError, FleetStateError) as exc:
        print(f"fleet up failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"fleet up: router {state.host}:{state.router_port} "
        f"(pid {state.router_pid}), {len(state.backends)} backend(s)"
    )
    for backend in state.backends:
        print(
            f"  {backend.name}: {backend.host}:{backend.port} "
            f"(pid {backend.pid}, cache {backend.cache_dir})"
        )
    if spec.trace_sample:
        print(
            f"tracing: 1/{spec.trace_sample} of requests, "
            f"spans in {spec.trace_dir()}"
        )
    print(f"state: {state.save()}")
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    import json

    from repro.fleet.manager import fleet_status
    from repro.fleet.spec import FleetStateError
    from repro.fleet.watch import served_quantiles

    try:
        status = fleet_status(args.run_dir)
    except FleetStateError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0 if status["healthy"] else 1
    router = status["router"]
    print(
        f"fleet in {status['run_dir']}: "
        f"{'healthy' if status['healthy'] else 'DEGRADED'}"
    )
    print(
        f"  router     {router['host']}:{router['port']} pid {router['pid']} "
        f"{'alive' if router['alive'] else 'DEAD'}"
    )
    ring_view = router.get("stats", {}).get("backends", {})
    for name, entry in sorted(status["backends"].items()):
        ring = ring_view.get(name, {})
        extra = ""
        if ring:
            p50, p95 = served_quantiles(ring)
            extra = (
                f"  ring={'in' if ring.get('alive') else 'OUT'} "
                f"requests={int(ring.get('requests') or 0)} "
                f"p50={'-' if p50 is None else f'{p50:.1f}ms'} "
                f"p95={'-' if p95 is None else f'{p95:.1f}ms'}"
            )
        print(
            f"  {name:10s} {entry['host']}:{entry['port']} pid {entry['pid']} "
            f"{'alive' if entry['alive'] else 'DEAD'}{extra}"
        )
    if "stats_error" in router:
        print(f"  (router stats unavailable: {router['stats_error']})")
    return 0 if status["healthy"] else 1


def _cmd_fleet_down(args: argparse.Namespace) -> int:
    from repro.fleet.manager import fleet_down
    from repro.fleet.spec import FleetStateError

    try:
        outcome = fleet_down(args.run_dir, timeout=args.timeout)
    except FleetStateError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    stopped = ", ".join(outcome["stopped"]) or "none"
    print(f"fleet down: stopped {stopped}")
    if outcome["killed"]:
        print(f"  killed after timeout: {', '.join(outcome['killed'])}")
    return 0


def _cmd_fleet_route(args: argparse.Namespace) -> int:
    """Run the fleet router in the foreground (spawned by ``fleet up``)."""
    from repro.fleet.router import run_router

    backends = {}
    for entry in args.backend:
        name, sep, address = entry.partition("=")
        host, _, port = address.rpartition(":")
        if not sep or not host or not port.isdigit():
            print(
                f"invalid --backend {entry!r} (expected name=host:port)",
                file=sys.stderr,
            )
            return 2
        backends[name] = (host, int(port))
    run_router(backends, host=args.host, port=args.port, replicas=args.replicas)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics``: scrape-or-serve Prometheus text exposition.

    One-shot (default): fetch the endpoint's ``metrics`` snapshot - one
    daemon's series, or the aggregated fleet view with ``--fleet`` -
    render it in the Prometheus text format, and print it.  With
    ``--serve PORT`` keep running as a scrape proxy: every HTTP GET of
    ``/metrics`` re-fetches and re-renders a fresh snapshot, giving a
    router-less fleet (or a remote Prometheus) one stable endpoint.
    """
    from repro.obs import export as obs_export

    def snapshot() -> dict:
        if args.fleet:
            from repro.fleet.client import FleetClient

            with FleetClient(run_dir=args.fleet_dir) as fleet_client:
                return fleet_client.metrics()
        from repro.service.client import ServiceClient

        with ServiceClient(host=args.host, port=args.port) as client:
            return client.metrics()

    if args.serve is None:
        print(obs_export.prometheus_text(snapshot()), end="")
        return 0
    scrape = obs_export.MetricsHTTPServer(
        lambda: obs_export.prometheus_text(snapshot()),
        port=args.serve,
    )
    bound = scrape.start()
    print(f"repro metrics: serving http://127.0.0.1:{bound}/metrics")
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        scrape.stop()
    return 0


def _cmd_fleet_top(args: argparse.Namespace) -> int:
    """``repro fleet top``: live per-backend fleet health table.

    Polls the router's ``stats`` verb every ``--interval`` seconds and
    renders the :func:`repro.fleet.watch.render_top` table, flagging
    the backends that breach the ``--slo-*`` thresholds (evaluated
    here, client-side).  ``--iterations N`` bounds the
    loop (CI uses 1); the default 0 runs until interrupted.
    """
    import time as _time

    from repro.fleet.spec import FleetState, FleetStateError
    from repro.fleet.watch import SLOThresholds, evaluate_slo, render_top
    from repro.service.client import ServiceClient
    from repro.service.protocol import ServiceError

    try:
        state = FleetState.load(args.run_dir)
    except FleetStateError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    thresholds = SLOThresholds(
        p95_ms=args.slo_p95_ms, failover_rate=args.slo_failover_rate
    )
    iteration = 0
    try:
        while True:
            iteration += 1
            try:
                with ServiceClient(
                    host=state.host,
                    port=state.router_port,
                    connect_timeout=5.0,
                    read_timeout=10.0,
                ) as client:
                    stats = client.stats()
            except (ServiceError, OSError) as exc:
                print(f"fleet top: router unreachable: {exc}", file=sys.stderr)
                return 1
            breaches = (
                evaluate_slo(stats, thresholds) if thresholds.enabled else []
            )
            print(render_top(stats, breaches))
            if args.iterations and iteration >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


@contextmanager
def _maybe_fleet(args: argparse.Namespace):
    """Route measurement misses to a running fleet when ``--fleet`` asks.

    Configures the fleet client as the executor's miss backend for the
    command body, so sweeps and campaigns measure through the fleet with
    their ordinary code paths; without ``--fleet`` this is a no-op.
    """
    if not getattr(args, "fleet", False):
        yield
        return
    from repro.fleet.client import FleetClient

    fleet_dir = getattr(args, "fleet_dir", None)
    with FleetClient(run_dir=fleet_dir) as client, parallel.configured(fleet=client):
        yield


def _cmd_trace(args: argparse.Namespace) -> int:
    """Dispatch the ``trace`` subcommand (``run`` / ``export``)."""
    if args.action == "run":
        return _trace_run(args)
    return _trace_export(args)


def _trace_run(args: argparse.Namespace) -> int:
    """Trace one measurement point, report, export, and cross-validate."""
    from repro.core.experiment import MeasurementPoint, simulate_point_traced
    from repro.core.patterns import pattern_by_name
    from repro.fpga.address_gen import AddressingMode
    from repro.hmc.packet import RequestType
    from repro.obs import export as obs_export
    from repro.obs import wiretrace

    settings = _settings(args)
    point = MeasurementPoint.for_pattern(
        pattern_by_name(args.pattern, settings.config),
        request_type=RequestType.from_label(args.type),
        payload_bytes=args.size,
        settings=settings,
        mode=AddressingMode.from_label(args.mode),
        active_ports=args.ports,
    )
    observed: dict = {}
    measurement, tracer = simulate_point_traced(
        point, sample=args.sample, observer=observed
    )
    spans = wiretrace.sim_spans(tracer.contexts)
    title = (
        f"{point.pattern_name} {point.request_type.value} "
        f"{point.payload_bytes}B {point.mode.value}: "
        f"{measurement.bandwidth_gbs:.2f} GB/s, "
        f"read avg {measurement.read_latency_avg_ns / 1e3:.2f} us"
    )
    result = obs_export.breakdown(spans)
    print(obs_export.render_report(result, title=title))
    if args.out:
        count = obs_export.write_wire_trace(
            args.out, spans, label=f"repro trace {point.pattern_name}"
        )
        print(f"wrote {args.out} ({count} spans, sample 1/{args.sample})")
    if args.spans:
        count = obs_export.write_wire_spans(args.spans, spans)
        print(f"wrote {args.spans} ({count} wire spans)")
    if args.no_validate:
        return 0
    # Cross-check the traced hotspot against the station counters of
    # the same run.
    if not result.count:
        print("trace: no finished read spans to validate", file=sys.stderr)
        return 1
    agrees, detail = obs_export.agrees_with_profile(result, observed["stations"])
    print(("AGREES: " if agrees else "DISAGREES: ") + detail)
    return 0 if agrees else 1


def _trace_export(args: argparse.Namespace) -> int:
    """Re-render wire spans as Perfetto JSON or a report.

    ``SPANS`` is a span file (``trace run --spans``) or a directory of
    per-process sinks (a fleet's ``<run_dir>/trace``); both load through
    one reader, and simulation subtrees are linked under the backend
    serve spans that ran them.  The report is the Fig. 15 stage table,
    followed by a process/service summary when the spans crossed
    processes.
    """
    from repro.core.schema import SchemaError
    from repro.obs import export as obs_export

    try:
        spans = obs_export.link_simulation_spans(
            obs_export.load_wire_spans(args.spans)
        )
    except SchemaError as exc:
        print(f"{args.spans}: {exc}", file=sys.stderr)
        return 1
    if not spans:
        print(f"no wire spans found under {args.spans}", file=sys.stderr)
        return 1
    services = sorted({span.service for span in spans})
    if args.format == "report":
        print(
            obs_export.render_report(obs_export.breakdown(spans), title=args.spans)
        )
        if services != ["sim"]:
            pids = {span.attrs["pid"] for span in spans if "pid" in span.attrs}
            print(
                f"{len(spans)} wire spans from {len(pids)} process(es), "
                f"services: {', '.join(services)}"
            )
            traces = {span.trace_id for span in spans if span.trace_id}
            print(f"distributed traces: {len(traces)}")
        return 0
    out = args.out or "trace.json"
    count = obs_export.write_wire_trace(out, spans, label=args.spans)
    print(f"wrote {out} ({count} wire spans, services: {', '.join(services)})")
    return 0


def _cmd_topo(args: argparse.Namespace) -> int:
    """Describe a cube network and measure per-cube read placement."""
    from dataclasses import replace

    from repro.core.experiment import MeasurementPoint
    from repro.hmc.address import AddressMask, CubeMapping
    from repro.hmc.packet import RequestType
    from repro.topology.spec import TopologySpec

    spec = TopologySpec(args.kind, args.cubes, args.map)
    settings = replace(_settings(args), topology=spec)
    if spec.cube_map == "contiguous" and not spec.is_trivial:
        mapping = CubeMapping(
            spec.num_cubes, settings.config.capacity_bytes, mode=spec.cube_map
        )
        points = [
            MeasurementPoint(
                mask=mapping.cube_mask(cube),
                request_type=RequestType.READ,
                payload_bytes=args.size,
                active_ports=args.ports,
                settings=settings,
                pattern_name=f"{spec.label()} cube {cube}",
            )
            for cube in range(spec.num_cubes)
        ]
    else:
        # Interleaved (or single-cube) networks cannot pin a mask onto
        # one cube; measure the whole-network placement instead.
        points = [
            MeasurementPoint(
                mask=AddressMask(),
                request_type=RequestType.READ,
                payload_bytes=args.size,
                active_ports=args.ports,
                settings=settings,
                pattern_name=f"{spec.label()} spread",
            )
        ]
    with parallel.configured(jobs=_jobs(args), use_cache=not args.no_cache):
        measurements = parallel.get_executor().measure_points(points)
    if args.json:
        from repro.core import schema

        for point, measurement in zip(points, measurements):
            print(schema.dumps(schema.result_to_dict(point, measurement)))
        return 0
    print(f"{spec.label()}: {spec.num_cubes} cubes, {spec.num_hop_links} links")
    for cube in range(spec.num_cubes):
        route = " -> ".join(
            f"link{link}{'' if down else '~'}" for link, down in spec.routes()[cube]
        ) or "(host)"
        print(f"  cube {cube}: {spec.hop_count(cube)} hops via {route}")
    for point, measurement in zip(points, measurements):
        latency = measurement.read_latency_avg_ns / 1e3
        print(
            f"{point.pattern_name}: {measurement.bandwidth_gbs:.2f} GB/s, "
            f"read avg {latency:.2f} us"
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.core.cache import ResultCache

    cache = ResultCache()
    if args.action == "stats":
        print(cache.stats().render())
    else:
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
    return 0


def run_kernel_bench(
    only: Optional[List[str]] = None, device: Optional[str] = None
) -> dict:
    """Run the kernel bench suite: :data:`BENCH_KERNEL` vs DES at full windows.

    Every suite point is simulated twice - event-exact DES and the
    accelerated kernel - at the *default* measurement windows (the
    kernel's certification needs the long window; ``--fast`` windows
    fall back to the DES by design).  Reports per-point
    parity errors, the DES-equivalent advance ratio
    (``events_equivalent / events``, a wall-clock-free throughput
    measure), measured window wall speedup, and per point an
    attribution AGREES cross-check: the station counters of the
    kernel's run (its probe, when the window certified) must name the
    same bottleneck family as the event-exact run.
    """
    import re
    import time
    from dataclasses import replace

    from repro.core.experiment import MeasurementPoint, simulate_point_observed
    from repro.fpga.address_gen import AddressingMode
    from repro.hmc.packet import RequestType

    des_settings = ExperimentSettings()
    if device and device != "hmc1":
        from repro.devices import resolve_device

        des_settings = resolve_device(device).apply(des_settings)
    hybrid_settings = replace(des_settings, kernel=BENCH_KERNEL)
    suite = [
        entry for entry in KERNEL_BENCH_POINTS if not only or entry[0] in only
    ]

    def family(name: str) -> str:
        # "link0 TX" / "vault12 bank3" -> "link TX" / "vault bank": the
        # AGREES check cares about which *kind* of station is hottest,
        # not which instance the tie-break landed on.
        return re.sub(r"\d+", "", name)

    points = []
    agrees = []
    worst_parity = 0.0
    min_advance = float("inf")
    des_wall = hybrid_wall = 0.0
    start = time.perf_counter()
    for label, type_label, size, mode_label in suite:
        request_type = RequestType.from_label(type_label)
        mode = AddressingMode.from_label(mode_label)
        des_m, des_info = simulate_point_observed(
            MeasurementPoint(
                request_type=request_type,
                payload_bytes=size,
                mode=mode,
                settings=des_settings,
                pattern_name=label,
            )
        )
        hyb_m, hyb_info = simulate_point_observed(
            MeasurementPoint(
                request_type=request_type,
                payload_bytes=size,
                mode=mode,
                settings=hybrid_settings,
                pattern_name=label,
            )
        )
        errors = parity_errors(des_m, hyb_m)
        advance = (
            hyb_info["events_equivalent"] / hyb_info["events"]
            if hyb_info["events"]
            else 0.0
        )
        worst_parity = max(worst_parity, max(errors.values()))
        min_advance = min(min_advance, advance)
        des_wall += des_info["window_wall_s"]
        hybrid_wall += hyb_info["window_wall_s"]
        points.append(
            {
                "point": label,
                "type": type_label,
                "payload_bytes": size,
                "mode": mode_label,
                "kernel_used": hyb_info["kernel"],
                "reason": hyb_info["reason"],
                "bandwidth_gbs": round(hyb_m.bandwidth_gbs, 4),
                "parity_errors": {k: round(v, 8) for k, v in errors.items()},
                "advance_ratio": round(advance, 3),
                "des_window_wall_s": round(des_info["window_wall_s"], 4),
                "kernel_window_wall_s": round(hyb_info["window_wall_s"], 4),
                "probe_wall_s": round(hyb_info["probe_wall_s"], 4),
                "tail_wall_s": round(hyb_info["tail_wall_s"], 4),
            }
        )
        des_bottleneck = des_info["stations"].bottleneck.name
        kernel_bottleneck = hyb_info["stations"].bottleneck.name
        agrees.append(
            {
                "point": label,
                "des_bottleneck": des_bottleneck,
                "kernel_bottleneck": kernel_bottleneck,
                "agrees": family(des_bottleneck) == family(kernel_bottleneck),
            }
        )

    return {
        "kernel": BENCH_KERNEL,
        "settings": "default",
        "suite": points,
        "worst_parity_error": worst_parity,
        "min_advance_ratio": round(min_advance, 3)
        if min_advance != float("inf")
        else 0.0,
        "window_wall_speedup": round(des_wall / hybrid_wall, 2)
        if hybrid_wall
        else 0.0,
        "profile_agrees": agrees,
        "total_seconds": round(time.perf_counter() - start, 3),
    }


def check_kernel_bench(payload: dict, tolerance: float) -> List[str]:
    """Acceptance verdicts for a kernel bench run.

    Deterministic gates only - parity, advance ratio, certification,
    attribution agreement - so CI boxes of any speed give the same
    verdict; the measured wall speedup is reported but not gated.
    """
    problems: List[str] = []
    for entry in payload["suite"]:
        if entry["kernel_used"] != payload["kernel"]:
            problems.append(
                f"{entry['point']}: {payload['kernel']} kernel fell back to DES "
                f"({entry['reason'] or 'no reason recorded'})"
            )
    if payload["worst_parity_error"] > tolerance:
        problems.append(
            f"parity: worst error {payload['worst_parity_error']:.4%} > "
            f"tolerance {tolerance:.2%}"
        )
    if payload["min_advance_ratio"] < KERNEL_MIN_ADVANCE_RATIO:
        problems.append(
            f"advance ratio: {payload['min_advance_ratio']} < "
            f"{KERNEL_MIN_ADVANCE_RATIO} (steady-state windows not "
            "advancing fast enough)"
        )
    for check in payload["profile_agrees"]:
        if not check["agrees"]:
            problems.append(
                f"profile attribution: {check['point']} bottleneck "
                f"{check['kernel_bottleneck']!r} (kernel) vs "
                f"{check['des_bottleneck']!r} (des)"
            )
    return problems


def _cmd_bench(args: argparse.Namespace) -> int:
    """Parity-gated kernel bench: the vector kernel against the DES."""
    import json

    payload = run_kernel_bench(only=args.only or None, device=args.device)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    for entry in payload["suite"]:
        worst = max(entry["parity_errors"].values())
        print(
            f"{entry['point']:8s} {entry['kernel_used']:5s} "
            f"{entry['bandwidth_gbs']:7.2f} GB/s  "
            f"parity {worst:.4%}  advance {entry['advance_ratio']:.2f}x  "
            f"wall {entry['des_window_wall_s']:.2f}s -> "
            f"{entry['kernel_window_wall_s']:.2f}s "
            f"(probe {entry['probe_wall_s']:.2f}s, "
            f"tail {entry['tail_wall_s']*1e3:.1f}ms)"
        )
    for check in payload["profile_agrees"]:
        verdict = "AGREES" if check["agrees"] else "DISAGREES"
        print(
            f"profile {check['point']}: {verdict} "
            f"({check['kernel_bottleneck']} vs {check['des_bottleneck']})"
        )
    print(
        f"kernel={BENCH_KERNEL}: worst parity "
        f"{payload['worst_parity_error']:.4%}, "
        f"min advance {payload['min_advance_ratio']:.2f}x, "
        f"window wall speedup {payload['window_wall_speedup']:.2f}x"
    )
    print(f"wrote {args.output}")
    if not args.check:
        return 0
    failures = check_kernel_bench(payload, args.tolerance)
    for failure in failures:
        print(f"bench: FAIL {failure}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    """Build the `repro` argument parser (list/run/campaign/kernels)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the HMC characterization paper's evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    def add_executor_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            metavar="N",
            help="worker processes for simulations (default: all cores; 1 = no pool)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="skip the on-disk result cache (always re-simulate)",
        )

    def add_trace_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            metavar="FILE",
            help=(
                "trace sampled transaction lifecycles and write a "
                "Chrome/Perfetto trace_event JSON here (forces --jobs 1 "
                "and --no-cache)"
            ),
        )
        p.add_argument(
            "--trace-sample",
            type=int,
            default=1,
            metavar="N",
            help="trace every Nth submitted request (default: 1 = all)",
        )

    def add_kernel_flag(p: argparse.ArgumentParser) -> None:
        _choice_flag(
            p,
            "--kernel",
            choices=VALID_KERNELS,
            default="des",
            help_text=(
                "simulation kernel: des = event-exact (default), vector = "
                "vectorized probe (short calibration + certified regression "
                "model, calibrated per point; short or uncertified "
                "windows fall back to the DES)"
            ),
        )

    def add_device_flag(p: argparse.ArgumentParser) -> None:
        _choice_flag(
            p,
            "--device",
            choices=_device_names,
            default=None,
            help_text=(
                "memory-device backend to measure (default: hmc1, the "
                "calibrated HMC 1.1 model; see `repro devices list`)"
            ),
        )

    def add_topology_flags(p: argparse.ArgumentParser) -> None:
        _choice_flag(
            p,
            "--topology",
            choices=("chain", "ring", "star"),
            help_text="measure against a cube network of this shape",
        )
        p.add_argument(
            "--cubes", type=int, metavar="N", help="cubes in the network"
        )
        _choice_flag(
            p,
            "--cube-map",
            choices=("contiguous", "interleave"),
            default="contiguous",
            dest="cube_map",
            help_text="cube-level address mapping",
        )

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(REGISTRY))
    run_parser.add_argument(
        "--fast", action="store_true", help="reduced simulation windows"
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the experiment's measurement grid as wire-schema JSON lines",
    )
    run_parser.add_argument(
        "--kernel-parity",
        action="store_true",
        dest="kernel_parity",
        help=(
            "simulate the experiment's grid under both kernels and fail "
            "if any metric diverges beyond the 0.1%% parity tolerance"
        ),
    )
    add_executor_flags(run_parser)
    add_trace_flags(run_parser)
    add_kernel_flag(run_parser)
    add_device_flag(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    devices_parser = sub.add_parser(
        "devices", help="list the registered memory-device backends"
    )
    devices_parser.add_argument(
        "action", nargs="?", default="list", choices=("list",)
    )
    devices_parser.set_defaults(func=_cmd_devices)

    def add_fleet_flags(p: argparse.ArgumentParser) -> None:
        from repro.fleet.spec import DEFAULT_RUN_DIR

        p.add_argument(
            "--fleet",
            action="store_true",
            help="measure through a running fleet's router (see `repro fleet up`)",
        )
        p.add_argument(
            "--fleet-dir",
            default=DEFAULT_RUN_DIR,
            metavar="DIR",
            help=f"fleet run directory holding fleet.json (default: {DEFAULT_RUN_DIR})",
        )

    campaign_parser = sub.add_parser("campaign", help="run every experiment")
    campaign_parser.add_argument("--fast", action="store_true")
    campaign_parser.add_argument("--output", help="write the full report to a file")
    campaign_parser.add_argument(
        "--only", nargs="*", metavar="ID", help="restrict to these experiment ids"
    )
    add_executor_flags(campaign_parser)
    add_fleet_flags(campaign_parser)
    campaign_parser.set_defaults(func=_cmd_campaign)

    kernels_parser = sub.add_parser(
        "kernels", help="characterize application kernels (extension)"
    )
    kernels_parser.add_argument("--fast", action="store_true")
    kernels_parser.set_defaults(func=_cmd_kernels)

    sweep_parser = sub.add_parser(
        "sweep", help="measure a workload grid and export CSV"
    )
    sweep_parser.add_argument(
        "--patterns", nargs="+", default=["16 vaults"], metavar="PATTERN"
    )
    sweep_parser.add_argument(
        "--types", nargs="+", default=["ro"], choices=["ro", "wo", "rw"]
    )
    sweep_parser.add_argument(
        "--sizes", nargs="+", type=int, default=[128], metavar="BYTES"
    )
    sweep_parser.add_argument("--csv", help="write records to this file")
    sweep_parser.add_argument(
        "--json",
        action="store_true",
        help="emit wire-schema JSON lines instead of CSV",
    )
    sweep_parser.add_argument("--fast", action="store_true")
    add_executor_flags(sweep_parser)
    add_trace_flags(sweep_parser)
    add_topology_flags(sweep_parser)
    add_kernel_flag(sweep_parser)
    add_device_flag(sweep_parser)
    add_fleet_flags(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    topo_parser = sub.add_parser(
        "topo", help="describe and measure a chained-cube network"
    )
    topo_parser.add_argument(
        "--kind", default="chain", choices=("chain", "ring", "star")
    )
    topo_parser.add_argument(
        "--cubes", type=int, default=4, metavar="N", help="cubes in the network"
    )
    topo_parser.add_argument(
        "--map",
        default="contiguous",
        choices=("contiguous", "interleave"),
        help="cube-level address mapping",
    )
    topo_parser.add_argument("--size", type=int, default=128, metavar="BYTES")
    topo_parser.add_argument(
        "--ports", type=int, default=None, metavar="N", help="active GUPS ports"
    )
    topo_parser.add_argument("--fast", action="store_true")
    topo_parser.add_argument(
        "--json", action="store_true", help="wire-schema JSON lines instead of text"
    )
    add_executor_flags(topo_parser)
    topo_parser.set_defaults(func=_cmd_topo)

    cache_parser = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_parser.add_argument("action", choices=("stats", "clear"))
    cache_parser.set_defaults(func=_cmd_cache)

    bench_parser = sub.add_parser(
        "bench",
        help="parity-gated bench of the vector kernel against the DES",
    )
    bench_parser.add_argument(
        "--only",
        nargs="*",
        metavar="POINT",
        help="bench only these suite point labels (e.g. ro128r)",
    )
    bench_parser.add_argument(
        "--output",
        default="BENCH_kernel.json",
        help="benchmark JSON path (default: BENCH_kernel.json)",
    )
    bench_parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless parity, advance ratio and profiler agreement hold",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=KERNEL_PARITY_TOLERANCE,
        metavar="FRAC",
        help=(
            "allowed relative parity error for --check "
            f"(default {KERNEL_PARITY_TOLERANCE})"
        ),
    )
    add_device_flag(bench_parser)
    bench_parser.set_defaults(func=_cmd_bench)

    trace_parser = sub.add_parser(
        "trace", help="trace transaction lifecycles (Fig. 15 deconstruction)"
    )
    trace_sub = trace_parser.add_subparsers(dest="action", required=True)

    trace_run_parser = trace_sub.add_parser(
        "run", help="trace one measurement point and validate vs the profiler"
    )
    trace_run_parser.add_argument(
        "--pattern", default="16 vaults", help="access pattern to trace"
    )
    trace_run_parser.add_argument(
        "--type", default="ro", choices=["ro", "wo", "rw"], dest="type"
    )
    trace_run_parser.add_argument("--size", type=int, default=128, metavar="BYTES")
    trace_run_parser.add_argument(
        "--mode", default="random", choices=["linear", "random"]
    )
    trace_run_parser.add_argument(
        "--ports", type=int, default=None, metavar="N", help="active GUPS ports"
    )
    trace_run_parser.add_argument("--fast", action="store_true")
    trace_run_parser.add_argument(
        "--sample",
        type=int,
        default=1,
        metavar="N",
        help="trace every Nth submitted request (default: 1 = all)",
    )
    trace_run_parser.add_argument(
        "--out",
        default="trace.json",
        metavar="FILE",
        help="Chrome/Perfetto trace_event JSON output path",
    )
    trace_run_parser.add_argument(
        "--spans",
        default=None,
        metavar="FILE",
        help="also write the spans as wire_span NDJSON here",
    )
    trace_run_parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the cross-check against the run's station counters",
    )
    trace_run_parser.set_defaults(func=_cmd_trace)

    trace_export_parser = trace_sub.add_parser(
        "export", help="re-render a span file or a fleet trace directory"
    )
    trace_export_parser.add_argument(
        "spans",
        help="wire_span NDJSON file (trace run --spans) or a directory of sinks",
    )
    trace_export_parser.add_argument(
        "--format",
        default="perfetto",
        choices=("perfetto", "report"),
        help="perfetto = trace_event JSON, report = Fig. 15-style table",
    )
    trace_export_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="output path for --format perfetto (default: trace.json)",
    )
    trace_export_parser.set_defaults(func=_cmd_trace)

    from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT

    serve_parser = sub.add_parser(
        "serve", help="run the measurement daemon (NDJSON over TCP)"
    )
    serve_parser.add_argument("--host", default=DEFAULT_HOST)
    serve_parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="0 binds an ephemeral port"
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        metavar="N",
        help="bound of the pending-request queue (backpressure)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="most points simulated per executor batch",
    )
    add_executor_flags(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    metrics_parser = sub.add_parser(
        "metrics",
        help="print (or serve) a Prometheus view of daemon/fleet metrics",
    )
    metrics_parser.add_argument("--host", default=DEFAULT_HOST)
    metrics_parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    metrics_parser.add_argument(
        "--serve",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "keep running as an HTTP scrape proxy on this port "
            "(0 = ephemeral); every GET /metrics re-fetches a fresh snapshot"
        ),
    )
    add_fleet_flags(metrics_parser)
    metrics_parser.set_defaults(func=_cmd_metrics)

    query_parser = sub.add_parser(
        "query", help="query a running measurement daemon"
    )
    query_parser.add_argument("--host", default=DEFAULT_HOST)
    query_parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    action = query_parser.add_mutually_exclusive_group()
    action.add_argument(
        "--stats", action="store_true", help="print the daemon's counters"
    )
    action.add_argument("--ping", action="store_true", help="liveness probe")
    action.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "print the daemon's metrics snapshot "
            "(the merged fleet view with --fleet)"
        ),
    )
    action.add_argument(
        "--shutdown", action="store_true", help="ask the daemon to drain and exit"
    )
    query_parser.add_argument(
        "--pattern", default="16 vaults", help="access pattern to measure"
    )
    query_parser.add_argument(
        "--type", default="ro", choices=["ro", "wo", "rw"], dest="type"
    )
    query_parser.add_argument("--size", type=int, default=128, metavar="BYTES")
    query_parser.add_argument(
        "--mode", default="random", choices=["linear", "random"]
    )
    query_parser.add_argument(
        "--ports", type=int, default=None, metavar="N", help="active GUPS ports"
    )
    query_parser.add_argument("--fast", action="store_true")
    query_parser.add_argument(
        "--json", action="store_true", help="wire-schema JSON instead of a summary"
    )
    add_topology_flags(query_parser)
    add_kernel_flag(query_parser)
    add_device_flag(query_parser)
    add_fleet_flags(query_parser)
    query_parser.set_defaults(func=_cmd_query)

    from repro.fleet.ring import DEFAULT_REPLICAS
    from repro.fleet.spec import DEFAULT_RUN_DIR

    fleet_parser = sub.add_parser(
        "fleet", help="manage a sharded measurement fleet (router + N daemons)"
    )
    fleet_sub = fleet_parser.add_subparsers(dest="action", required=True)

    fleet_up_parser = fleet_sub.add_parser(
        "up", help="launch N backend daemons and the consistent-hash router"
    )
    fleet_up_parser.add_argument(
        "-n",
        "--backends",
        type=int,
        default=3,
        metavar="N",
        help="backend daemons to launch (default: 3)",
    )
    fleet_up_parser.add_argument("--host", default=DEFAULT_HOST)
    fleet_up_parser.add_argument(
        "--router-port",
        type=int,
        default=0,
        metavar="PORT",
        help="router listen port (default: 0 = ephemeral)",
    )
    fleet_up_parser.add_argument(
        "--run-dir",
        default=DEFAULT_RUN_DIR,
        metavar="DIR",
        help=f"fleet state/log/cache directory (default: {DEFAULT_RUN_DIR})",
    )
    fleet_up_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes per backend (default: each backend decides)",
    )
    fleet_up_parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        metavar="N",
        help="per-backend pending-request queue bound",
    )
    fleet_up_parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="per-backend executor batch bound",
    )
    fleet_up_parser.add_argument(
        "--replicas",
        type=int,
        default=DEFAULT_REPLICAS,
        metavar="N",
        help="virtual nodes per backend on the hash ring",
    )
    fleet_up_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the backends' on-disk result-cache shards",
    )
    fleet_up_parser.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help=(
            "trace every Nth request fleet-wide: every child samples wire "
            "spans into <run-dir>/trace for `repro trace export <run-dir>/trace`"
        ),
    )
    fleet_up_parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="REPRO_LOG_LEVEL for every fleet process (default: info)",
    )
    fleet_up_parser.set_defaults(func=_cmd_fleet_up)

    fleet_top_parser = fleet_sub.add_parser(
        "top", help="live per-backend health table (alive/inflight/p50/p95)"
    )
    fleet_top_parser.add_argument(
        "--run-dir", default=DEFAULT_RUN_DIR, metavar="DIR"
    )
    fleet_top_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between refreshes (default: 2)",
    )
    fleet_top_parser.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N refreshes (default: 0 = run until Ctrl-C)",
    )
    fleet_top_parser.add_argument(
        "--slo-p95-ms",
        type=float,
        default=None,
        metavar="MS",
        help="flag backends whose p95 service latency exceeds this",
    )
    fleet_top_parser.add_argument(
        "--slo-failover-rate",
        type=float,
        default=None,
        metavar="FRAC",
        help="flag backends whose failover fraction exceeds this (0-1)",
    )
    fleet_top_parser.set_defaults(func=_cmd_fleet_top)

    fleet_status_parser = fleet_sub.add_parser(
        "status", help="report the fleet's process and ring health"
    )
    fleet_status_parser.add_argument(
        "--run-dir", default=DEFAULT_RUN_DIR, metavar="DIR"
    )
    fleet_status_parser.add_argument(
        "--json", action="store_true", help="full status as JSON"
    )
    fleet_status_parser.set_defaults(func=_cmd_fleet_status)

    fleet_down_parser = fleet_sub.add_parser(
        "down", help="stop the router and every backend, remove fleet.json"
    )
    fleet_down_parser.add_argument(
        "--run-dir", default=DEFAULT_RUN_DIR, metavar="DIR"
    )
    fleet_down_parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds to wait for graceful drains before SIGKILL",
    )
    fleet_down_parser.set_defaults(func=_cmd_fleet_down)

    fleet_route_parser = fleet_sub.add_parser(
        "route",
        help="run the fleet router in the foreground (spawned by `fleet up`)",
    )
    fleet_route_parser.add_argument("--host", default=DEFAULT_HOST)
    fleet_route_parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    fleet_route_parser.add_argument(
        "--replicas", type=int, default=DEFAULT_REPLICAS, metavar="N"
    )
    fleet_route_parser.add_argument(
        "--backend",
        action="append",
        required=True,
        metavar="NAME=HOST:PORT",
        help="one backend (repeat per backend)",
    )
    fleet_route_parser.set_defaults(func=_cmd_fleet_route)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. ``repro run --json | head``);
        # exit quietly like any well-behaved line-oriented tool.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
