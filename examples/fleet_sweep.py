#!/usr/bin/env python3
"""Embed a measurement fleet in-process and sweep through it.

Builds the whole fleet topology inside one Python process — two
backend daemons (`BackgroundService`), a consistent-hash router
(`BackgroundRouter`) — then runs an ordinary bandwidth sweep with every
simulation routed fleet-side: `parallel.configured(fleet=...)` makes
the fleet client the measurement executor's miss backend.  The daemons
build their own executors directly, so they keep simulating locally.
The same wiring with real OS processes is one command:
`repro fleet up -n 2` (see docs/FLEET.md).

Afterwards it prints where the ring placed the work: each point's
content-addressed cache key pins it to one backend, so the per-backend
request counters show the shard split.  The sweep bypasses the on-disk
result cache, so every run reaches the fleet.

Usage:
    python examples/fleet_sweep.py
"""

from repro.core import parallel
from repro.core.experiment import ExperimentSettings
from repro.core.report import render_table
from repro.core.sweeps import SweepGrid, run_sweep
from repro.fleet.client import FleetClient
from repro.fleet.router import BackgroundRouter
from repro.fleet.spec import BackendState, FleetState
from repro.service.server import BackgroundService


def main() -> None:
    settings = ExperimentSettings(warmup_us=5.0, window_us=20.0)

    backends = {}
    services = []
    for index in range(2):
        service = BackgroundService(port=0, use_cache=False)
        port = service.start()
        services.append(service)
        backends[f"backend-{index}"] = ("127.0.0.1", port)

    router = BackgroundRouter(backends)
    router_port = router.start()
    print(f"fleet: 2 backends behind router on 127.0.0.1:{router_port}\n")

    # A FleetState is what `repro fleet up` persists as fleet.json; here
    # we assemble it by hand around the in-process topology.
    state = FleetState(
        host="127.0.0.1",
        router_port=router_port,
        router_pid=0,
        backends=tuple(
            BackendState(name=name, host=host, port=port, pid=0, cache_dir="", log="")
            for name, (host, port) in backends.items()
        ),
    )

    try:
        with FleetClient(state=state) as fleet:
            with parallel.configured(fleet=fleet):
                records = run_sweep(
                    SweepGrid(
                        patterns=("1 bank", "1 vault", "16 vaults"),
                        payload_bytes=(32, 128),
                    ),
                    settings=settings,
                    # No disk cache: a rerun would be served from it
                    # and never reach the fleet.
                    use_cache=False,
                )

        rows = [
            [
                r["pattern"],
                str(r["payload_bytes"]),
                f"{r['bandwidth_gbs']:.1f}",
                f"{r['mrps']:.0f}",
            ]
            for r in records
        ]
        print(
            render_table(
                ("Pattern", "Size (B)", "BW (GB/s)", "MRPS"),
                rows,
                title="Sweep measured fleet-side (2 shards, consistent-hash routed)",
            )
        )

        print("\nShard split (per-backend measure requests):")
        for index, service in enumerate(services):
            counters = service.service.metrics.snapshot()
            print(
                f"  backend-{index}: {counters['measure_requests']} requests, "
                f"{counters['simulated']} simulated"
            )
    finally:
        router.stop()
        for service in services:
            service.stop()


if __name__ == "__main__":
    main()
