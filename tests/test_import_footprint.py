"""Import footprint of the in-process entry points.

An in-process measurement loads only what it runs: network, TLS, pool
and numpy code load on first use (docs/PERFORMANCE.md "Process
footprint").  Each check starts a fresh interpreter, imports one entry
point's modules, and asserts that none of the modules below was loaded
by it:

* ``asyncio`` and ``ssl`` - the daemon and router, in
  :mod:`repro.service.server` and :mod:`repro.fleet.router`;
* ``_hashlib`` - OpenSSL's libcrypto, mapped by :mod:`hashlib`; cache
  keys and ring placement hash with CPython's built-in SHA-256;
* ``concurrent.futures.process`` - the worker pool, used at ``jobs > 1``;
* ``numpy`` (``import repro.cli`` only) - needed by the vector kernel
  and the Fig. 11/12 fits.

Print each entry point's import time and peak resident set::

    PYTHONPATH=src python tests/test_import_footprint.py

Commit the figures as ``BENCH_footprint.json``::

    PYTHONPATH=src python tests/test_import_footprint.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core.cache import sha256_hex
from repro.fleet.ring import _hash

ROOT = Path(__file__).resolve().parent.parent
FOOTPRINT = ROOT / "BENCH_footprint.json"

NETWORK_TLS_POOL = ("asyncio", "ssl", "_hashlib", "concurrent.futures.process")

#: The modules perfbench's grid workloads import from the program.
GRID_MODULES = (
    "repro.core.campaign",
    "repro.core.experiment",
    "repro.core.parallel",
    "repro.core.cache",
    "repro.core.patterns",
    "repro.service.client",
    "repro.service.protocol",
    "repro.fleet.client",
    "repro.fleet.manager",
    "repro.fleet.ring",
    "repro.fleet.spec",
    "repro.sim.engine",
)

#: One ``jobs=1`` measurement of a tiny point through the executor,
#: memo and disk cache included.
MEASURE_TINY_POINT = """
from repro.core.experiment import ExperimentSettings, MeasurementPoint
from repro.core.parallel import MeasurementExecutor
point = MeasurementPoint(settings=ExperimentSettings(warmup_us=1.0, window_us=2.0))
MeasurementExecutor(jobs=1, use_cache=True).measure_points([point])
"""

#: Entry point -> (modules it imports, code it then runs, modules it must
#: not load).  ``serve`` is the daemon: printed, not checked.
ENTRY_POINTS = {
    "cli": (("repro.cli",), "", NETWORK_TLS_POOL + ("numpy",)),
    "grid": (GRID_MODULES, MEASURE_TINY_POINT, NETWORK_TLS_POOL),
    "serve": (("repro.service.server",), "", ()),
}

#: Runs in the fresh interpreter: ``{imports}`` then ``{run}``, then one
#: JSON line with the import time, the peak RSS and the modules loaded.
#: The peak is the process's own ``VmHWM`` where Linux reports it:
#: ``ru_maxrss`` also counts the launching process, whose memory the
#: child shared until it started the interpreter.
PROBE = """
import json, resource, sys, time
before = set(sys.modules)
started = time.perf_counter()
for name in {imports!r}:
    __import__(name)
import_ms = (time.perf_counter() - started) * 1e3
{run}
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    with open("/proc/self/status") as status:
        peak_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    pass
print(json.dumps({{
    "import_ms": round(import_ms, 1),
    "peak_rss_mb": round(peak_kib / 1024, 2),
    "loaded": sorted(set(sys.modules) - before),
}}))
"""


def probe(entry: str, cache_dir: str) -> dict:
    """Import ``entry``'s modules in a fresh interpreter and report."""
    imports, run, _ = ENTRY_POINTS[entry]
    env = dict(os.environ, REPRO_CACHE_DIR=cache_dir)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE.format(imports=imports, run=run)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("entry", ["cli", "grid"])
def test_entry_point_loads_only_what_it_runs(entry, tmp_path):
    loaded = set(probe(entry, str(tmp_path))["loaded"])
    unexpected = [name for name in ENTRY_POINTS[entry][2] if name in loaded]
    assert not unexpected, f"{entry} loaded {unexpected}"


@pytest.mark.parametrize("text", ["", "backend-0#17", "repr((1, 2.5, 'x'))", "µs ±"])
def test_sha256_helper_matches_hashlib(text):
    assert sha256_hex(text) == hashlib.sha256(text.encode()).hexdigest()
    # The ring's position is the digest's first 8 bytes, big-endian.
    assert _hash(text) == int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def measure() -> dict:
    """Import time and peak RSS of every entry point."""
    with tempfile.TemporaryDirectory() as cache_dir:
        figures = {entry: probe(entry, cache_dir) for entry in ENTRY_POINTS}
    return {
        "python": platform.python_version(),
        "entry_points": {
            entry: {"import_ms": got["import_ms"], "peak_rss_mb": got["peak_rss_mb"]}
            for entry, got in figures.items()
        },
    }


def table(measured: dict) -> str:
    lines = [
        f"Python {measured['python']}",
        f"{'entry point':<12} {'import ms':>10} {'peak RSS MB':>12}",
    ]
    for entry, got in measured["entry_points"].items():
        lines.append(f"{entry:<12} {got['import_ms']:>10.1f} {got['peak_rss_mb']:>12.2f}")
    return "\n".join(lines)


if __name__ == "__main__":
    result = measure()
    sys.stdout.write(table(result) + "\n")
    if "--write" in sys.argv[1:]:
        FOOTPRINT.write_text(json.dumps(result, indent=2) + "\n")
        sys.stdout.write(f"wrote {FOOTPRINT}\n")
