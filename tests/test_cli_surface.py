"""The CLI's option inventory, pinned.

Maps every subcommand (nested ones as ``"fleet up"``) to the sorted
option strings ``build_parser()`` gives it, ``-h``/``--help`` left out.
Adding or removing a flag changes this table, so every change to the
command-line surface shows up in review as a diff here.  Option strings
are compared rather than ``--help`` text, whose layout differs between
Python versions.
"""

import argparse

from repro import cli

OPTIONS = {
    "list": [],
    "run": [
        "--device", "--fast", "--jobs", "--json", "--kernel", "--kernel-parity",
        "--no-cache", "--trace", "--trace-sample",
    ],
    "devices": [],
    "campaign": [
        "--fast", "--fleet", "--fleet-dir", "--jobs", "--no-cache", "--only",
        "--output",
    ],
    "kernels": ["--fast"],
    "sweep": [
        "--csv", "--cube-map", "--cubes", "--device", "--fast", "--fleet",
        "--fleet-dir", "--jobs", "--json", "--kernel", "--no-cache", "--patterns",
        "--sizes", "--topology", "--trace", "--trace-sample", "--types",
    ],
    "topo": [
        "--cubes", "--fast", "--jobs", "--json", "--kind", "--map", "--no-cache",
        "--ports", "--size",
    ],
    "cache": [],
    "bench": ["--check", "--device", "--only", "--output", "--tolerance"],
    "trace": [],
    "trace run": [
        "--fast", "--mode", "--no-validate", "--out", "--pattern", "--ports",
        "--sample", "--size", "--spans", "--type",
    ],
    "trace export": ["--format", "--out"],
    "serve": ["--host", "--jobs", "--max-batch", "--max-queue", "--no-cache", "--port"],
    "metrics": ["--fleet", "--fleet-dir", "--host", "--port", "--serve"],
    "query": [
        "--cube-map", "--cubes", "--device", "--fast", "--fleet", "--fleet-dir",
        "--host", "--json", "--kernel", "--metrics", "--mode", "--pattern", "--ping",
        "--port", "--ports", "--shutdown", "--size", "--stats", "--topology", "--type",
    ],
    "fleet": [],
    "fleet up": [
        "--backends", "--host", "--jobs", "--log-level", "--max-batch", "--max-queue",
        "--no-cache", "--replicas", "--router-port", "--run-dir", "--trace-sample",
        "-n",
    ],
    "fleet top": [
        "--interval", "--iterations", "--run-dir", "--slo-failover-rate",
        "--slo-p95-ms",
    ],
    "fleet status": ["--json", "--run-dir"],
    "fleet down": ["--run-dir", "--timeout"],
    "fleet route": ["--backend", "--host", "--port", "--replicas"],
}


def _inventory(parser, prefix=()):
    found = {}
    if prefix:
        found[" ".join(prefix)] = sorted(
            option
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_inventory(sub, prefix + (name,)))
    return found


def test_every_subcommand_has_exactly_the_pinned_options():
    assert _inventory(cli.build_parser()) == OPTIONS
