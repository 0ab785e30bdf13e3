"""One module per table/figure of the paper's evaluation.

Every module follows one protocol:

* ``run(settings) -> result`` regenerates the table/figure as a
  structured result;
* ``check_shape(result, settings) -> List[str]`` checks it against the
  paper's published values and claims, one problem string per
  deviation (``settings`` defaults, so ``check_shape(result)`` works);
* ``report(result, problems, settings) -> str`` renders the table/figure
  with paper-vs-measured annotations and the verdict for ``problems``;
* optionally ``measurement_points(settings)``, the simulation grid the
  campaign prefetches in one batch.

:func:`repro.core.campaign.run_experiment` calls ``run``,
``check_shape`` and ``report`` once each; ``repro run <id>`` prints the
report and exits 1 on any problem.  ``REGISTRY`` maps experiment ids to
their modules so the campaign driver and the benchmark harness can
enumerate them.
"""

from __future__ import annotations

import importlib
from typing import Dict

#: experiment id -> module path (relative to this package)
REGISTRY: Dict[str, str] = {
    "table1": "tab01_properties",
    "table2": "tab02_packets",
    "table3": "tab03_cooling",
    "fig3": "fig03_address_map",
    "fig6": "fig06_address_mask",
    "fig7": "fig07_pattern_bandwidth",
    "fig8": "fig08_request_sizes",
    "fig9": "fig09_thermal",
    "fig10": "fig10_power",
    "fig11": "fig11_regression",
    "fig12": "fig12_cooling_power",
    "fig13": "fig13_closed_page",
    "fig14": "fig14_tx_path",
    "fig15": "fig15_low_load",
    "fig16": "fig16_high_load",
    "fig17": "fig17_littles_law",
    "fig18": "fig18_latency_bandwidth",
    "failures": "failure_limits",
    "hmc2": "hmc2_projection",
    "nethops": "net_hop_latency",
    "netbw": "net_remote_bandwidth",
}


def load(experiment_id: str):
    """Import and return the module for one experiment id."""
    if experiment_id not in REGISTRY:
        raise KeyError(f"unknown experiment {experiment_id!r}; ids: {sorted(REGISTRY)}")
    return importlib.import_module(f"repro.experiments.{REGISTRY[experiment_id]}")
