"""§IV-C failure study: thermal limits and the recovery procedure.

Paper claims that must reproduce:

* read-only traffic survives every cooling configuration, peaking near
  80 degC surface under the weakest cooling;
* write-heavy traffic (wo, rw) fails around 75 degC surface, ~10 degC
  below the read-intensive bound;
* a failure loses DRAM contents and requires the cool-down / reset /
  re-initialize sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.experiment import ExperimentSettings, run_thermal_experiment
from repro.core.patterns import pattern_by_name
from repro.core.report import render_table
from repro.hmc.packet import RequestType
from repro.thermal.cooling import ALL_CONFIGS
from repro.thermal.failure import RecoveryProcedure, RecoveryStep

REQUEST_TYPES = (RequestType.READ, RequestType.WRITE, RequestType.READ_MODIFY_WRITE)

#: Fig. 9's panel exclusions: which configs each type must fail in.
PAPER_FAILURES = {
    "ro": (),
    "wo": ("Cfg3", "Cfg4"),
    "rw": ("Cfg4",),
}


@dataclass(frozen=True)
class FailureMatrix:
    surface_c: Dict[Tuple[str, str], float]  # (type, config) -> degC
    failed: Dict[Tuple[str, str], bool]
    recovery_steps: Tuple[str, ...]
    recovery_seconds: float

    def failures_for(self, type_label: str) -> Tuple[str, ...]:
        return tuple(
            cfg for (label, cfg), f in self.failed.items() if f and label == type_label
        )


def run(settings: ExperimentSettings = ExperimentSettings()) -> FailureMatrix:
    pattern = pattern_by_name("16 vaults", settings.config)
    surface: Dict[Tuple[str, str], float] = {}
    failed: Dict[Tuple[str, str], bool] = {}
    for request_type in REQUEST_TYPES:
        for cooling in ALL_CONFIGS:
            result = run_thermal_experiment(
                pattern, request_type, cooling, settings=settings
            )
            key = (request_type.value, cooling.name)
            surface[key] = result.operating_point.surface_c
            failed[key] = result.failed
    procedure = RecoveryProcedure()
    seconds = procedure.run_all()
    return FailureMatrix(
        surface_c=surface,
        failed=failed,
        recovery_steps=tuple(step.value for step in RecoveryStep),
        recovery_seconds=seconds,
    )


def check_shape(
    matrix: FailureMatrix, settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    problems = []
    for label, expected in PAPER_FAILURES.items():
        got = matrix.failures_for(label)
        if set(got) != set(expected):
            problems.append(f"{label}: failed in {got or '()'} vs paper {expected or '()'}")
    ro_peak = max(v for (label, _), v in matrix.surface_c.items() if label == "ro")
    if not 75.0 <= ro_peak <= 84.0:
        problems.append(f"ro peak surface {ro_peak:.1f} degC not near the paper's ~80")
    return problems


def report(
    matrix: FailureMatrix, problems: List[str], settings: ExperimentSettings
) -> str:
    rows = []
    for request_type in REQUEST_TYPES:
        label = request_type.value
        row = [label]
        for cooling in ALL_CONFIGS:
            key = (label, cooling.name)
            status = "FAIL" if matrix.failed[key] else "ok"
            row.append(f"{matrix.surface_c[key]:.1f} {status}")
        rows.append(row)
    text = render_table(
        ("Type",) + tuple(c.name for c in ALL_CONFIGS),
        rows,
        title="SIV-C: steady-state surface degC and failures at full bandwidth",
    )
    text += (
        "\nRecovery after a thermal shutdown: "
        + " -> ".join(matrix.recovery_steps)
        + f" (~{matrix.recovery_seconds:.0f} s; DRAM contents lost)."
    )
    text += (
        "\nMatches the paper: ro survives everywhere (~80 degC peak); writes"
        "\nfail ~10 degC earlier, losing Cfg3/Cfg4 (wo) and Cfg4 (rw)."
        if not problems
        else "\nDeviations: " + "; ".join(problems)
    )
    return text
