"""Campaign driver: regenerate every experiment in one run.

``run_campaign`` executes each registered experiment module through the
protocol every module shares (see :mod:`repro.experiments`): ``run``
once, ``check_shape`` once on its result, then ``report`` to render the
regenerated table/figure with its verdict, and assembles a single
report - the programmatic equivalent of re-running the paper's whole
evaluation.  Every module's claims gate the outcome, the static tables
and Fig. 3 included.

With ``jobs > 1`` the campaign parallelizes at the point level: every
experiment module exposing ``measurement_points(settings)`` contributes
its simulation grid to one deduplicated prefetch batch that the
measurement executor fans out across worker processes before any
experiment runs.  The experiments then run one after another in this
process and read the prefetched results back from the in-process memo.

Results are independent of ``jobs``: outcomes are keyed and ordered by
experiment id, and each measurement is a deterministic function of its
:class:`~repro.core.experiment.MeasurementPoint`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core import parallel
from repro.core.experiment import ExperimentSettings, MeasurementPoint
from repro.experiments import REGISTRY, load


@dataclass(frozen=True)
class ExperimentOutcome:
    """One experiment's regenerated output and claim verdicts."""

    experiment_id: str
    report: str
    problems: List[str]
    seconds: float

    @property
    def passed(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class CampaignResult:
    """All outcomes of one campaign, with summary/report rendering."""

    outcomes: Dict[str, ExperimentOutcome]
    #: Wall time of the parallel prefetch that ``jobs > 1`` runs before
    #: any experiment starts (0.0 when there was none).  The experiments
    #: then read the prefetched points from the memo, so without this
    #: figure a pooled campaign's simulation time appears nowhere.
    prefetch_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes.values())

    @property
    def total_seconds(self) -> float:
        return self.prefetch_seconds + sum(
            outcome.seconds for outcome in self.outcomes.values()
        )

    def summary(self) -> str:
        lines = ["Campaign summary:"]
        if self.prefetch_seconds:
            lines.append(f"  {'prefetch':10s} {'':16s} ({self.prefetch_seconds:.1f}s)")
        for experiment_id, outcome in self.outcomes.items():
            status = "ok" if outcome.passed else "SHAPE DEVIATION"
            lines.append(
                f"  {experiment_id:10s} {status:16s} ({outcome.seconds:.1f}s)"
            )
            for problem in outcome.problems:
                lines.append(f"      - {problem}")
        verdict = "all claims reproduced" if self.passed else "deviations found"
        lines.append(f"Total: {self.total_seconds:.1f}s; {verdict}.")
        return "\n".join(lines)

    def full_report(self) -> str:
        parts = []
        for experiment_id, outcome in self.outcomes.items():
            parts.append("=" * 72)
            parts.append(f"[{experiment_id}]")
            parts.append(outcome.report)
        parts.append("=" * 72)
        parts.append(self.summary())
        return "\n".join(parts)


def run_experiment(
    experiment_id: str, settings: ExperimentSettings = ExperimentSettings()
) -> ExperimentOutcome:
    """Run one experiment module once; render its report and claims."""
    module = load(experiment_id)
    started = time.perf_counter()
    result = module.run(settings)
    problems = module.check_shape(result, settings)
    report = module.report(result, problems, settings)
    return ExperimentOutcome(
        experiment_id=experiment_id,
        report=report,
        problems=problems,
        seconds=time.perf_counter() - started,
    )


def collect_measurement_points(
    experiment_ids: Iterable[str],
    settings: ExperimentSettings = ExperimentSettings(),
) -> List[MeasurementPoint]:
    """Gather every prefetchable simulation point of the given experiments.

    Modules without a ``measurement_points`` hook (static tables, the
    analytic figures) simply contribute nothing.
    """
    points: List[MeasurementPoint] = []
    for experiment_id in experiment_ids:
        module = load(experiment_id)
        hook = getattr(module, "measurement_points", None)
        if hook is not None:
            points.extend(hook(settings))
    return points


def run_campaign(
    settings: ExperimentSettings = ExperimentSettings(),
    experiment_ids: Optional[Iterable[str]] = None,
    jobs: int = 1,
    use_cache: bool = True,
) -> CampaignResult:
    """Run all (or selected) experiments and collect their outcomes.

    The cached bandwidth measurements are shared across experiments, so
    the campaign costs far less than the sum of standalone runs.  With
    ``jobs > 1``, unique measurement points are prefetched across a
    worker pool first; the experiments then run in order here.
    """
    ids = list(experiment_ids) if experiment_ids is not None else list(REGISTRY)
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown experiment ids: {unknown}")
    jobs = max(1, jobs)
    prefetch_seconds = 0.0
    with parallel.configured(jobs=jobs, use_cache=use_cache):
        if jobs > 1:
            started = time.perf_counter()
            points = collect_measurement_points(ids, settings)
            if points:
                parallel.get_executor().measure_points(points)
            prefetch_seconds = time.perf_counter() - started
        outcomes = {i: run_experiment(i, settings) for i in ids}
    return CampaignResult(outcomes=outcomes, prefetch_seconds=prefetch_seconds)
