"""Figure 15: low-load latency vs the number of reads in a stream, for
16/32/64/128 B request sizes (avg/min/max).

Paper claims that must reproduce:

* minimum latency is flat in the stream depth (no queueing at no-load)
  and grows slightly with request size (711 ns at 128 B vs 655 ns at
  16 B);
* average latency grows because *maximum* latency grows (interference
  in the logic layer and on the response path);
* a 28-deep stream of 128 B reads costs ~1.5x a 28-deep 16 B stream,
  while a 2-deep stream costs almost the same at any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.experiment import ExperimentSettings, run_stream_latency
from repro.core.report import render_series
from repro.fpga.stream import StreamResult

SIZES = (16, 32, 64, 128)
DEPTHS = tuple(range(2, 29, 2))


@dataclass(frozen=True)
class LowLoadPanel:
    payload_bytes: int
    results: Tuple[StreamResult, ...]

    def series(self) -> Dict[str, List[float]]:
        return {
            "avg_us": [r.avg_us for r in self.results],
            "min_us": [r.min_us for r in self.results],
            "max_us": [r.max_us for r in self.results],
        }


def run(
    settings: ExperimentSettings = ExperimentSettings(),
    depths: Tuple[int, ...] = DEPTHS,
    trials: int = 6,
) -> List[LowLoadPanel]:
    panels = []
    for size in SIZES:
        results = tuple(
            run_stream_latency(depth, size, settings=settings, trials=trials)
            for depth in depths
        )
        panels.append(LowLoadPanel(payload_bytes=size, results=results))
    return panels


def check_shape(
    panels: List[LowLoadPanel], settings: ExperimentSettings = ExperimentSettings()
) -> List[str]:
    problems = []
    by_size = {p.payload_bytes: p for p in panels}
    for panel in panels:
        mins = [r.min_ns for r in panel.results]
        if max(mins) - min(mins) > 40:
            problems.append(f"{panel.payload_bytes}B: min latency not constant")
        maxes = [r.max_ns for r in panel.results]
        if not maxes[-1] > maxes[0]:
            problems.append(f"{panel.payload_bytes}B: max latency does not grow")
    deep_ratio = by_size[128].results[-1].avg_ns / by_size[16].results[-1].avg_ns
    if not 1.15 <= deep_ratio <= 2.0:
        problems.append(f"28-deep 128B/16B avg ratio {deep_ratio:.2f} not ~1.5x")
    shallow_ratio = by_size[128].results[0].avg_ns / by_size[16].results[0].avg_ns
    if not shallow_ratio < 1.25:
        problems.append("2-deep streams should cost almost the same at any size")
    min_gap = by_size[128].results[0].min_ns - by_size[16].results[0].min_ns
    if not 20 <= min_gap <= 110:
        problems.append(
            f"min RTT gap 128B-16B is {min_gap:.0f} ns, paper reports ~56 ns"
        )
    return problems


def report(
    panels: List[LowLoadPanel], problems: List[str], settings: ExperimentSettings
) -> str:
    blocks = []
    for panel in panels:
        series = list(panel.series().items())
        blocks.append(
            render_series(
                "# reads",
                list(DEPTHS),
                series,
                title=f"Figure 15: low-load latency (us), {panel.payload_bytes} B requests",
            )
        )
    text = "\n\n".join(blocks)
    text += (
        "\nShape matches the paper: flat minimums, growing maximums, ~1.5x"
        "\ncost for deep large-packet streams."
        if not problems
        else "\nShape deviations: " + "; ".join(problems)
    )
    return text
