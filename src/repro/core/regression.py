"""Least-squares linear fits (paper Figs. 11-12).

The paper extracts its temperature-bandwidth and power-bandwidth
relationships with linear regression over the measured points; this is
the same fit with the goodness-of-fit carried along.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class LinearFit:
    """y = slope * x + intercept, with r-squared."""

    slope: float
    intercept: float
    r_squared: float
    n: int

    @classmethod
    def fit(cls, xs: Sequence[float], ys: Sequence[float]) -> "LinearFit":
        if len(xs) != len(ys):
            raise ValueError("x and y must have the same length")
        if len(xs) < 2:
            raise ValueError("need at least two points to fit a line")
        # Imported on first fit: most processes (the CLI, the daemon, a
        # DES-only run) never fit and never need numpy.
        import numpy as np

        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        if np.allclose(x, x[0]):
            raise ValueError("x values are all identical; slope is undefined")
        slope, intercept = np.polyfit(x, y, 1)
        predicted = slope * x + intercept
        ss_res = float(np.sum((y - predicted) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        return cls(
            slope=float(slope),
            intercept=float(intercept),
            r_squared=r_squared,
            n=len(xs),
        )

    @classmethod
    def fit_indexed(cls, ys: Sequence[float]) -> "LinearFit":
        """Fit against the sample index 0..n-1.

        Used for trend tests over evenly spaced series - e.g. the vector
        kernel's drift gate over per-chunk completion counts, where
        ``rise_over(0, n - 1)`` is the modelled change across the
        certification window.
        """
        return cls.fit(range(len(ys)), ys)

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept

    def solve_x(self, y: float) -> float:
        """Invert the fit (used to find iso-temperature cooling power)."""
        if abs(self.slope) < 1e-12:
            raise ZeroDivisionError("flat fit cannot be inverted")
        return (y - self.intercept) / self.slope

    def rise_over(self, x0: float, x1: float) -> float:
        """Change in y from x0 to x1 - e.g. 'degC gained from 5 to 20 GB/s'."""
        return self.slope * (x1 - x0)
