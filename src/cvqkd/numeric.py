"""Small deterministic numeric helpers shared across modules.

Nothing here draws random numbers; every routine produces the same floats
for the same inputs on every run, which the reproducibility guarantees of
the command line layer rely on.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def log_grid(lo: float, hi: float, points: int) -> list[float]:
    """Geometric grid from ``lo`` to ``hi`` inclusive."""
    if points < 2:
        raise ValueError("a grid needs at least 2 points")
    if not (0.0 < lo < hi):
        raise ValueError("log grid needs 0 < lo < hi")
    ratio = hi / lo
    if ratio < math.inf:
        grid = [lo * ratio ** (i / (points - 1)) for i in range(points)]
    else:  # hi / lo overflows: step evenly in the logs instead
        grid = [lo] + [math.exp(x) for x in linspace(math.log(lo), math.log(hi), points)[1:]]
    grid[-1] = hi  # guard against rounding on the last point
    return grid


def linspace(lo: float, hi: float, points: int) -> list[float]:
    """Evenly spaced grid from ``lo`` to ``hi`` inclusive, bit for bit
    ``numpy.linspace(lo, hi, points)``: the same ``i * step + lo`` in the
    same order, with the last point set to ``hi``, without loading numpy
    (which only the sampling code imports)."""
    if points < 2:
        raise ValueError("a grid needs at least 2 points")
    delta = hi - lo
    step = delta / (points - 1)
    if step == 0.0:  # numpy's order when the step underflows
        grid = [i / (points - 1) * delta + lo for i in range(points)]
    else:
        grid = [i * step + lo for i in range(points)]
    grid[-1] = hi
    return grid


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       *, tol: float = 1e-8) -> tuple[float, float]:
    """Maximize a unimodal ``f`` on ``[lo, hi]``, ``lo < hi``, by
    golden-section search.

    Returns the best probed ``(x, f(x))``. The tolerance applies to the
    bracket width, and at most 200 probes follow the first two; the probe
    sequence is fixed, so the result is deterministic.
    """
    a, b = float(lo), float(hi)
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = f(c)
    fd = f(d)
    if fc >= fd:
        best_x, best_f = c, fc
    else:
        best_x, best_f = d, fd
    for _ in range(200):
        if h <= tol:
            break
        if fc >= fd:
            b = d
            d, fd = c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a = c
            c, fc = d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def grid_then_golden_max(f: Callable[[float], float], grid: Sequence[float],
                         *, tol: float = 1e-8) -> tuple[float, float]:
    """Coarse scan over ``grid`` followed by golden refinement around the
    best cell. Ties on the scan go to the earliest grid point.
    """
    pts = [float(x) for x in grid]
    if len(pts) < 2:
        raise ValueError("grid_then_golden_max needs at least 2 grid points")
    values = [f(x) for x in pts]
    best_i = 0
    for i in range(1, len(pts)):
        if values[i] > values[best_i]:
            best_i = i
    lo = pts[max(best_i - 1, 0)]
    hi = pts[min(best_i + 1, len(pts) - 1)]
    x, fx = golden_section_max(f, lo, hi, tol=tol)
    if values[best_i] >= fx:
        return pts[best_i], values[best_i]
    return x, fx
