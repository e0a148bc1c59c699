"""Time the optimizer's objective per evaluation, on the points the sweep benchmark visits.

Runs the rows of the ``distance_sweep`` and ``blocksize_sweep`` presets
(the 138 problems of the benchmark's ``sweep`` workload) in this process
and records every ``(v, v2, r)`` that ``optimize_key_rate`` evaluates,
and every ``(T, V_eps, v_s, v_mod_x, v_mod_p)`` that those evaluations
pass to the Holevo kernel ``keyrate._holevo_bound``. It then checks the
objective ``optimizer._planning_rate(problem)`` at each recorded point
against ``evaluate_point``, the public reference, bit for bit: the same
``K``, or a ``ValueError`` with the same text, and counts the points
that the objective answers by calling ``evaluate_point`` itself, the
slow path it keeps for points outside its domain. Last, it evaluates every
recorded point in 11 passes, building each problem's objective once per
pass as the optimizer does, then the kernel at every recorded input in 11
passes, and prints the median and quartiles of the process CPU time per
evaluation and per kernel call, in µs, with this process pinned to one
CPU. Those are the cost of one planning evaluation, without the search
around it, and of the χ it spends most of that on:

    PYTHONPATH=src python3 tools/objective_timing.py
    PYTHONPATH=old/src python3 tools/objective_timing.py

Uses only the standard library and whichever ``cvqkd`` is importable, so
one copy of this script can time any checkout. Exits 1 if any point
differs from the reference.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time

import cvqkd
from cvqkd import cli, keyrate, optimizer

PRESETS = ("distance_sweep", "blocksize_sweep")
REPEATS = 11  # timed passes over the recorded points


def visited_points() -> tuple[list[tuple], list[tuple]]:
    """``(visits, kernel_inputs)``: ``(problem, [(v, v2, r), ...])`` for
    each sweep row, in order, with every point its optimisation evaluates,
    repeats included, and the arguments of each Holevo kernel call those
    points made, in call order."""
    visits, kernel_inputs = [], []
    real_rate, real_each = optimizer._planning_rate, cli.optimize_each
    real_kernel = optimizer._holevo_bound

    def recording(problem):
        rate = real_rate(problem)
        points = []
        visits.append((problem, points))

        def wrapped(v, v2, r):
            points.append((v, v2, r))
            return rate(v, v2, r)
        return wrapped

    def kernel(*args):
        kernel_inputs.append(args)
        return real_kernel(*args)

    # every row in this process, so that each evaluation is recorded here
    optimizer._planning_rate, optimizer._holevo_bound = recording, kernel
    cli.optimize_each = lambda problems: [optimizer.optimize_key_rate(p) for p in problems]
    try:
        with tempfile.TemporaryDirectory() as work:
            for name in PRESETS:
                cli.run_sweep(cli.load_preset(name), work)
    finally:
        optimizer._planning_rate, cli.optimize_each = real_rate, real_each
        optimizer._holevo_bound = real_kernel
    return visits, kernel_inputs


def _outcome(f, *args):
    try:
        return f(*args).hex()
    except ValueError as exc:
        return f"ValueError: {exc}"


def mismatches(visits) -> list[str]:
    """Each point where the objective and ``evaluate_point`` differ."""
    bad = []
    for problem, points in visits:
        rate = optimizer._planning_rate(problem)
        for v, v2, r in points:
            core = _outcome(rate, v, v2, r)
            reference = _outcome(lambda: optimizer.evaluate_point(
                problem, {"v": v, "v2": v2, "r": r}).K)
            if core != reference:
                bad.append(f"{problem} at (v, v2, r) = {(v, v2, r)!r}: "
                           f"{core} against {reference}")
    return bad


def fallbacks(visits) -> int:
    """How many recorded points the objective answers through ``evaluate_point``."""
    real, calls = optimizer.evaluate_point, []

    def counting(problem, point):
        calls.append(point)
        return real(problem, point)
    optimizer.evaluate_point = counting
    try:
        cpu_seconds(visits)
    finally:
        optimizer.evaluate_point = real
    return len(calls)


def cpu_seconds(visits) -> float:
    """Process CPU time of one pass over every recorded point."""
    start = time.process_time()
    for problem, points in visits:
        rate = optimizer._planning_rate(problem)
        for v, v2, r in points:
            try:
                rate(v, v2, r)
            except ValueError:
                pass
    return time.process_time() - start


def kernel_cpu_seconds(kernel_inputs) -> float:
    """Process CPU time of one pass of the Holevo kernel over every recorded input."""
    kernel = keyrate._holevo_bound
    start = time.process_time()
    for args in kernel_inputs:
        try:
            kernel(*args)
        except ValueError:
            pass
    return time.process_time() - start


def _quartiles(timer, recorded, count: int) -> list[float]:
    timer(recorded)  # untimed warm pass
    per_item = [1e6 * timer(recorded) / count for _ in range(REPEATS)]
    return statistics.quantiles(per_item, n=4)


def main() -> int:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"cvqkd from {os.path.dirname(cvqkd.__file__)}", file=sys.stderr)
    visits, kernel_inputs = visited_points()
    total = sum(len(points) for _, points in visits)
    distinct = len({(id(problem), point) for problem, points in visits for point in points})
    print(f"{len(visits)} problems, {total} evaluations, {distinct} distinct points")
    bad = mismatches(visits)
    for line in bad:
        print(f"mismatch: {line}", file=sys.stderr)
    print(f"{total - len(bad)} of {total} points equal evaluate_point bit for bit")
    print(f"{fallbacks(visits)} of {total} points answered by evaluate_point")
    q1, median, q3 = _quartiles(cpu_seconds, visits, total)
    print(f"objective: median {median:.3f} µs per evaluation, quartiles "
          f"{q1:.3f}–{q3:.3f} µs, over {REPEATS} passes of process CPU time on one CPU")
    calls = len(kernel_inputs)
    q1, median, q3 = _quartiles(kernel_cpu_seconds, kernel_inputs, calls)
    print(f"kernel: median {median:.3f} µs per _holevo_bound call, quartiles "
          f"{q1:.3f}–{q3:.3f} µs, over {REPEATS} passes of its {calls} recorded inputs "
          f"on one CPU")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
