"""Inputs of the three workloads, made from the seed alone.

Shared by the orchestrator (``run.py``) and the in-process worker
(``worker.py``), so that both sides agree on what was asked.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("sweep", "montecarlo", "cli")

# sweep: two shipped presets, 6 schemes x 12 distances + 6 schemes x 11
# block sizes = 138 optimised rows per round
SWEEP_PRESETS = ("distance_sweep", "blocksize_sweep")
SWEEP_ROWS = 138

# montecarlo: the shipped validation grid, 3 schemes x 20 transmittances
MC_PRESET = "variance_validation"
MC_ROWS = 60
MC_DEFAULT_SEED = 20140902


def mc_trials(seconds: int) -> int:
    """Trials per row in one round, cut to the run length: at about 2 ms
    per trial on 2 cores a round takes a sixth of the run, so a run holds
    five or six whole rounds."""
    return max(2, int(round(seconds * 1.4)))


def mc_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def mc_round_seed(seed: int, round_index: int) -> int:
    return seed + round_index


# cli: a tiny sweep scenario in the shipped preset shape, 2 schemes x 3
# distances, so that one query runs the sweep path in about half a second
CLI_SCENARIO = {
    "name": "bench_short",
    "description": "Two schemes over three distances at N=1e6.",
    "command": "sweep",
    "fiber": {"attenuation_db_per_km": 0.2, "eps_ratio": 0.01},
    "sweep": {"variable": "d", "min": 20.0, "max": 40.0, "points": 3,
              "spacing": "linear"},
    "N": 1000000.0,
    "beta": 0.95,
    "schemes": [{"kind": "single", "v_s": 1.0},
                {"kind": "modified", "v_s": 0.1}],
}
CLI_MC_TRIALS = 2


def cli_queries(seed: int, out_dir: str) -> list[list[str]]:
    """The fixed sequence of ``cvqkd`` argument lists for one round.

    Distances and transmittances are drawn from the seed; the scheme mix
    and the flags are fixed.
    """
    rng = random.Random(seed)

    def d() -> str:
        return f"{rng.uniform(10.0, 40.0):.1f}"

    return [
        ["keyrate", "--d", d(), "--scheme", "single", "--N", "1e6"],
        ["keyrate", "--d", d(), "--scheme", "double", "--vs", "0.5",
         "--N", "1e8"],
        ["keyrate", "--d", d(), "--scheme", "modified", "--vs", "0.1",
         "--N", "1e8"],
        ["keyrate", "--T", f"{rng.uniform(0.05, 0.5):.3f}", "--scheme",
         "single", "--v", "3", "--r", "0.3", "--N", "1e7",
         "--corner-search"],
        ["optimize", "--T", f"{rng.uniform(0.03, 0.3):.3f}", "--scheme",
         "modified", "--vs", "0.5", "--N", "1e7"],
        ["maxdist", "--N", "1e6", "1e8", "1e10"],
        ["sweep", "--scenario", os.path.join(out_dir, "scenario.json"),
         "--out", os.path.join(out_dir, "sweep")],
        ["montecarlo", "--preset", MC_PRESET, "--trials", str(CLI_MC_TRIALS),
         "--threads", "1", "--seed", str(seed), "--out",
         os.path.join(out_dir, "mc")],
    ]
