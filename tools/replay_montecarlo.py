"""Replay rounds of the benchmark's ``montecarlo`` workload and print the
round seeds whose table its check rejects.

A ``bench/run.py --workload montecarlo --seed S`` run draws round ``i``
of the ``variance_validation`` preset with round seed ``S + i``, at
``bench/workloads.mc_trials`` trials per row for the run length that
``BENCHMARK.json`` declares (35 trials at 25 s). This script runs round
seeds ``S … S + R − 1`` the same way, in this process, and checks each
table with ``bench/checks.check_mc_csv``, the check the benchmark applies.
A run judged incorrect can thus be traced to the rows and seeds at
fault, and replayed on two trees to tell a changed table from a seed
whose correct table the check rejects:

    PYTHONPATH=src python3 tools/replay_montecarlo.py --seed 44000 --rounds 1000

It prints one line per rejected round seed, then a summary, and exits 1
if any round was rejected or failed. It imports only the standard
library, whichever ``cvqkd`` is importable, and ``bench/``'s
``workloads`` and ``checks``; it writes nothing under ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from cvqkd.cli import load_preset, run_montecarlo

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.dont_write_bytecode = True  # leave bench/ as it is

import checks  # noqa: E402
import workloads  # noqa: E402


def replay(seed: int, rounds: int, trials: int, work: str) -> tuple[int, int]:
    """Check round seeds ``seed … seed + rounds − 1``; print each rejected
    one with its reasons. Returns the rounds and the rows rejected."""
    preset = load_preset(workloads.MC_PRESET)
    grid = checks.axis_values(preset["t_grid"])
    kinds = preset.get("schemes", ["single", "double", "modified"])
    rows = [f"{kind} at T={T:.3g}" for kind in kinds for T in grid]
    bad_rounds = bad_rows = 0
    for round_seed in range(seed, seed + rounds):
        scenario = {**preset, "trials": trials, "seed": round_seed}
        try:
            path, _ = run_montecarlo(scenario, work)
            with open(path) as handle:
                labelled = zip(rows, checks.check_mc_csv(handle.read(), preset, trials))
        except Exception as exc:  # a failed round is reported, not fatal
            labelled = [("round failed", f"{type(exc).__name__}: {exc}")]
        rejected = [f"{row}: {v}" for row, v in labelled if v is not None]
        if rejected:
            bad_rounds += 1
            bad_rows += len(rejected)
            print(f"seed {round_seed}: " + " | ".join(rejected), flush=True)
    return bad_rounds, bad_rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="first round seed")
    parser.add_argument("--rounds", type=int, required=True, help="round seeds to replay")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    trials = workloads.mc_trials(seconds)
    with tempfile.TemporaryDirectory() as work:
        bad_rounds, bad_rows = replay(args.seed, args.rounds, trials, work)
    print(f"round seeds {args.seed}..{args.seed + args.rounds - 1}: {args.rounds} rounds "
          f"of {workloads.MC_ROWS} rows at {trials} trials, {bad_rounds} rejected "
          f"({bad_rows} rows)")
    return 1 if bad_rounds else 0


if __name__ == "__main__":
    sys.exit(main())
