"""Print the sha256 of every published cvqkd output, one ``sha256  path`` line each.

Runs, in this process and into a work directory, the five sweep presets,
a T-axis sweep scenario, the ``variance_validation`` Monte Carlo preset as
shipped (1000 trials per row), and a fixed set of
``keyrate``/``optimize``/``maxdist`` queries covering all three schemes,
``--ideal-bounds`` and ``--corner-search``; then the Monte Carlo preset
again at 35 and at 70,000 trials per row, a Monte Carlo table whose arms
hold one sample each, and last a ``maxdist`` query that sets every flag
off its default. The lines of these later outputs follow the others.
Paths are printed relative to the work directory, and the timestamp of
each JSON manifest is blanked before hashing, so two trees print the
same lines exactly when their outputs are byte-identical. Uses only the
standard library and whichever ``cvqkd`` is importable, so one copy of
this script can digest any checkout:

    PYTHONPATH=old/src python3 tools/output_digests.py --work /tmp/old > old.txt
    PYTHONPATH=src python3 tools/output_digests.py --work /tmp/new > new.txt
    diff old.txt new.txt

Exits 1 if any command fails (exit code 1); insecure verdicts (exit 2)
still write their report and are digested.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

import cvqkd
from cvqkd.cli import main_entry

SWEEP_PRESETS = ("distance_sweep", "blocksize_sweep", "large_block_sweep",
                 "noise_sweep", "reconciliation_sweep")
# no preset sweeps the transmittance; the scenario file itself is not digested
T_SWEEP = {"command": "sweep", "name": "t_axis", "N": 1000000,
           "sweep": {"variable": "T", "min": 0.05, "max": 0.8, "points": 4,
                     "spacing": "log"},
           "schemes": [{"kind": "single"}, {"kind": "modified", "v_s": 0.5}]}
MC_ARGS = ("montecarlo", "--preset", "variance_validation")
# the trial count of the benchmark's 25 s montecarlo workload, and one
# above the 2**16 trials of a stacked batch, where each row runs alone
MC_TRIALS = ("35", "70000")
# arms of one sample, where chi^2_0 = 0 is not drawn: N = 2 and r = 0.5
# leave the single and modified arms one sample each, the double arm two
MC_ONE_SAMPLE = {"command": "montecarlo", "name": "one_sample", "seed": 20140902,
                 "t_grid": {"min": 0.05, "max": 0.9, "points": 4, "spacing": "log"},
                 "template": {"N": 2, "r": 0.5, "v": 3.0, "v1": 3.0, "v2": 10.0},
                 "trials": 35}
QUERIES = (
    ("keyrate", "--T", "0.3"),
    ("keyrate", "--d", "76", "--scheme", "double", "--vs", "0.1", "--N", "1e6"),
    ("keyrate", "--T", "0.03", "--scheme", "modified", "--vs", "0.1", "--N", "1e7"),
    ("keyrate", "--T", "0.2", "--v", "3", "--r", "0.5", "--N", "1e5",
     "--corner-search"),
    ("keyrate", "--T", "0.2", "--scheme", "modified", "--v1", "3", "--v2", "10",
     "--r", "0.3", "--corner-search"),
    ("keyrate", "--T", "0.05", "--scheme", "double", "--v1", "4", "--N", "1e9",
     "--corner-search"),
    ("keyrate", "--T", "1", "--veps", "0", "--vs", "1", "--v", "3", "--beta", "1",
     "--ideal-bounds"),
    ("keyrate", "--T", "0.5", "--scheme", "double", "--v1", "6", "--ideal-bounds"),
    ("keyrate", "--T", "0.01", "--v", "3", "--r", "0.5", "--N", "1e4"),
    ("keyrate", "--T", "0", "--scheme", "double", "--v1", "3"),
    ("optimize", "--T", "0.03", "--scheme", "modified", "--vs", "0.1", "--N", "1e7"),
    ("optimize", "--T", "0.6", "--scheme", "modified", "--N", "1e5"),
    ("optimize", "--T", "0.1", "--scheme", "double", "--N", "1e8"),
    ("optimize", "--d", "50", "--N", "1e5"),
    ("optimize", "--T", "0.3", "--v", "3", "--r", "0.3", "--N", "1e6"),
    ("optimize", "--T", "0.5", "--scheme", "modified", "--v2", "4", "--N", "1e9"),
    ("maxdist", "--N", "1e6", "1e8", "1e10"),
)
MAXDIST_FLAGS = ("maxdist", "--N", "1e7", "1e9", "--beta", "0.9", "--vs", "0.5",
                 "--eps-ratio", "0.02", "--delta-star", "1e-9")
_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def _run(argv) -> bool:
    """One command with its stdout swallowed; False if it exits 1."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main_entry(list(argv)) != 1


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        data = handle.read()
    if path.endswith(".json"):
        data = _TIMESTAMP.sub(b'"timestamp": ""', data)
    return hashlib.sha256(data).hexdigest()


def produce(work: str) -> tuple[list[str], list[str]]:
    """Write every output under ``work``; returns (paths, failed commands)."""
    failed = []
    for name in SWEEP_PRESETS:
        if not _run(("sweep", "--preset", name, "--out", os.path.join(work, "sweep"))):
            failed.append(f"sweep --preset {name}")
    if not _run_scenario(T_SWEEP, os.path.join(work, "sweep")):
        failed.append("sweep --scenario t_axis.json")
    if not _run(MC_ARGS + ("--out", os.path.join(work, "montecarlo"))):
        failed.append(" ".join(MC_ARGS))
    os.makedirs(os.path.join(work, "query"), exist_ok=True)
    for index, argv in enumerate(QUERIES):
        out = os.path.join(work, "query", f"{index:02d}_{argv[0]}.json")
        if not _run(argv + ("--out", out)):
            failed.append(" ".join(argv))
    paths = _files(work)
    for trials in MC_TRIALS:
        out = os.path.join(work, f"montecarlo_{trials}")
        if not _run(MC_ARGS + ("--trials", trials, "--out", out)):
            failed.append(" ".join(MC_ARGS + ("--trials", trials)))
        paths += _files(out)
    out = os.path.join(work, "montecarlo_one_sample")
    if not _run_scenario(MC_ONE_SAMPLE, out):
        failed.append("montecarlo --scenario one_sample.json")
    paths += _files(out)
    out = os.path.join(work, "query_flags")
    os.makedirs(out)
    if not _run(MAXDIST_FLAGS + ("--out", os.path.join(out, "maxdist.json"))):
        failed.append(" ".join(MAXDIST_FLAGS))
    return paths + _files(out), failed


def _run_scenario(scenario: dict, out: str) -> bool:
    """``scenario``'s command on a scenario file that is not digested."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, f"{scenario['name']}.json")
        with open(path, "w") as handle:
            json.dump(scenario, handle)
        return _run((scenario["command"], "--scenario", path, "--out", out))


def _files(top: str) -> list[str]:
    return sorted(os.path.join(root, name) for root, _, names in os.walk(top)
                  for name in names)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True,
                        help="directory for the outputs (created; must be empty)")
    args = parser.parse_args()
    os.makedirs(args.work, exist_ok=True)
    if os.listdir(args.work):
        parser.error(f"{args.work} is not empty")
    print(f"cvqkd from {os.path.dirname(cvqkd.__file__)}", file=sys.stderr)
    paths, failed = produce(args.work)
    for path in paths:
        print(f"{digest(path)}  {os.path.relpath(path, args.work)}")
    for command in failed:
        print(f"error: cvqkd {command} failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
