"""Benchmark of cvqkd: planning sweeps, Monte Carlo validation and cold
CLI queries, with every output checked against an independent oracle.

Run from the root of a checkout (stdlib only; the library is imported
from ``src`` by the processes this script starts):

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. See
``bench/README.md`` for the workloads, the metrics and what each layer
metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

OUT = ".bench_out"
SETUP_REPEATS = 3

# A fresh interpreter imports the CLI and loads the workload's inputs:
# the presets it runs, or the argument lists of the cli queries.
_SETUP = """
import json, sys
import cvqkd.cli as cli
workload, inputs = sys.argv[1], json.loads(sys.argv[2])
if workload == "cli":
    parser = cli.build_parser()
    for argv in inputs:
        parser.parse_args(argv)
else:
    for name in inputs:
        cli.load_preset(name)
"""


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("CVQKD_THREADS", None)
    return env


def _run(argv: list[str], env: dict, timeout: float) -> tuple[float, int, str, str]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=timeout)
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def _presets() -> dict:
    root = os.path.join("src", "cvqkd", "presets")
    return {name[:-5]: json.loads(_read(os.path.join(root, name)))
            for name in sorted(os.listdir(root)) if name.endswith(".json")}


def setup_walls(workload: str, queries: list, env: dict) -> list[float]:
    """Wall times of fresh interpreters importing cvqkd.cli and loading
    the workload's inputs."""
    inputs = {"sweep": list(workloads.SWEEP_PRESETS),
              "montecarlo": [workloads.MC_PRESET], "cli": queries}[workload]
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, rc, _, err = _run([sys.executable, "-c", _SETUP, workload,
                                 json.dumps(inputs)], env, 120)
        if rc != 0:
            raise RuntimeError(f"set-up failed: {err.strip()[-400:]}")
        walls.append(wall)
    return walls


# --------------------------------------------------------------------------
# checking what the workloads produced


class Tally:
    """Operations attempted and failed, and why."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong = 0          # rejected by a check (not raised, not exit 1)
        self.reasons: list[str] = []

    def add(self, verdict: str | None, wrong: bool = True) -> None:
        self.attempted += 1
        if verdict is not None:
            self.failed += 1
            self.wrong += wrong
            if len(self.reasons) < 20:
                self.reasons.append(verdict)


def check_sweep_round(rnd: dict, presets: dict, tally: Tally, where: str) -> None:
    broken = " ".join(rnd.get("errors", []))
    for name in workloads.SWEEP_PRESETS:
        scenario = presets[name]
        for spec in scenario["schemes"]:
            path = os.path.join(where, checks.sweep_csv_name(scenario, spec))
            text = _read(path)
            points = int(scenario["sweep"]["points"])
            if text is None:
                for _ in range(points):
                    tally.add(f"{path}: not written {broken}".strip(),
                              wrong=name not in broken)
                continue
            for verdict in checks.check_sweep_csv(text, scenario, spec):
                tally.add(verdict and f"{path}: {verdict}")


def check_mc_round(rnd: dict, presets: dict, tally: Tally, where: str) -> None:
    scenario = presets[workloads.MC_PRESET]
    text = _read(os.path.join(where, f"{scenario['name']}.csv"))
    if text is None or rnd.get("errors"):
        for _ in range(workloads.MC_ROWS):
            tally.add(f"montecarlo round failed: {rnd.get('errors')}", wrong=False)
        return
    for verdict in checks.check_mc_csv(text, scenario, rnd["trials"]):
        tally.add(verdict and f"{where}: {verdict}")


def check_query(query: dict, presets: dict, tally: Tally) -> None:
    if query.get("error") or query["rc"] == 1:
        tally.add(f"{' '.join(query['argv'])}: "
                  f"{query.get('error') or 'exit code 1'}", wrong=False)
        return
    verdict = checks.check_query(query["argv"], query["rc"], query["stdout"],
                                 _read, presets)
    tally.add(verdict and f"{' '.join(query['argv'])}: {verdict}")


# --------------------------------------------------------------------------
# workloads


def run_worker(args, env: dict, trace: int) -> dict:
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    _, rc, _, err = _run([sys.executable, script, "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(trace), "--out", OUT], env, 160)
    if rc != 0:
        raise RuntimeError(f"worker failed: {err.strip()[-800:]}")
    with open(os.path.join(OUT, "worker.json")) as handle:
        return json.load(handle)


def check_rounds(workload: str, result: dict, presets: dict, tally: Tally) -> None:
    for index, rnd in enumerate(result["rounds"]):
        where = os.path.join(OUT, workload, f"r{index}")
        if workload == "sweep":
            check_sweep_round(rnd, presets, tally, where)
        elif workload == "montecarlo":
            check_mc_round(rnd, presets, tally, where)
        else:
            for query in rnd["queries"]:
                check_query(query, presets, tally)
    for query in result.get("probe", []):
        check_query(query, presets, tally)


def cold_queries(queries: list, seconds: float, env: dict, tally: Tally,
                 presets: dict) -> list[float]:
    """Whole rounds of cold ``python -m cvqkd.cli`` invocations, one at a
    time, until the next round would end past ``seconds``."""
    walls: list[float] = []
    rounds = 0
    while not rounds or sum(walls) * (1.0 + 0.5 / rounds) < seconds:
        for argv in queries:
            wall, rc, out, _ = _run([sys.executable, "-m", "cvqkd.cli", *argv],
                                    env, 120)
            walls.append(wall)
            check_query({"argv": argv, "rc": rc, "stdout": out}, presets, tally)
        rounds += 1
    return walls


def import_seconds(env: dict) -> dict:
    """Cumulative ``-X importtime`` figures (median of three)."""
    found: dict = {"cvqkd.cli": [], "cvqkd.estimation": []}
    for _ in range(3):
        _, rc, _, err = _run([sys.executable, "-X", "importtime", "-c",
                              "import cvqkd.cli"], env, 120)
        if rc != 0:
            raise RuntimeError(f"import failed: {err.strip()[-400:]}")
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in found:
                found[parts[2]].append(int(parts[1]) * 1e-6)
    return {"cli.import_s": statistics.median(found["cvqkd.cli"]),
            "estimation.import_s": statistics.median(found["cvqkd.estimation"])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.MC_DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "cvqkd", "cli.py")):
        print("error: run from the root of a cvqkd checkout (no src/cvqkd here)",
              file=sys.stderr)
        return 2

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = _env()
    shutil.rmtree(OUT, ignore_errors=True)
    cli_dir = os.path.join(OUT, "cli")
    os.makedirs(cli_dir)
    with open(os.path.join(cli_dir, "scenario.json"), "w") as handle:
        json.dump(workloads.CLI_SCENARIO, handle)
    queries = workloads.cli_queries(args.seed, cli_dir)
    presets = _presets()
    tally = Tally()

    if args.trace:
        result = run_worker(args, env, 1)
        check_rounds(args.workload, result, presets, tally)
        measured = {**import_seconds(env), **result["layers"]}
        metrics = {name: measured[name] for name in units}
    else:
        setup = setup_walls(args.workload, queries, env)
        if args.workload == "cli":
            walls = cold_queries(queries, args.seconds, env, tally, presets)
            rate = 1.0 / statistics.median(walls)
        else:
            rounds = run_worker(args, env, 0)["rounds"]
            check_rounds(args.workload, {"rounds": rounds}, presets, tally)
            walls = [r["wall"] for r in rounds]
            per_round = (workloads.SWEEP_ROWS if args.workload == "sweep"
                         else workloads.MC_ROWS * rounds[0]["trials"])
            rate = per_round * len(rounds) / sum(walls)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        measured = {"setup_s": statistics.median(setup), "items_per_s": rate,
                    "peak_rss_mb": peak}
        metrics = {name: measured[name] for name in units}
        with open(os.path.join(OUT, "timings.json"), "w") as handle:
            json.dump({"setup_walls": setup, "walls": walls}, handle)

    for reason in tally.reasons:
        print(f"rejected: {reason}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
