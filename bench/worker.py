"""In-process side of the benchmark: runs workload rounds inside one
fresh interpreter that imports ``cvqkd`` from the checkout's ``src``.

Started by ``run.py``; writes ``worker.json`` into ``--out`` and, with
``--trace 1``, the spans as ``spans.tsv.gz``. The worker checks nothing:
``run.py`` checks every output it lists.

Untraced (``--trace 0``): whole rounds until ``--seconds`` is used up.
Traced (``--trace 1``): an untraced warm-up round, the same round with
every layer's public functions wrapped, and one more untraced round; the
traced wall time minus the last untraced one is the tracing overhead.
The sweep and montecarlo workloads add the cli query sequence, run
in-process and traced, so that every layer metric is measured on every
workload; on its own workload a layer's figures are dominated by the
workload's calls.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import statistics
import sys
import time

import workloads
from tracer import Tracer


def _sweep_round(cli, presets, out_dir):
    outputs, errors = [], []
    for name, scenario in presets.items():
        try:
            outputs.extend(cli.run_sweep(scenario, out_dir))
        except Exception as exc:   # the round goes on; run.py counts the rows
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
    return {"outputs": outputs, "errors": errors}


def _mc_round(cli, scenario, out_dir):
    try:
        path, _ = cli.run_montecarlo(scenario, out_dir,
                                     threads=workloads.mc_threads())
        return {"outputs": [path], "errors": []}
    except Exception as exc:
        return {"outputs": [], "errors": [f"{type(exc).__name__}: {exc}"]}


def _query_round(cli, queries, tracer=None):
    """The cli queries, in-process: main_entry after import."""
    results = []
    for argv in queries:
        out, err = io.StringIO(), io.StringIO()
        scope = tracer.span("bench.query", argv[0]) if tracer else contextlib.nullcontext()
        try:
            with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main_entry(argv)
            results.append({"argv": argv, "rc": rc, "stdout": out.getvalue()})
        except Exception as exc:
            results.append({"argv": argv, "rc": None, "stdout": out.getvalue(),
                            "error": f"{type(exc).__name__}: {exc}"})
    return results


class Workload:
    """One round of a workload, repeatable."""

    def __init__(self, name, seed, seconds, out_dir):
        import cvqkd.cli as cli
        self.cli, self.name, self.seed, self.out = cli, name, seed, out_dir
        self.queries = workloads.cli_queries(seed, os.path.join(out_dir, "cli"))
        if name == "sweep":
            self.presets = {p: cli.load_preset(p) for p in workloads.SWEEP_PRESETS}
        elif name == "montecarlo":
            self.trials = workloads.mc_trials(seconds)
            self.preset = cli.load_preset(workloads.MC_PRESET)

    def round(self, index, tracer=None):
        out_dir = os.path.join(self.out, self.name, f"r{index}")
        if self.name == "sweep":
            return _sweep_round(self.cli, self.presets, out_dir)
        if self.name == "montecarlo":
            scenario = {**self.preset, "trials": self.trials,
                        "seed": workloads.mc_round_seed(self.seed, index)}
            return {**_mc_round(self.cli, scenario, out_dir),
                    "trials": self.trials, "seed": scenario["seed"]}
        return {"queries": _query_round(self.cli, self.queries, tracer)}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    result["wall"] = time.perf_counter() - start
    return result


def measure(work: Workload, seconds: float) -> dict:
    """Whole rounds until the next one would end past ``seconds``."""
    rounds, used = [], 0.0
    while not rounds or used + 0.5 * statistics.mean(r["wall"] for r in rounds) < seconds:
        rounds.append(_timed(lambda: work.round(len(rounds))))
        used += rounds[-1]["wall"]
    return {"rounds": rounds}


# --------------------------------------------------------------------------
# tracing


def _normals_per_trial(config) -> int:
    """Normal deviates one trial draws (computed from N, r and the scheme,
    for the lean sampler: revealed displacements plus one noise draw)."""
    kind, N = config.scheme.kind, config.N
    shown = round(config.scheme.r * N)
    if kind == "single":
        return 2 * shown
    if kind == "double":
        return 2 * N
    return 2 * N + shown


def _annotators():
    def evaluations(args, kwargs, result):
        return result.evaluations

    def trials(args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        return [config.scheme.kind, config.trials, _normals_per_trial(config)]

    def subcommand(args, kwargs, result):
        argv = args[0] if args else kwargs.get("argv")
        return argv[0] if argv else None

    def csv_bytes(args, kwargs, result):
        paths = [result[0]] if isinstance(result, tuple) else result
        return sum(os.path.getsize(p) for p in paths)

    return {"optimizer.optimize_key_rate": evaluations,
            "montecarlo.run_trials": trials,
            "cli.main_entry": subcommand,
            "cli.run_sweep": csv_bytes,
            "cli.run_montecarlo": csv_bytes}


def layer_metrics(tracer, dtype_bytes: int) -> dict:
    by_name: dict = {}
    for span in tracer.spans:
        if span[2] is not None:
            by_name.setdefault(span[0], []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def count(*names):
        return sum(len(spans(n)) for n in names)

    def total(*names):
        return sum(s[2] - s[1] for n in names for s in spans(n))

    def mean(scale, *names):
        calls = count(*names)
        return scale * total(*names) / calls if calls else 0.0

    m = {}
    for sub in ("keyrate", "optimize", "maxdist"):
        durations = [s[2] - s[1] for s in spans("cli.main_entry") if s[5] == sub]
        m[f"cli.main_entry_ms.{sub}"] = (1e3 * statistics.mean(durations)
                                         if durations else 0.0)
    m["cli.run_sweep_s"] = total("cli.run_sweep")
    m["cli.run_montecarlo_s"] = total("cli.run_montecarlo")
    m["cli.csv_bytes"] = sum(s[5] or 0 for n in ("cli.run_sweep", "cli.run_montecarlo")
                             for s in spans(n))
    m["optimizer.optimize_calls"] = count("optimizer.optimize_key_rate")
    m["optimizer.optimize_ms"] = mean(1e3, "optimizer.optimize_key_rate")
    evals = [s[5] for s in spans("optimizer.optimize_key_rate") if s[5] is not None]
    m["optimizer.evaluations_per_call"] = statistics.mean(evals) if evals else 0.0
    points = spans("optimizer.evaluate_point")
    infeasible = sum(1 for s in points if s[4] == "ValueError")
    m["optimizer.evaluate_point_calls"] = len(points)
    m["optimizer.evaluate_point_us"] = mean(1e6, "optimizer.evaluate_point")
    m["optimizer.infeasible_points"] = infeasible
    m["optimizer.feasible_ratio"] = (1.0 - infeasible / len(points)) if points else 0.0
    m["optimizer.fit_exponential_keyrate_ms"] = mean(1e3, "optimizer.fit_exponential_keyrate")
    m["numeric.golden_calls"] = count("numeric.golden_section_max")
    m["numeric.golden_ms"] = mean(1e3, "numeric.golden_section_max")
    for fn in ("expected_bounds", "confidence_coefficient"):
        m[f"estimation.{fn}_calls"] = count(f"estimation.{fn}")
        m[f"estimation.{fn}_us"] = mean(1e6, f"estimation.{fn}")
    estimators = ("estimation.estimate_T", "estimation.estimate_Veps")
    m["estimation.estimator_calls"] = count(*estimators)
    m["estimation.estimator_us"] = mean(1e6, *estimators)
    m["keyrate.finite_key_rate_us"] = mean(1e6, "keyrate.finite_key_rate")
    m["keyrate.asymptotic_key_rate_calls"] = count("keyrate.asymptotic_key_rate")
    m["keyrate.asymptotic_key_rate_us"] = mean(1e6, "keyrate.asymptotic_key_rate")
    m["keyrate.holevo_bound_us"] = mean(1e6, "keyrate.holevo_bound")
    m["keyrate.theoretical_limit_ms"] = mean(1e3, "keyrate.theoretical_key_rate_limit")
    trial_wall, trial_count, normals = {}, {}, 0
    for s in spans("montecarlo.run_trials"):
        kind, n_trials, per_trial = s[5]
        trial_wall[kind] = trial_wall.get(kind, 0.0) + s[2] - s[1]
        trial_count[kind] = trial_count.get(kind, 0) + n_trials
        normals += n_trials * per_trial
    for kind in ("single", "double", "modified"):
        m[f"montecarlo.trial_ms.{kind}"] = (1e3 * trial_wall[kind] / trial_count[kind]
                                            if trial_count.get(kind) else 0.0)
    all_trials = sum(trial_count.values())
    m["montecarlo.normals_per_trial"] = normals / all_trials if all_trials else 0.0
    m["montecarlo.bytes_per_trial"] = m["montecarlo.normals_per_trial"] * dtype_bytes
    own: dict = {}
    for name, seconds in tracer.self_times().items():
        layer = name.split(".")[0]
        own[layer] = own.get(layer, 0.0) + seconds
    for layer in ("cli", "optimizer", "numeric", "estimation", "keyrate", "montecarlo"):
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    m["trace.harness_self_s"] = own.get("bench", 0.0)
    m["trace.spans"] = len(tracer.spans)
    return m


def traced(work: Workload, out_dir: str) -> dict:
    import numpy as np

    warm = _timed(lambda: work.round(0))   # lets lazy set-up finish
    tracer = Tracer()
    layers = {name: sys.modules[f"cvqkd.{name}"] for name in
              ("cli", "optimizer", "numeric", "estimation", "keyrate", "montecarlo")}
    tracer.install("cvqkd", layers, _annotators())
    try:
        with tracer.span("bench.round"):
            traced_round = _timed(lambda: work.round(1, tracer))
        probe = []
        if work.name != "cli":
            with tracer.span("bench.probe"):
                probe = _query_round(work.cli, work.queries, tracer)
    finally:
        tracer.uninstall()
    untraced = _timed(lambda: work.round(2))
    dtype = getattr(sys.modules["cvqkd.montecarlo"], "_DTYPE", np.float64)
    metrics = layer_metrics(tracer, np.dtype(dtype).itemsize)
    metrics["trace.untraced_s"] = untraced["wall"]
    metrics["trace.traced_s"] = traced_round["wall"]
    metrics["trace.overhead_s"] = traced_round["wall"] - untraced["wall"]
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced["wall"]
    with gzip.open(os.path.join(out_dir, "spans.tsv.gz"), "wt", compresslevel=1) as handle:
        tracer.dump(handle)
    return {"rounds": [warm, traced_round, untraced], "probe": probe,
            "layers": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    work = Workload(args.workload, args.seed, int(args.seconds), args.out)
    if args.trace:
        result = traced(work, args.out)
    else:
        result = measure(work, args.seconds)
    with open(os.path.join(args.out, "worker.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
