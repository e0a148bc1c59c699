"""Command-line front end.

Single-point reports, parameter sweeps, Monte Carlo validation of the
estimator variance models, and the fitted distance bound are exposed as
subcommands of one ``cvqkd`` executable:

    cvqkd keyrate --d 76 --scheme double --vs 0.1 --N 1e6
    cvqkd keyrate --T 1 --veps 0 --vs 1 --v 3 --beta 1 --ideal-bounds
    cvqkd sweep --preset distance_sweep --out data/
    cvqkd montecarlo --preset variance_validation --trials 10 --out data/
    cvqkd optimize --T 0.03 --scheme modified --vs 0.1 --N 1e7
    cvqkd maxdist --N 1e6 1e8 1e10
    cvqkd presets

Sweeps and Monte Carlo runs are driven by scenario files, JSON objects
with the shape shipped under ``presets/``:

    {"name": ..., "command": "sweep" | "montecarlo",
     "fiber": {"attenuation_db_per_km": .., "eps_ratio": ..},
     "sweep": {"variable": "d" | "T" | "N", "min": .., "max": ..,
               "points": .., "spacing": "linear" | "log"},
     "channel": {"T": ..},          # fixed channel for N-axis sweeps
     "N": .., "beta": .., "delta": .., "delta_star": ..,
     "schemes": [{"kind": "single", "v_s": 1.0}, ...],
     "template": {...}, "t_grid": {...}, "trials": .., "seed": ..}

A key outside this shape, at any level, is rejected by name.

Every output file starts with a manifest line identifying the tool
version, a digest of the scenario that produced it, and the seed.  The
line carries no timestamp, so rerunning a scenario reproduces the file
byte for byte; timestamps appear only in JSON reports.  CSV numbers are
rendered with 12 significant digits.

Exit codes: 0 on success, 1 on invalid input, 2 when a requested key
rate was computed fine but came out non-positive (insecure regime).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import __version__
from .model import (SINGLE, MODIFIED, KINDS, DEFAULT_BETA, DEFAULT_DELTA,
                    DEFAULT_DELTA_STAR, ChannelParams, SourceParams, Protocol,
                    ProtocolParams, FiberModel, channel_at_distance, _require)
from .estimation import expected_bounds, ideal_bounds
from .keyrate import finite_key_rate, theoretical_key_rate_limit
from .montecarlo import validate_variance_models
from .optimizer import (FREE, LEGACY, ExponentialFit, OptimizationProblem,
                        optimize_key_rate, evaluate_point,
                        fit_exponential_keyrate, max_distance)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INSECURE = 2

_SWEEP_COLUMNS = ("axis_value", "K", "K_inf", "I_AB", "chi", "Delta",
                  "T_low", "Veps_up", "V_opt", "r_opt", "K_th", "K_legacy")
_MC_COLUMNS = ("scheme", "T", "samples", "s_analytic", "s_empirical",
               "rel_err_s", "sigma_analytic", "sigma_empirical",
               "rel_err_sigma", "veps_th")

# the keys a scenario may hold; a misspelt one would otherwise be ignored
# and the run would silently use a default
_SWEEP_KEYS = ("name", "description", "command", "seed", "fiber", "sweep",
               "channel", "N", "beta", "delta", "delta_star", "schemes")
_MC_KEYS = ("name", "description", "command", "seed", "fiber", "t_grid",
            "template", "trials", "schemes")
_TEMPLATE_KEYS = ("N", "r", "v_s", "v", "v1", "v2")
_AXIS_KEYS = ("variable", "min", "max", "points", "spacing")


# ------------------------------------------------------------------
# manifest and rendering
# ------------------------------------------------------------------

def scenario_digest(scenario: dict) -> str:
    """Short content digest, invariant under key reordering."""
    canonical = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RunManifest:
    """Provenance stamp for one tool invocation."""

    tool_version: str
    scenario_digest: str
    seed: int | None
    timestamp: str

    def header_line(self) -> str:
        # no timestamp here: rerunning a scenario must reproduce files exactly
        seed = "none" if self.seed is None else str(self.seed)
        return (f"# cvqkd {self.tool_version} "
                f"scenario={self.scenario_digest} seed={seed}")

    def as_dict(self) -> dict:
        return {"tool_version": self.tool_version,
                "scenario_digest": self.scenario_digest,
                "seed": self.seed,
                "timestamp": self.timestamp}


def make_manifest(scenario: dict, seed: int | None) -> RunManifest:
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return RunManifest(__version__, scenario_digest(scenario), seed, stamp)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return "%.12g" % float(value)


def _write_csv(path: str, manifest: RunManifest, columns, rows) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(manifest.header_line() + "\n")
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(cell) for cell in row) + "\n")


# ------------------------------------------------------------------
# scenario handling
# ------------------------------------------------------------------

def preset_names() -> list[str]:
    root = resources.files("cvqkd") / "presets"
    return sorted(entry.name[:-5] for entry in root.iterdir()
                  if entry.name.endswith(".json"))


def load_preset(name: str) -> dict:
    root = resources.files("cvqkd") / "presets"
    entry = root / f"{name}.json"
    _require(entry.is_file(), f"unknown preset {name!r}; try 'cvqkd presets'")
    return json.loads(entry.read_text())


def load_scenario(args) -> dict:
    if getattr(args, "scenario", None):
        with open(args.scenario) as handle:
            scenario = json.load(handle)
        _require(isinstance(scenario, dict), "a scenario must be a JSON object")
        return scenario
    _require(getattr(args, "preset", None) is not None,
             "need --preset NAME or --scenario FILE")
    return load_preset(args.preset)


def _check_keys(spec, allowed: tuple[str, ...], where: str) -> None:
    """Reject a ``spec`` that is not an object or holds a key outside
    ``allowed``, naming the key."""
    _require(isinstance(spec, dict), f"{where} must be a JSON object")
    for key in spec:
        _require(key in allowed,
                 f"unknown key {key!r} in {where}; expected "
                 f"{', '.join(map(repr, allowed))}")


def _axis_values(axis: dict) -> np.ndarray:
    _check_keys(axis, _AXIS_KEYS, "the sweep axis")
    for key in ("variable", "min", "max", "points"):
        _require(key in axis, f"sweep axis needs a {key!r} entry")
    _require(axis["variable"] in ("d", "T", "N"),
             f"sweep variable must be d, T or N, got {axis['variable']!r}")
    points = int(axis["points"])
    _require(points >= 2, "a sweep needs at least 2 points")
    lo, hi = float(axis["min"]), float(axis["max"])
    _require(hi > lo > 0.0, "sweep range must be increasing and positive")
    spacing = axis.get("spacing", "linear")
    if spacing == "log":
        return np.geomspace(lo, hi, points)
    _require(spacing == "linear", f"spacing must be linear or log, got {spacing!r}")
    return np.linspace(lo, hi, points)


def _fiber_from(scenario: dict) -> FiberModel:
    spec = scenario.get("fiber", {})
    _check_keys(spec, ("attenuation_db_per_km", "eps_ratio"), "'fiber'")
    return FiberModel(**spec)


def _scenario_channel(scenario: dict, fiber: FiberModel) -> ChannelParams:
    spec = scenario.get("channel")
    _require(spec is not None, "an N-axis sweep needs a fixed 'channel' entry")
    _check_keys(spec, ("T", "v_eps"), "'channel'")
    _require("T" in spec, "an N-axis sweep needs the transmittance 'T' "
                          "in its 'channel' entry")
    if "v_eps" in spec:
        return ChannelParams(float(spec["T"]), float(spec["v_eps"]))
    T = float(spec["T"])
    return ChannelParams(T, fiber.eps_ratio * T)


def _point_channel(variable: str, value: float, scenario: dict,
                   fiber: FiberModel) -> tuple[ChannelParams, int]:
    if variable == "N":
        return _scenario_channel(scenario, fiber), int(round(float(value)))
    _require("N" in scenario, "a sweep over d or T needs the block size 'N'")
    n_block = int(round(float(scenario["N"])))
    if variable == "d":
        return channel_at_distance(float(value), fiber), n_block
    T = float(value)
    return ChannelParams(T, fiber.eps_ratio * T), n_block


def _scheme_entry(spec: dict) -> tuple[str, SourceParams]:
    """The scheme kind and the source of one ``schemes`` entry of a sweep."""
    _check_keys(spec, ("kind", "v_s"), f"scheme entry {spec!r}")
    _require("kind" in spec, f"scheme entry {spec!r} needs a 'kind'")
    return spec["kind"], SourceParams(v_s=float(spec.get("v_s", 1.0)))


# ------------------------------------------------------------------
# sweep command
# ------------------------------------------------------------------

def run_sweep(scenario: dict, out_dir: str) -> list[str]:
    """One CSV per scheme entry; returns the paths written."""
    _require(scenario.get("command") == "sweep",
             f"scenario {scenario.get('name')!r} is not a sweep")
    _check_keys(scenario, _SWEEP_KEYS, "a sweep scenario")
    fiber = _fiber_from(scenario)
    axis = scenario["sweep"]
    values = _axis_values(axis)
    beta = float(scenario.get("beta", DEFAULT_BETA))
    delta = float(scenario.get("delta", DEFAULT_DELTA))
    delta_star = float(scenario.get("delta_star", DEFAULT_DELTA_STAR))
    manifest = make_manifest(scenario, scenario.get("seed"))
    name = scenario.get("name", "sweep")

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for spec in scenario["schemes"]:
        kind, source = _scheme_entry(spec)
        # v and r are searched; 0.0 only holds their place
        protocol = Protocol(kind, v=0.0)
        rows = []
        for value in values:
            channel, n_block = _point_channel(axis["variable"], value,
                                              scenario, fiber)
            problem = OptimizationProblem(channel, source, n_block, protocol,
                                          beta, delta, delta_star)
            result = optimize_key_rate(problem)
            report = result.report
            k_th = theoretical_key_rate_limit(channel, n_block, beta, delta_star)
            legacy = OptimizationProblem(channel, SourceParams(v_s=1.0), n_block,
                                         LEGACY, beta, delta, delta_star)
            k_legacy = evaluate_point(legacy, {}).K
            rows.append((value, report.K, report.K_inf, report.I_AB,
                         report.chi_BE, report.Delta_n, report.T_low,
                         report.veps_up, result.point["v"],
                         result.point.get("r", 0.0), k_th, k_legacy))
        path = os.path.join(out_dir, f"{name}_{kind}_vs{source.v_s:g}.csv")
        _write_csv(path, manifest, _SWEEP_COLUMNS, rows)
        paths.append(path)
    return paths


# ------------------------------------------------------------------
# montecarlo command
# ------------------------------------------------------------------

def _mc_protocol(kind: str, tpl: dict) -> Protocol:
    """The protocol of one scheme of the validation table: the single
    scheme sends the template's ``v``, the others ``v1`` and ``v2``."""
    if kind == SINGLE:
        return Protocol(SINGLE, float(tpl["v"]), r=float(tpl["r"]))
    r = float(tpl["r"]) if kind == MODIFIED else 0.0
    return Protocol(kind, float(tpl["v1"]), float(tpl["v2"]), r)


def run_montecarlo(scenario: dict, out_dir: str,
                   threads: int | None = None) -> tuple[str, list]:
    """Variance-model validation table; returns (path, rows)."""
    _require(scenario.get("command") == "montecarlo",
             f"scenario {scenario.get('name')!r} is not a montecarlo run")
    _check_keys(scenario, _MC_KEYS, "a montecarlo scenario")
    fiber = _fiber_from(scenario)
    t_grid = scenario["t_grid"]
    _check_keys(t_grid, ("min", "max", "points", "spacing"), "'t_grid'")
    grid = _axis_values({"variable": "T", **t_grid})
    tpl = scenario["template"]
    _check_keys(tpl, _TEMPLATE_KEYS, "the montecarlo 'template'")
    seed = int(scenario["seed"])
    protocols = [_mc_protocol(kind, tpl) for kind in scenario.get("schemes", KINDS)]
    rows = validate_variance_models(
        grid, protocols, SourceParams(v_s=float(tpl.get("v_s", 1.0))),
        int(round(float(tpl["N"]))), int(scenario["trials"]), seed,
        fiber=fiber, threads=threads)
    manifest = make_manifest(scenario, seed)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{scenario.get('name', 'montecarlo')}.csv")
    table = [(row.scheme, row.T, row.samples, row.s_analytic, row.s_empirical,
              row.rel_err_s, row.sigma_analytic, row.sigma_empirical,
              row.rel_err_sigma, row.veps_th) for row in rows]
    _write_csv(path, manifest, _MC_COLUMNS, table)
    return path, rows


# ------------------------------------------------------------------
# single-point commands
# ------------------------------------------------------------------

def _parse_count(text: str) -> int:
    value = float(text)
    _require(value >= 2, f"block size must be a count >= 2, got {text!r}")
    return int(round(value))


def _channel_from_args(args) -> ChannelParams:
    fiber = FiberModel(eps_ratio=args.eps_ratio)
    _require(args.T is not None or args.d is not None,
             "need --T or --d to fix the channel")
    T = channel_at_distance(args.d, fiber).T if args.d is not None else args.T
    veps = args.veps if args.veps is not None else fiber.eps_ratio * T
    return ChannelParams(T, veps)


def _key_name(kind: str) -> str:
    """Flag and JSON key of the key variance ``Protocol.v``."""
    return "v" if kind == SINGLE else "v1"


def _pinned(args) -> dict:
    """The :class:`Protocol` fields the flags pin."""
    pinned = {"v": getattr(args, _key_name(args.scheme)), "v2": args.v2, "r": args.r}
    return {name: x for name, x in pinned.items() if x is not None}


def _direct_report(args, channel: ChannelParams, source: SourceParams):
    """Evaluate the key rate at fully specified protocol parameters."""
    protocol = Protocol(args.scheme, **_pinned(args))
    params = ProtocolParams(source, protocol, args.N, args.beta, args.delta,
                            args.delta_star)
    if args.ideal_bounds:
        bounds = ideal_bounds(channel)
    else:
        bounds = expected_bounds(channel, source, protocol, args.N, args.delta)
    return finite_key_rate(params, channel, bounds,
                           corner_search=args.corner_search,
                           with_correction=not args.ideal_bounds)


def _optimize(args, channel: ChannelParams, source: SourceParams) -> tuple:
    """Optimize what the flags leave free (nothing, if they pin all);
    returns the result and its point under the CLI's key names."""
    pinned = _pinned(args)
    free = tuple(name for name in FREE[args.scheme] if name not in pinned)
    # a free key variance is the optimizer's to choose; 0.0 holds its place
    protocol = Protocol(args.scheme, **{"v": 0.0, **pinned})
    result = optimize_key_rate(OptimizationProblem(
        channel, source, args.N, protocol, args.beta, args.delta,
        args.delta_star, free=free))
    point = {(_key_name(args.scheme) if name == "v" else name): x
             for name, x in result.point.items()}
    return result, point


def _inputs_dict(args, channel: ChannelParams) -> dict:
    return {"command": args.command, "scheme": args.scheme,
            "T": channel.T, "v_eps": channel.v_eps, "v_s": args.vs,
            "N": args.N, "beta": args.beta, "delta": args.delta,
            "delta_star": args.delta_star,
            "v": args.v, "v1": args.v1, "v2": args.v2, "r": args.r,
            "ideal_bounds": bool(getattr(args, "ideal_bounds", False)),
            "corner_search": bool(getattr(args, "corner_search", False))}


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    print(text)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")


def cmd_keyrate(args) -> int:
    channel = _channel_from_args(args)
    source = SourceParams(v_s=args.vs)
    inputs = _inputs_dict(args, channel)
    pinned = _pinned(args)

    optimum = None
    if args.ideal_bounds:
        # estimation is bypassed, so r defaults to 0 and only the
        # modulation variance itself must be pinned
        _require("v" in pinned,
                 "--ideal-bounds needs --v (single) or --v1 (double/modified)")
        report = _direct_report(args, channel, source)
    elif all(name in pinned for name in FREE[args.scheme]):
        report = _direct_report(args, channel, source)
    else:
        result, point = _optimize(args, channel, source)
        report = result.report
        optimum = {"point": point, "status": result.status,
                   "evaluations": result.evaluations}

    payload = {"manifest": make_manifest(inputs, None).as_dict(),
               "inputs": inputs,
               "report": report.as_dict()}
    if optimum is not None:
        payload["optimum"] = optimum
    _emit_json(payload, args.out)
    return EXIT_OK if report.K > 0.0 else EXIT_INSECURE


def cmd_optimize(args) -> int:
    channel = _channel_from_args(args)
    result, point = _optimize(args, channel, SourceParams(v_s=args.vs))
    inputs = _inputs_dict(args, channel)
    payload = {"manifest": make_manifest(inputs, None).as_dict(),
               "inputs": inputs,
               "optimum": {"point": point, "K": result.K,
                           "status": result.status,
                           "evaluations": result.evaluations},
               "report": result.report.as_dict()}
    _emit_json(payload, args.out)
    return EXIT_OK if result.status == "ok" else EXIT_INSECURE


def cmd_maxdist(args) -> int:
    fiber = FiberModel(eps_ratio=args.eps_ratio)
    if (args.fit_a is None) != (args.fit_kappa is None):
        raise ValueError("--fit-a and --fit-kappa must be given together")
    if args.fit_a is not None:
        # injected synthetic fit: bypasses the per-distance optimization
        fit = ExponentialFit(a=args.fit_a, kappa=args.fit_kappa,
                             fit_range=(args.d_min, args.d_max), residual=0.0)
    else:
        fit = fit_exponential_keyrate(fiber, args.beta, v_s=args.vs,
                                      d_range=(args.d_min, args.d_max),
                                      points=args.points)
    table = [{"N": n_val, "d_max_km": max_distance(fit, n_val, args.delta_star)}
             for n_val in args.N]
    inputs = {"command": "maxdist", "beta": args.beta, "v_s": args.vs,
              "eps_ratio": args.eps_ratio, "d_min": args.d_min, "d_max": args.d_max,
              "points": args.points, "N": list(args.N),
              "delta_star": args.delta_star}
    payload = {"manifest": make_manifest(inputs, None).as_dict(),
               "inputs": inputs,
               "fit": {"a": fit.a, "kappa": fit.kappa,
                       "residual": fit.residual,
                       "fit_range_km": list(fit.fit_range)},
               "km_per_decade": 0.5 / fit.kappa,
               "d_max": table}
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = load_scenario(args)
    paths = run_sweep(scenario, args.out)
    for path in paths:
        print(path)
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    scenario = load_scenario(args)
    if args.trials is not None:
        scenario = {**scenario, "trials": args.trials}
    if args.seed is not None:
        scenario = {**scenario, "seed": args.seed}
    path, rows = run_montecarlo(scenario, args.out, threads=args.threads)
    worst_s = max(row.rel_err_s for row in rows)
    worst_sigma = max(row.rel_err_sigma for row in rows)
    print(path)
    print(f"rows={len(rows)} max_rel_err_s={worst_s:.4f} "
          f"max_rel_err_sigma={worst_sigma:.4f}")
    return EXIT_OK


def cmd_presets(args) -> int:
    for name in preset_names():
        description = load_preset(name).get("description", "")
        print(f"{name}: {description}")
    return EXIT_OK


# ------------------------------------------------------------------
# argument plumbing
# ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 1 for bad input; argparse's own
    # default is 2, which we keep for the insecure verdict instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Bad command line; carries the message for the top-level handler."""


def _add_channel_flags(sub) -> None:
    where = sub.add_mutually_exclusive_group(required=False)
    where.add_argument("--T", type=float, help="channel transmittance")
    where.add_argument("--d", type=float, help="fiber length in km (0.2 dB/km)")
    noise = sub.add_mutually_exclusive_group(required=False)
    noise.add_argument("--veps", type=float, help="excess noise in shot-noise units")
    noise.add_argument("--eps-ratio", type=float, default=FiberModel().eps_ratio,
                       help="excess noise per unit transmittance (default %(default)g)")


def _add_protocol_flags(sub) -> None:
    sub.add_argument("--scheme", choices=list(KINDS), default=SINGLE)
    sub.add_argument("--vs", type=float, default=1.0,
                     help="source quadrature variance (1 = coherent)")
    sub.add_argument("--v", type=float, help="single-scheme modulation variance")
    sub.add_argument("--v1", type=float, help="key modulation variance")
    sub.add_argument("--v2", type=float, help="probe modulation variance")
    sub.add_argument("--r", type=float, help="disclosed fraction")
    sub.add_argument("--N", type=_parse_count, default=1_000_000,
                     help="block size (default 1e6)")
    sub.add_argument("--beta", type=float, default=DEFAULT_BETA)
    sub.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    sub.add_argument("--delta-star", type=float, default=DEFAULT_DELTA_STAR)
    sub.add_argument("--out", help="also write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cvqkd",
                     description="finite-size key rates for CV-QKD "
                                 "channel-estimation schemes")
    parser.add_argument("--version", action="version",
                        version=f"cvqkd {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    keyrate = commands.add_parser("keyrate",
                                  help="one key-rate report (optimizes any "
                                       "modulation flags left unset)")
    _add_channel_flags(keyrate)
    _add_protocol_flags(keyrate)
    keyrate.add_argument("--ideal-bounds", action="store_true",
                         help="bypass estimation: true parameters, no "
                              "finite-size correction")
    keyrate.add_argument("--corner-search", action="store_true",
                         help="check all four confidence-box corners")
    keyrate.set_defaults(func=cmd_keyrate)

    optimize = commands.add_parser("optimize",
                                   help="maximise the key rate over the "
                                        "scheme's free parameters")
    _add_channel_flags(optimize)
    _add_protocol_flags(optimize)
    optimize.set_defaults(func=cmd_optimize)

    sweep = commands.add_parser("sweep", help="run a sweep scenario to CSV")
    sweep.add_argument("--preset", help="built-in scenario name")
    sweep.add_argument("--scenario", help="scenario JSON file")
    sweep.add_argument("--out", default=".", help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    montecarlo = commands.add_parser("montecarlo",
                                     help="validate variance models by "
                                          "simulation, write CSV")
    montecarlo.add_argument("--preset", help="built-in scenario name")
    montecarlo.add_argument("--scenario", help="scenario JSON file")
    montecarlo.add_argument("--trials", type=int,
                            help="override the scenario trial count")
    montecarlo.add_argument("--seed", type=int,
                            help="override the scenario seed")
    montecarlo.add_argument("--threads", type=int,
                            help="worker threads (default CVQKD_THREADS "
                                 "or all usable cores)")
    montecarlo.add_argument("--out", default=".", help="output directory")
    montecarlo.set_defaults(func=cmd_montecarlo)

    maxdist = commands.add_parser("maxdist",
                                  help="fitted distance bound per block size")
    maxdist.add_argument("--N", type=float, nargs="+",
                         default=[1e6, 1e8, 1e10])
    maxdist.add_argument("--beta", type=float, default=DEFAULT_BETA)
    maxdist.add_argument("--vs", type=float, default=None,
                         help="source variance (default: strong-squeezing limit)")
    maxdist.add_argument("--eps-ratio", type=float, default=FiberModel().eps_ratio)
    maxdist.add_argument("--d-min", type=float, default=30.0)
    maxdist.add_argument("--d-max", type=float, default=150.0)
    maxdist.add_argument("--points", type=int, default=13)
    maxdist.add_argument("--delta-star", type=float, default=DEFAULT_DELTA_STAR)
    maxdist.add_argument("--fit-a", type=float, default=None,
                         help="inject a synthetic fit prefactor (with --fit-kappa)")
    maxdist.add_argument("--fit-kappa", type=float, default=None,
                         help="inject a synthetic decay constant (with --fit-a)")
    maxdist.add_argument("--out", help="also write the JSON report here")
    maxdist.set_defaults(func=cmd_maxdist)

    presets = commands.add_parser("presets", help="list built-in scenarios")
    presets.set_defaults(func=cmd_presets)
    return parser


def main_entry(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main_entry())
