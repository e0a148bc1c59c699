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
shaped like the ones under ``presets/``. Keys marked * are required, "="
gives a default, and the others are optional:

    a sweep       command*=sweep, name=sweep, description, seed, fiber, sweep*,
                  N, channel, beta=0.95, delta=1e-10, delta_star=1e-10, schemes*
    a montecarlo  command*=montecarlo, name=montecarlo, description, seed*,
                  fiber, t_grid*, template*, trials*, schemes=all three kinds
    fiber         attenuation_db_per_km=0.2, eps_ratio=0.01
    sweep (axis)  variable* (d, T or N), min*, max*, points*, spacing=linear|log
    t_grid        as the axis, without variable;  channel: T*, v_eps=eps_ratio*T
    template      N*, r*, v_s=1, v*, v1*, v2*;  a schemes entry: kind*, v_s=1

A d or T axis needs N and refuses a channel, an N axis the reverse.
Numbers must be JSON numbers, not strings or bools, and N, points, trials
and seed whole ones. Any other key, at any level, is rejected by name.

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
import math
import operator
import os
import sys
import time
from dataclasses import asdict
from importlib import resources

from . import __version__, numeric
from .model import (SINGLE, MODIFIED, KINDS, DEFAULT_BETA, DEFAULT_DELTA,
                    DEFAULT_DELTA_STAR, ChannelParams, SourceParams, Protocol,
                    ProtocolParams, FiberModel, channel_at_distance, _require)
from .estimation import expected_bounds, ideal_bounds
from .keyrate import finite_key_rate, theoretical_key_rate_limit
from .montecarlo import _whole, validate_variance_models
from .optimizer import (FIT_POINTS, FIT_WINDOW_KM, FREE, LEGACY, OptimizationProblem,
                        optimize_each, optimize_key_rate, fit_exponential_keyrate,
                        max_distance)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INSECURE = 2

_SWEEP_COLUMNS = ("axis_value", "K", "K_inf", "I_AB", "chi", "Delta",
                  "T_low", "Veps_up", "V_opt", "r_opt", "K_th", "K_legacy")
_MC_COLUMNS = ("scheme", "T", "samples", "s_analytic", "s_empirical",
               "rel_err_s", "sigma_analytic", "sigma_empirical",
               "rel_err_sigma", "veps_th")

# ------------------------------------------------------------------
# manifest and rendering
# ------------------------------------------------------------------

def scenario_digest(scenario: dict) -> str:
    """Short content digest, invariant under key reordering."""
    canonical = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def make_manifest(scenario: dict, seed: int | None) -> dict:
    """Provenance stamp for one tool invocation."""
    return {"tool_version": __version__, "scenario_digest": scenario_digest(scenario),
            "seed": seed, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return "%.12g" % float(value)


def _write_csv(path: str, manifest: dict, columns, rows) -> None:
    # no timestamp here: rerunning a scenario must reproduce files exactly
    seed = "none" if manifest["seed"] is None else manifest["seed"]
    with open(path, "w", newline="\n") as handle:
        handle.write(f"# cvqkd {manifest['tool_version']} "
                     f"scenario={manifest['scenario_digest']} seed={seed}\n")
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(cell) for cell in row) + "\n")


# ------------------------------------------------------------------
# scenario handling
# ------------------------------------------------------------------

_PRESETS = resources.files("cvqkd") / "presets"


def preset_names() -> list[str]:
    return sorted(entry.name[:-5] for entry in _PRESETS.iterdir()
                  if entry.name.endswith(".json"))


def load_preset(name: str) -> dict:
    entry = _PRESETS / f"{name}.json"
    _require(entry.is_file(), f"unknown preset {name!r}; try 'cvqkd presets'")
    return json.loads(entry.read_text())


def load_scenario(args) -> dict:
    """The scenario of ``--scenario FILE`` or ``--preset NAME``; the
    parser requires exactly one of the two."""
    if args.scenario is None:
        return load_preset(args.preset)
    with open(args.scenario) as handle:
        scenario = json.load(handle)
    _require(isinstance(scenario, dict), "a scenario must be a JSON object")
    return scenario


def _check(test, what: str, convert=lambda x: x):
    """A converter: ``convert(x)`` if ``test(x)``, else TypeError(what)."""
    def converter(x):
        if not test(x):
            raise TypeError(what)
        return convert(x)
    return converter


def _one_of(*choices):
    return _check(lambda x: x in choices, " or ".join(map(repr, choices)))


def _object(schema: dict, where: str, build=dict):
    return lambda spec: build(**_read(spec, schema, where))


# a JSON number: a bool (an int subclass to Python) or a string is refused
_number = _check(lambda x: type(x) in (int, float), "a number", float)
_count = _check(lambda x: type(x) is int or type(x) is float and x.is_integer(),
                "a whole number", int)
_text = _check(lambda x: isinstance(x, str), "a string")
_schemes = _check(lambda x: isinstance(x, list) and len(x) > 0,
                  "a list of at least one scheme")
_kinds = _check(lambda x: isinstance(x, list) and len(x) > 0 and all(k in KINDS for k in x),
                "a list of at least one of " + " or ".join(map(repr, KINDS)))

# One table per scenario object: key -> (converter, default or _REQUIRED,
# label). Defaults are converted values; README "Scenario files" lists them.
_REQUIRED = object()
_T_GRID = {"min": (_number, _REQUIRED, "lower end"),
           "max": (_number, _REQUIRED, "upper end"),
           "points": (_count, _REQUIRED, "point count"),
           "spacing": (_one_of("linear", "log"), "linear", "spacing")}
_AXIS = {"variable": (_one_of("d", "T", "N"), _REQUIRED, "swept variable"), **_T_GRID}
_FIBER = {"attenuation_db_per_km": (_number, FiberModel.attenuation_db_per_km,
                                    "attenuation"),
          "eps_ratio": (_number, FiberModel.eps_ratio, "excess-noise ratio")}
_CHANNEL = {"T": (_number, _REQUIRED, "transmittance"),
            "v_eps": (_number, None, "excess noise")}  # None: eps_ratio * T
_SCHEME = {"kind": (_one_of(*KINDS), _REQUIRED, "scheme kind"),
           "v_s": (_number, SourceParams.v_s, "source variance")}
_TEMPLATE = {"N": (_count, _REQUIRED, "block size"),
             "r": (_number, _REQUIRED, "disclosed fraction"),
             "v_s": (_number, SourceParams.v_s, "source variance"),
             "v": (_number, _REQUIRED, "single-scheme variance"),
             "v1": (_number, _REQUIRED, "key variance"),
             "v2": (_number, _REQUIRED, "probe variance")}
_COMMON = {"description": (_text, None, "description"),
           "fiber": (_object(_FIBER, "'fiber'", FiberModel), FiberModel(), "fiber")}
# "command" leads, so that a scenario of the other kind is refused by it
_SWEEP = {"command": (_one_of("sweep"), _REQUIRED, "command"), **_COMMON,
          "name": (_text, "sweep", "name"),
          "seed": (_count, None, "seed"),
          "sweep": (_object(_AXIS, "'sweep'"), _REQUIRED, "axis"),
          "channel": (_object(_CHANNEL, "'channel'"), None, "fixed channel"),
          "N": (_count, None, "block size"),
          "beta": (_number, DEFAULT_BETA, "reconciliation efficiency"),
          "delta": (_number, DEFAULT_DELTA, "confidence budget"),
          "delta_star": (_number, DEFAULT_DELTA_STAR, "penalty budget"),
          "schemes": (lambda x: list(map(_object(_SCHEME, "a 'schemes' entry"), _schemes(x))),
                      _REQUIRED, "scheme list")}
_MONTECARLO = {"command": (_one_of("montecarlo"), _REQUIRED, "command"), **_COMMON,
               "name": (_text, "montecarlo", "name"),
               "seed": (_count, _REQUIRED, "seed"),
               "t_grid": (_object(_T_GRID, "'t_grid'"), _REQUIRED, "grid"),
               "template": (_object(_TEMPLATE, "'template'"), _REQUIRED, "template"),
               "trials": (_count, _REQUIRED, "trial count"),
               "schemes": (_kinds, KINDS, "scheme list")}


def _read(spec, schema: dict, where: str) -> dict:
    """The converted values of the object ``spec`` under ``schema``, with
    its defaults filled in; every refusal names the key and ``where``."""
    _require(isinstance(spec, dict), f"{where} must be a JSON object")
    values = {}
    for key, (convert, default, label) in schema.items():
        _require(key in spec or default is not _REQUIRED,
                 f"{where} needs the {label} {key!r}")
        try:
            values[key] = convert(spec[key]) if key in spec else default
        except TypeError as exc:
            raise ValueError(f"the {label} {key!r} in {where} must be {exc}, "
                             f"got {spec[key]!r}") from None
    for key in spec:
        _require(key in schema, f"unknown key {key!r} in {where}; expected "
                                f"{', '.join(map(repr, schema))}")
    return values


def _axis_values(axis: dict, where: str) -> list[float]:
    """The points of the axis object ``where`` (``'sweep'`` or ``'t_grid'``)."""
    _require(axis["points"] >= 2,
             f"{where} needs at least 2 points, got points={axis['points']!r}")
    _require(axis["max"] > axis["min"] > 0.0,
             f"{where} must run from min > 0 up to max > min, "
             f"got min={axis['min']!r}, max={axis['max']!r}")
    if axis["spacing"] != "log":
        return numeric.linspace(axis["min"], axis["max"], axis["points"])
    # numpy's geomspace stays: its vectorised power and log round
    # differently from math's, and a math geomspace differed from it in
    # 90,765 of 100,000 seeded draws on an AVX-512 machine; these values
    # reach the published sweep CSVs bit for bit
    import numpy as np

    return np.geomspace(axis["min"], axis["max"], axis["points"]).tolist()


def _sweep_points(s: dict) -> list[tuple]:
    """``(axis value, channel, block size)`` at each point of a read sweep."""
    fiber, variable = s["fiber"], s["sweep"]["variable"]
    values = _axis_values(s["sweep"], "'sweep'")
    if variable == "N":
        _require(s["channel"] is not None, "an N-axis sweep needs a fixed 'channel' entry")
        _require(s["N"] is None, "an N-axis sweep takes its block sizes from the axis; "
                                 "remove the block size 'N'")
        T, v_eps = s["channel"]["T"], s["channel"]["v_eps"]
        channel = ChannelParams(T, fiber.eps_ratio * T if v_eps is None else v_eps)
        return [(x, channel, int(round(float(x)))) for x in values]
    _require(s["N"] is not None, "a sweep over d or T needs the block size 'N'")
    _require(s["channel"] is None, "a sweep over d or T takes its channel from the axis; "
                                   "remove the fixed 'channel' entry")
    if variable == "d":
        return [(x, channel_at_distance(float(x), fiber), s["N"]) for x in values]
    return [(x, ChannelParams(float(x), fiber.eps_ratio * float(x)), s["N"])
            for x in values]


# ------------------------------------------------------------------
# sweep command
# ------------------------------------------------------------------

def run_sweep(scenario: dict, out_dir: str) -> list[str]:
    """One CSV per scheme entry; returns the paths written.

    Every row is computed before any file is written, so a sweep writes
    all of its CSVs or none."""
    s = _read(scenario, _SWEEP, "a sweep scenario")
    beta, delta, delta_star = s["beta"], s["delta"], s["delta_star"]
    # the two benchmark columns depend on the point, not on the scheme; a
    # bad budget is refused here, before any optimization
    points = []
    for value, channel, n_block in _sweep_points(s):
        legacy = ProtocolParams(SourceParams(v_s=1.0), LEGACY, n_block, beta,
                                delta, delta_star)
        points.append((value, channel, n_block,
                       theoretical_key_rate_limit(channel, n_block, beta, delta_star),
                       finite_key_rate(legacy, expected_bounds(channel, legacy)).K))
    # v and r are searched; 0.0 only holds their place
    problems = [OptimizationProblem(channel, ProtocolParams(
                    SourceParams(entry["v_s"]), Protocol(entry["kind"], v=0.0),
                    n_block, beta, delta, delta_star))
                for entry in s["schemes"] for _, channel, n_block, _, _ in points]
    results = iter(optimize_each(problems))
    manifest = make_manifest(scenario, s["seed"])

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for entry in s["schemes"]:
        rows = []
        # each entry takes the next len(points) results
        for (value, _, _, k_th, k_legacy), result in zip(points, results):
            report = result.report
            rows.append((value, report.K, report.K_inf, report.I_AB,
                         report.chi_BE, report.Delta_n, report.T_low,
                         report.veps_up, result.point["v"],
                         result.point.get("r", 0.0), k_th, k_legacy))
        path = os.path.join(out_dir, f"{s['name']}_{entry['kind']}_vs{entry['v_s']:g}.csv")
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
        return Protocol(SINGLE, tpl["v"], r=tpl["r"])
    return Protocol(kind, tpl["v1"], tpl["v2"], tpl["r"] if kind == MODIFIED else 0.0)


def run_montecarlo(scenario: dict, out_dir: str,
                   threads: int | None = None) -> tuple[str, list]:
    """Variance-model validation table; returns (path, rows)."""
    s = _read(scenario, _MONTECARLO, "a montecarlo scenario")
    _require(threads is None or _whole(threads, 1),
             f"threads (--threads) must be a whole number >= 1, got {threads!r}")
    tpl = s["template"]
    rows = validate_variance_models(
        _axis_values(s["t_grid"], "'t_grid'"),
        [_mc_protocol(kind, tpl) for kind in s["schemes"]],
        SourceParams(tpl["v_s"]), tpl["N"], s["trials"], s["seed"],
        fiber=s["fiber"])
    manifest = make_manifest(scenario, s["seed"])
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{s['name']}.csv")
    # the columns are the row's fields; astuple would deep-copy every cell
    _write_csv(path, manifest, _MC_COLUMNS, map(operator.attrgetter(*_MC_COLUMNS), rows))
    return path, rows


# ------------------------------------------------------------------
# single-point commands
# ------------------------------------------------------------------

def _whole_flag(what: str, least: float = -math.inf):
    """An argparse type for a count flag: a whole number of at least
    ``least`` in any float spelling (``1e3``), else an error that names
    ``what``; argparse prefixes the flag."""
    def parse(text: str) -> int:
        try:
            value = float(text)
        except ValueError:
            value = math.nan  # refused below, under the flag's own name
        if not (math.isfinite(value) and value >= least and value.is_integer()):
            # argparse shows this error's message, but not a ValueError's
            raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
        return int(value)
    return parse


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


def _pinned(args) -> tuple[dict, ProtocolParams]:
    """The :class:`Protocol` fields the flags pin, and the query's
    parameters with them; the other scheme's key-variance flag is
    refused, not ignored."""
    source = SourceParams(v_s=args.vs)
    key = _key_name(args.scheme)
    other, owner = ("v1", "double/modified") if key == "v" else ("v", "single")
    _require(getattr(args, other) is None,
             f"--{other} is the {owner}-scheme variance; the {args.scheme} "
             f"scheme takes --{key}")
    _require(args.scheme != SINGLE or args.v2 is None,
             "--v2 is the double/modified-scheme probe variance; the single "
             "scheme sends no probe")
    pinned = {"v": getattr(args, key), "v2": args.v2, "r": args.r}
    pinned = {name: x for name, x in pinned.items() if x is not None}
    # with --ideal-bounds estimation is bypassed, so r defaults to 0 and
    # only the modulation variance itself must be pinned
    _require(not getattr(args, "ideal_bounds", False) or "v" in pinned,
             "--ideal-bounds needs --v (single) or --v1 (double/modified)")
    # a free key variance is the optimizer's to choose; 0.0 holds its place
    params = ProtocolParams(source, Protocol(args.scheme, **{"v": 0.0, **pinned}),
                            args.N, args.beta, args.delta, args.delta_star)
    return pinned, params


def _direct_report(args, channel: ChannelParams, params: ProtocolParams):
    """Evaluate the key rate at fully specified protocol parameters."""
    bounds = ideal_bounds(channel) if args.ideal_bounds else expected_bounds(channel, params)
    return finite_key_rate(params, bounds, corner_search=args.corner_search,
                           with_correction=not args.ideal_bounds)


def _optimize(channel: ChannelParams, params: ProtocolParams, pinned: dict) -> tuple:
    """Optimize what the flags leave free (nothing, if they pin all);
    returns the result and its point under the CLI's key names."""
    kind = params.protocol.kind
    free = tuple(name for name in FREE[kind] if name not in pinned)
    result = optimize_key_rate(OptimizationProblem(channel, params, free=free))
    point = {(_key_name(kind) if name == "v" else name): x
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


def _emit_json(inputs: dict, out: str | None, **sections) -> None:
    payload = {"manifest": make_manifest(inputs, None), "inputs": inputs,
               **sections}
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    print(text)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")


def cmd_keyrate(args) -> int:
    channel = _channel_from_args(args)
    inputs = _inputs_dict(args, channel)
    pinned, params = _pinned(args)

    sections = {}
    if args.ideal_bounds or all(name in pinned for name in FREE[args.scheme]):
        report = _direct_report(args, channel, params)
    else:
        result, point = _optimize(channel, params, pinned)
        report = result.report
        sections["optimum"] = {"point": point, "status": result.status,
                               "evaluations": result.evaluations}
    _emit_json(inputs, args.out, report=asdict(report), **sections)
    return EXIT_OK if report.K > 0.0 else EXIT_INSECURE


def cmd_optimize(args) -> int:
    channel = _channel_from_args(args)
    pinned, params = _pinned(args)
    result, point = _optimize(channel, params, pinned)
    _emit_json(_inputs_dict(args, channel), args.out,
               optimum={"point": point, "K": result.K, "status": result.status,
                        "evaluations": result.evaluations},
               report=asdict(result.report))
    return EXIT_OK if result.status == "ok" else EXIT_INSECURE


def cmd_maxdist(args) -> int:
    fiber = FiberModel(eps_ratio=args.eps_ratio)
    fit = fit_exponential_keyrate(fiber, args.beta, v_s=args.vs,
                                  d_range=(args.d_min, args.d_max), points=args.points)
    table = [{"N": n_val, "d_max_km": max_distance(fit, n_val, args.delta_star)}
             for n_val in args.N]
    inputs = {"command": "maxdist", "beta": args.beta, "v_s": args.vs,
              "eps_ratio": args.eps_ratio, "d_min": args.d_min, "d_max": args.d_max,
              "points": args.points, "N": list(args.N),
              "delta_star": args.delta_star}
    _emit_json(inputs, args.out,
               fit={"a": fit.a, "kappa": fit.kappa, "residual": fit.residual,
                    "fit_range_km": list(fit.fit_range)},
               km_per_decade=0.5 / fit.kappa, d_max=table)
    return EXIT_OK


def cmd_sweep(args) -> int:
    for path in run_sweep(load_scenario(args), args.out):
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
    where.add_argument("--d", type=float, help="fiber length in km "
                       f"({FiberModel.attenuation_db_per_km:g} dB/km)")
    noise = sub.add_mutually_exclusive_group(required=False)
    noise.add_argument("--veps", type=float, help="excess noise in shot-noise units")
    noise.add_argument("--eps-ratio", type=float, default=FiberModel().eps_ratio,
                       help="excess noise per unit transmittance (default %(default)g)")


def _add_protocol_flags(sub) -> None:
    sub.add_argument("--scheme", choices=list(KINDS), default=SINGLE)
    sub.add_argument("--vs", type=float, default=SourceParams.v_s,
                     help="source quadrature variance (1 = coherent)")
    sub.add_argument("--v", type=float, help="single-scheme modulation variance")
    sub.add_argument("--v1", type=float, help="key modulation variance")
    sub.add_argument("--v2", type=float, help="probe modulation variance")
    sub.add_argument("--r", type=float, help="disclosed fraction")
    sub.add_argument("--N", type=_whole_flag("block size must be a count >= 2", 2),
                     default=1_000_000,
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
                         help="rate all four corners of the confidence box "
                              "and keep the lowest")
    keyrate.set_defaults(func=cmd_keyrate)

    optimize = commands.add_parser("optimize",
                                   help="maximise the key rate over the "
                                        "scheme's free parameters")
    _add_channel_flags(optimize)
    _add_protocol_flags(optimize)
    optimize.set_defaults(func=cmd_optimize)

    sweep = commands.add_parser("sweep", help="run a sweep scenario to CSV")
    scenario = sweep.add_mutually_exclusive_group(required=True)
    scenario.add_argument("--preset", help="built-in scenario name")
    scenario.add_argument("--scenario", help="scenario JSON file")
    sweep.add_argument("--out", default=".", help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    montecarlo = commands.add_parser("montecarlo",
                                     help="validate variance models by "
                                          "simulation, write CSV")
    scenario = montecarlo.add_mutually_exclusive_group(required=True)
    scenario.add_argument("--preset", help="built-in scenario name")
    scenario.add_argument("--scenario", help="scenario JSON file")
    montecarlo.add_argument("--trials", help="override the scenario trial count",
                            type=_whole_flag("trial count must be a whole number"))
    montecarlo.add_argument("--seed", help="override the scenario seed",
                            type=_whole_flag("seed must be a whole number"))
    montecarlo.add_argument("--threads", type=int,
                            help="accepted for compatibility: a whole number "
                                 ">= 1 that changes neither results nor speed")
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
    maxdist.add_argument("--d-min", type=float, default=FIT_WINDOW_KM[0])
    maxdist.add_argument("--d-max", type=float, default=FIT_WINDOW_KM[1])
    maxdist.add_argument("--points", type=_whole_flag("point count must be a whole number"),
                         default=FIT_POINTS)
    maxdist.add_argument("--delta-star", type=float, default=DEFAULT_DELTA_STAR)
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
    except (SystemExit2, ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main_entry())
