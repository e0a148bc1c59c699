"""Output checks for every workload, against :mod:`oracle`.

Each check takes what a user of ``cvqkd`` would see (CSV text, a JSON
report, an exit code) and returns one entry per expected operation:
``None`` when the operation's output is right, otherwise the reason it
was rejected. A missing row is rejected like a wrong one.
"""

from __future__ import annotations

import json
import math

import oracle

# Oracle agreement: the library and the oracle differ by at most ~2e-13
# absolute on every column; CSV cells carry 12 significant digits.
ABS_TOL = 2e-12
REL_TOL = 1e-9

# A ratio recomputed from two cells of 12 significant digits carries up to
# ~1e-11 of rounding.
CELL_RATIO_TOL = 2e-11

# Monte Carlo spreads: the sample standard deviation of t trials scatters
# by 1/sqrt(2(t-1)) of itself; 5 of those plus the leading-order model's
# own error keeps a correct row inside with probability ~1 - 1e-6. Below
# MC_MIN_TRIALS that normal approximation fails and spreads go unchecked.
MC_SIGMAS = 5.0
MC_MODEL_TOL = 0.05
MC_MIN_TRIALS = 20
FLOOR_TOL = 0.15   # double scheme at T = 0.01 against the statistical floor

_REPORT_FIELDS = ("K", "K_inf", "I_AB", "chi_BE", "Delta_n", "T_low",
                  "veps_up")
_CSV_FIELDS = {"K": "K", "K_inf": "K_inf", "I_AB": "I_AB", "chi": "chi_BE",
               "Delta": "Delta_n", "T_low": "T_low", "Veps_up": "veps_up"}


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= ABS_TOL + rel * abs(b)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a cvqkd CSV (manifest line skipped)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def axis_values(axis: dict) -> list[float]:
    lo, hi, n = float(axis["min"]), float(axis["max"]), int(axis["points"])
    if axis.get("spacing", "linear") == "log":
        return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _sweep_point(scenario: dict, value: float) -> tuple[float, float, int]:
    """(T, v_eps, N) of one sweep row."""
    fiber = scenario.get("fiber", {})
    ratio = float(fiber.get("eps_ratio", 0.01))
    variable = scenario["sweep"]["variable"]
    if variable == "d":
        T = oracle.fiber_T(value, float(fiber.get("attenuation_db_per_km", 0.2)))
    elif variable == "T":
        T = value
    else:
        channel = scenario["channel"]
        T = float(channel["T"])
        veps = float(channel.get("v_eps", ratio * T))
        return T, veps, int(round(value))
    return T, ratio * T, int(round(float(scenario["N"])))


def sweep_csv_name(scenario: dict, spec: dict) -> str:
    return f"{scenario.get('name', 'sweep')}_{spec['kind']}_vs{float(spec.get('v_s', 1.0)):g}.csv"


def check_sweep_csv(text: str, scenario: dict, spec: dict) -> list:
    """One verdict per axis point of ``scenario`` for the scheme ``spec``."""
    header, rows = parse_csv(text)
    expected = axis_values(scenario["sweep"])
    verdicts: list = [None] * len(expected)
    if header != ["axis_value", "K", "K_inf", "I_AB", "chi", "Delta", "T_low",
                  "Veps_up", "V_opt", "r_opt", "K_th", "K_legacy"]:
        return ["bad header"] * len(expected)
    kind, v_s = spec["kind"], float(spec.get("v_s", 1.0))
    beta = float(scenario.get("beta", 0.95))
    delta = float(scenario.get("delta", 1e-10))
    delta_star = float(scenario.get("delta_star", 1e-10))
    ks: list = []
    for i, want in enumerate(expected):
        if i >= len(rows):
            verdicts[i] = "row missing"
            ks.append(None)
            continue
        try:
            row = dict(zip(header, (float(cell) for cell in rows[i])))
        except ValueError:
            verdicts[i] = "unparsable row"
            ks.append(None)
            continue
        ks.append(row["K"])
        verdicts[i] = _check_sweep_row(row, want, scenario, kind, v_s, beta,
                                       delta, delta_star)
    if len(rows) > len(expected):
        verdicts[-1] = verdicts[-1] or f"{len(rows) - len(expected)} extra rows"
    # along the axis: less key with distance or transmittance loss, more
    # key with block size
    rising = scenario["sweep"]["variable"] == "N"
    for i in range(1, len(ks)):
        if ks[i] is None or ks[i - 1] is None:
            continue
        step = ks[i] - ks[i - 1]
        if (step < -ABS_TOL) if rising else (step > ABS_TOL):
            verdicts[i] = verdicts[i] or (
                f"K not {'non-decreasing' if rising else 'non-increasing'} "
                f"along the axis at row {i}")
    return verdicts


def _check_sweep_row(row, want, scenario, kind, v_s, beta, delta, delta_star):
    if not close(row["axis_value"], want, 1e-9):
        return f"axis value {row['axis_value']!r}, expected {want!r}"
    T, veps, N = _sweep_point(scenario, want)
    point = {"r": row["r_opt"]}
    if kind == "single":
        point["v"] = row["V_opt"]
    else:
        point["v1"] = row["V_opt"]
        if kind == "double":
            point["r"] = 0.0
    ref = oracle.key_rate(kind, T, veps, v_s, N, beta, delta, delta_star,
                          **point)
    for column, key in _CSV_FIELDS.items():
        if not close(row[column], ref[key]):
            return f"{column}={row[column]!r}, oracle {ref[key]!r}"
    legacy = oracle.legacy_key_rate(T, veps, N, beta, delta, delta_star)
    if not close(row["K_legacy"], legacy):
        return f"K_legacy={row['K_legacy']!r}, oracle {legacy!r}"
    if row["K"] > 0.0 and row["K"] > row["K_th"] + ABS_TOL:
        return f"K={row['K']!r} exceeds K_th={row['K_th']!r}"
    if kind == "single" and row["K"] < row["K_legacy"] - ABS_TOL:
        return f"K={row['K']!r} below the legacy point {row['K_legacy']!r}"
    return None


# --------------------------------------------------------------------------
# Monte Carlo


def spread_tolerance(trials: int) -> float:
    """Largest accepted |empirical / analytic - 1| of a spread."""
    return MC_MODEL_TOL + MC_SIGMAS / math.sqrt(2.0 * (trials - 1))


def check_mc_csv(text: str, scenario: dict, trials: int) -> list:
    """One verdict per (scheme, T) row of a variance-validation table."""
    header, rows = parse_csv(text)
    tpl = scenario["template"]
    ratio = float(scenario.get("fiber", {}).get("eps_ratio", 0.01))
    N = int(round(float(tpl["N"])))
    r, v_s = float(tpl["r"]), float(tpl.get("v_s", 1.0))
    grid = axis_values(scenario["t_grid"])
    schemes = list(scenario.get("schemes", ["single", "double", "modified"]))
    expected = [(kind, T) for kind in schemes for T in grid]
    if header != ["scheme", "T", "samples", "s_analytic", "s_empirical",
                  "rel_err_s", "sigma_analytic", "sigma_empirical",
                  "rel_err_sigma", "veps_th"]:
        return ["bad header"] * len(expected)
    tol = spread_tolerance(trials)
    verdicts: list = [None] * len(expected)
    table = {}
    for i, (kind, T) in enumerate(expected):
        if i >= len(rows):
            verdicts[i] = "row missing"
            continue
        cells = rows[i]
        try:
            row = {key: (cell if key == "scheme" else float(cell))
                   for key, cell in zip(header, cells)}
        except ValueError:
            verdicts[i] = "unparsable row"
            continue
        table[(kind, i % len(grid))] = (i, row)
        if row["scheme"] != kind or not close(row["T"], T, 1e-9):
            verdicts[i] = f"row is {row['scheme']} at T={row['T']!r}, expected {kind} at {T!r}"
            continue
        veps = ratio * T
        samples = round(r * N) if kind == "single" else N
        sig2, s2 = oracle.variances(kind, T, veps, v_s, N, r if kind != "double" else 0.0,
                                    v=float(tpl["v"]), v1=float(tpl["v1"]),
                                    v2=float(tpl["v2"]))
        ref = {"samples": samples, "s_analytic": math.sqrt(s2),
               "sigma_analytic": math.sqrt(sig2),
               "veps_th": oracle.noise_floor(T, veps, N)}
        bad = [f"{key}={row[key]!r}, oracle {want!r}" for key, want in ref.items()
               if not close(row[key], want)]
        for emp, ana, rel in (("s_empirical", "s_analytic", "rel_err_s"),
                              ("sigma_empirical", "sigma_analytic", "rel_err_sigma")):
            if abs(row[rel] - abs(row[emp] - row[ana]) / row[ana]) > CELL_RATIO_TOL:
                bad.append(f"{rel}={row[rel]!r} does not match its columns")
            if trials >= MC_MIN_TRIALS and abs(row[emp] / ref[ana] - 1.0) > tol:
                bad.append(f"{emp}={row[emp]!r} is off the model {ref[ana]!r} "
                           f"by more than {tol:.3f} at {trials} trials")
        verdicts[i] = "; ".join(bad) or None
    # combining the arms never loses to either pure scheme, at every T
    if {"single", "double", "modified"} <= set(schemes):
        for t_idx in range(len(grid)):
            parts = [table.get((kind, t_idx)) for kind in ("single", "double", "modified")]
            if None in parts:
                continue
            (_, single), (_, double), (i_mod, modified) = parts
            if modified["s_analytic"] > min(single["s_analytic"],
                                            double["s_analytic"]) * (1 + 1e-12):
                verdicts[i_mod] = verdicts[i_mod] or (
                    "modified s above min(single, double)")
    # deep loss: the double scheme sits on the statistical floor
    if "double" in schemes and table.get(("double", 0)) is not None:
        i_dbl, row = table[("double", 0)]
        if abs(row["s_analytic"] / row["veps_th"] - 1.0) > FLOOR_TOL:
            verdicts[i_dbl] = verdicts[i_dbl] or "double s_analytic off the floor"
        elif (trials >= MC_MIN_TRIALS
              and abs(row["s_empirical"] / row["veps_th"] - 1.0) > FLOOR_TOL + tol):
            verdicts[i_dbl] = verdicts[i_dbl] or "double s_empirical off the floor"
    return verdicts


# --------------------------------------------------------------------------
# cli queries


def _flag(argv: list[str], name: str, default=None):
    if name not in argv:
        return default
    return argv[argv.index(name) + 1]


def _report_inputs(payload: dict) -> dict:
    """Keyword arguments of :func:`oracle.key_rate` for a JSON report."""
    inputs = payload["inputs"]
    point = dict((payload.get("optimum") or {}).get("point") or {})
    kind = inputs["scheme"]

    def pick(name, default=None):
        if name in point:
            return float(point[name])
        value = inputs.get(name)
        return default if value is None else float(value)

    args = {"r": 0.0 if kind == "double" else pick("r", 0.0)}
    if kind == "single":
        args["v"] = pick("v")
    else:
        args["v1"] = pick("v1")
        args["v2"] = pick("v2", oracle.DEFAULT_V2)
    return args


def check_report(payload: dict) -> str | None:
    """Recompute a keyrate/optimize report from its own inputs."""
    inputs = payload["inputs"]
    ref = oracle.key_rate(inputs["scheme"], float(inputs["T"]),
                          float(inputs["v_eps"]), float(inputs["v_s"]),
                          int(inputs["N"]), float(inputs["beta"]),
                          float(inputs["delta"]), float(inputs["delta_star"]),
                          corner_search=bool(inputs.get("corner_search")),
                          **_report_inputs(payload))
    report = payload["report"]
    for key in _REPORT_FIELDS:
        if not close(float(report[key]), ref[key]):
            return f"{key}={report[key]!r}, oracle {ref[key]!r}"
    return None


def _max_rate_squeezed(T: float, veps: float, beta: float) -> float:
    """Asymptotic rate maximised over the modulation variance, strong
    squeezing limit: grid over log v, then golden refinement."""
    def f(logv):
        return oracle.k_inf(T, veps, oracle.SQUEEZING_LIMIT_VS,
                            math.exp(logv), beta)[0]

    lo, hi = math.log(1e-2), math.log(1e2)
    xs = [lo + (hi - lo) * i / 48 for i in range(49)]
    best = max(range(len(xs)), key=lambda i: f(xs[i]))
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, len(xs) - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c, d = b - g * (b - a), a + g * (b - a)
        if f(c) >= f(d):
            b = d
        else:
            a = c
    return max(f(xs[best]), f(0.5 * (a + b)))


def check_maxdist(payload: dict) -> str | None:
    fit, inputs, table = payload["fit"], payload["inputs"], payload["d_max"]
    a, kappa = float(fit["a"]), float(fit["kappa"])
    if not close(float(payload["km_per_decade"]), 0.5 / kappa, 1e-12):
        return "km_per_decade is not 0.5/kappa"
    c = 7.0 * math.sqrt(math.log2(2.0 / float(inputs["delta_star"])))
    if [float(row["N"]) for row in table] != [float(n) for n in inputs["N"]]:
        return "d_max table does not follow the requested block sizes"
    for row in table:
        n_val, d_max = float(row["N"]), float(row["d_max_km"])
        want = (0.5 / kappa) * math.log10(n_val) - math.log10(c / a) / kappa
        if not close(d_max, want):
            return f"d_max={d_max!r} at N={n_val:g}, oracle {want!r}"
    for lo, hi in zip(table, table[1:]):
        decades = math.log10(float(hi["N"]) / float(lo["N"]))
        gain = float(hi["d_max_km"]) - float(lo["d_max_km"])
        if not close(gain, decades * 0.5 / kappa, 1e-9):
            return f"d_max gains {gain!r} km over {decades:g} decades, not {decades}*0.5/kappa"
    # the fitted decay passes through the optimised asymptotic rates
    d_lo, d_hi, points = (float(inputs["d_min"]), float(inputs["d_max"]),
                          int(inputs["points"]))
    if inputs.get("v_s") is None and inputs.get("eps_ratio") is not None:
        beta, ratio = float(inputs["beta"]), float(inputs["eps_ratio"])
        for i in range(points):
            d = d_lo + (d_hi - d_lo) * i / (points - 1)
            T = oracle.fiber_T(d)
            k = _max_rate_squeezed(T, ratio * T, beta)
            dev = abs(math.log10(a) - kappa * d - math.log10(k))
            if dev > float(fit["residual"]) + 1e-6:
                return f"fit misses the optimised rate at {d:g} km by {dev:.3g} decades"
    return None


def check_query(argv: list[str], returncode: int, stdout: str, read,
                presets: dict) -> str | None:
    """Verdict on one CLI query. ``read(path)`` returns the text of a file
    the query read or wrote (None if absent); ``presets`` maps preset
    names to scenarios."""
    command = argv[0]
    if returncode not in (0, 2):
        return f"exit code {returncode}"
    if command in ("keyrate", "optimize", "maxdist"):
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON report"
        if command == "maxdist":
            if returncode != 0:
                return f"maxdist exited {returncode}"
            return check_maxdist(payload)
        K = float(payload["report"]["K"])
        if (returncode == 0) != (K > 0.0):
            return f"exit code {returncode} disagrees with K={K!r}"
        if command == "optimize":
            optimum = payload["optimum"]
            if optimum["K"] != payload["report"]["K"]:
                return "optimum K differs from the report"
            if (optimum["status"] == "ok") != (K > 0.0):
                return f"status {optimum['status']!r} disagrees with K={K!r}"
        return check_report(payload)
    if returncode != 0:
        return f"{command} exited {returncode}"
    out = _flag(argv, "--out")
    if command == "sweep":
        scenario = json.loads(read(_flag(argv, "--scenario")))
        for spec in scenario["schemes"]:
            path = f"{out}/{sweep_csv_name(scenario, spec)}"
            text = read(path)
            if text is None:
                return f"missing {path}"
            bad = [v for v in check_sweep_csv(text, scenario, spec) if v]
            if bad:
                return f"{path}: {bad[0]}"
        return None
    if command == "montecarlo":
        scenario = presets[_flag(argv, "--preset")]
        path = f"{out}/{scenario['name']}.csv"
        text = read(path)
        if text is None:
            return f"missing {path}"
        bad = [v for v in check_mc_csv(text, scenario,
                                       int(_flag(argv, "--trials"))) if v]
        return f"{path}: {bad[0]}" if bad else None
    return f"unknown command {command!r}"
