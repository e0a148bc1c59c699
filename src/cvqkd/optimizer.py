"""Protocol parameter optimization and empirical scaling fits.

The objective is always the planning-mode finite-size key rate: expected
confidence bounds from the analytic variance models, no sampling. That
makes every optimization deterministic, cheap, and exactly reproducible.

It checks types once per problem, when the problem's dataclasses are
built: each evaluation runs the scalar cores behind the public wrappers
on the point's ``(v, v2, r)``, which compare values only and build no
dataclass, with the rate and the refusals of :func:`evaluate_point`, the
public reference that builds the final report.

The search is deliberately simple: a coarse geometric grid over each free
variable's fixed range locates the basin, then cyclic per-coordinate
golden-section refinement polishes the optimum until a sweep gains less
than a fixed relative tolerance. Points where the rate is undefined
(for example a disclosed fraction too small to estimate from) score
negative infinity and are never selected; when no grid point is left,
the error names the commonest reasons.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, replace

from . import numeric
from .estimation import (
    _arms,
    _confidence_box,
    _variance_model,
    confidence_coefficient,
    expected_bounds,
)
from .keyrate import (
    KeyRateReport,
    _finite_key_rate,
    _penalty_log,
    finite_key_rate,
    finite_size_correction,
    optimal_asymptotic_rate,
)
from .model import (
    DEFAULT_BETA,
    DEFAULT_DELTA_STAR,
    DOUBLE,
    MODIFIED,
    SINGLE,
    ChannelParams,
    FiberModel,
    Protocol,
    ProtocolParams,
    _finite,
    _key_samples,
    _require,
    _require_beta,
    channel_at_distance,
)

_GRID_V = 13
_GRID_R = 12

# the scheme's natural knobs: the key variance, and the disclosed fraction
# where the scheme has one
FREE = {SINGLE: ("v", "r"), DOUBLE: ("v",), MODIFIED: ("v", "r")}
# search ranges; r stays below 1 so both subsets remain usable
_BOX = {"v": (0.01, 100.0), "r": (0.0, 0.9)}
# relative tolerance: refinement stops once a sweep gains less than this
# share of the best rate, and a modified optimum this close to r = 0 snaps there
_TOL = 1e-4
# classic single-modulation working point
LEGACY = Protocol(SINGLE, v=1.5, r=0.5)
# distance window (km) and point count of the asymptotic-rate fit
FIT_WINDOW_KM = (30.0, 150.0)
FIT_POINTS = 13


@dataclass(frozen=True)
class OptimizationProblem:
    """Key-rate maximisation over a subset of the protocol parameters.

    ``params`` is the fixed point: the source, block size and budgets, the
    scheme, and the value of every :class:`Protocol` field that is not
    free. ``free`` names the fields to search, drawn from the scheme's
    entry in :data:`FREE`, and defaults to all of that entry; the probe
    variance ``v2`` is never searched.
    """

    channel: ChannelParams
    params: ProtocolParams
    free: tuple[str, ...] | None = None

    def __post_init__(self):
        kind = self.params.protocol.kind
        free = self.free if self.free is not None else FREE[kind]
        for name in free:
            _require(name in FREE[kind],
                     f"{name!r} is not a free variable of the {kind} scheme")
        _require(len(set(free)) == len(free), f"a free variable repeats in {free!r}")
        # the r grid starts at 2/N, which must stay below the box ceiling
        _require("r" not in free or 2.0 / self.params.N < _BOX["r"][1],
                 f"block size N = {self.params.N} is too small to search the "
                 f"disclosed fraction r (at most {_BOX['r'][1]}); pin r")
        object.__setattr__(self, "free", tuple(free))


@dataclass(frozen=True)
class OptimizationResult:
    point: dict
    K: float
    report: KeyRateReport
    status: str          # "ok" or "no_positive_rate"
    evaluations: int
    infeasible: Counter  # evaluations refused by the rate, by reason
    rounds: int          # refinement rounds run
    converged: bool      # the last round gained less than the tolerance


def evaluate_point(problem: OptimizationProblem, point: dict) -> KeyRateReport:
    """Planning-mode finite-size rate at one parameter point: ``point``
    maps :class:`Protocol` fields to values that replace the fixed ones.

    The reference for the optimizer's objective, which computes the same
    ``K`` without building the report's dataclasses."""
    params = replace(problem.params, protocol=replace(problem.params.protocol, **point))
    return finite_key_rate(params, expected_bounds(problem.channel, params))


def _planning_rate(problem: OptimizationProblem):
    """``K`` of :func:`evaluate_point` as a function of ``(v, v2, r)``.

    The problem's fields, z(delta) and log2(2/delta_star) are read once
    here. The returned function runs the scalar cores with every check
    that depends on the point and builds no dataclass. Points lie in the
    search box, where the :class:`Protocol` checks it skips always hold.
    """
    channel, params = problem.channel, problem.params
    T, v_eps, v_s = channel.T, channel.v_eps, params.source.v_s
    kind, N, beta = params.protocol.kind, params.N, params.beta
    z = confidence_coefficient(params.delta)
    log_term = _penalty_log(params.delta_star)

    def rate(v: float, v2: float, r: float) -> float:
        n = _key_samples(r, N)
        sigma_sq, s_sq, _, _ = _variance_model(T, v_eps, v_s, _arms(kind, v, v2, n, r * N))
        t_low, veps_up, _, _ = _confidence_box(T, v_eps, sigma_sq, s_sq, z)
        return _finite_key_rate(t_low, veps_up, v_s, v, beta, n, N, log_term)[0]

    return rate


def _coordinate_grid(problem: OptimizationProblem, name: str) -> list[float]:
    lo, hi = _BOX[name]
    if name == "r":
        # r = 0 leaves the single scheme nothing to estimate from
        grid = numeric.log_grid(max(2.0 / problem.params.N, 1e-6), hi, _GRID_R)
        return [0.0] + grid if problem.params.protocol.kind == MODIFIED else grid
    return numeric.log_grid(lo, hi, _GRID_V)


def optimize_key_rate(problem: OptimizationProblem) -> OptimizationResult:
    """Deterministic grid-plus-refinement maximisation of the key rate.

    Grid ties resolve to the earliest candidate (the product of the free
    variables' ascending grids in declaration order, the last varying
    fastest), so repeated runs pick identical optima. A modified-scheme
    optimum is snapped to r = 0 when disclosing nothing is within
    tolerance of the best value found, since the pure double scheme is
    operationally simpler.
    """
    evaluations = 0
    free = problem.free
    fixed = problem.params.protocol
    kind = fixed.kind
    rate = _planning_rate(problem)
    infeasible: Counter = Counter()

    def objective(point: dict) -> float:
        nonlocal evaluations
        evaluations += 1
        try:
            return rate(point.get("v", fixed.v), fixed.v2, point.get("r", fixed.r))
        except ValueError as exc:
            if not free:  # the one point there is: its fault is the answer
                raise
            infeasible[str(exc)] += 1
            return -math.inf

    grids = {name: _coordinate_grid(problem, name) for name in free}
    candidates = [dict(zip(free, xs)) for xs in itertools.product(*grids.values())]
    if kind == SINGLE and all(n in free for n in ("v", "r")):
        candidates.append({"v": LEGACY.v, "r": LEGACY.r})

    best_point: dict = {}
    best_value = -math.inf
    for point in candidates:
        value = objective(point)
        if value > best_value:
            best_point, best_value = point, value
    # with nothing free, {} is the one point and a valid one
    if best_value == -math.inf:
        # the commonest reasons; a message that quotes the point differs at each
        counts = infeasible.most_common()
        reasons = [f"{reason} ({count} of {evaluations} points)"
                   for reason, count in counts[:3]]
        if len(counts) > 3:
            reasons.append(f"{len(counts) - 3} other reasons")
        raise ValueError("every grid point was infeasible; check the channel and "
                         "block size" + (f": {'; '.join(reasons)}" if reasons else ""))

    scale = max(abs(best_value), 1e-12)
    for rounds in range(1, 31):
        improved = best_value
        for name in free:
            xs = sorted(set(grids[name]) | {best_point[name]})
            i = xs.index(best_point[name])
            lo = xs[max(i - 1, 0)]
            hi = xs[min(i + 1, len(xs) - 1)]
            x_ref, f_ref = numeric.golden_section_max(
                lambda x: objective({**best_point, name: x}), lo, hi,
                tol=1e-7 * max(1.0, abs(hi)))
            if f_ref > best_value:
                best_point[name] = x_ref
                best_value = f_ref
        if best_value - improved <= _TOL * scale:
            break
    converged = best_value - improved <= _TOL * scale

    if kind == MODIFIED and "r" in free and best_point.get("r", 0.0) > 0.0:
        at_zero = dict(best_point)
        at_zero["r"] = 0.0
        if objective(at_zero) >= best_value - _TOL * scale:
            best_point = at_zero
            best_value = objective(at_zero)

    report = evaluate_point(problem, best_point)
    status = "ok" if report.K > 0.0 else "no_positive_rate"
    return OptimizationResult(best_point, report.K, report, status, evaluations,
                              infeasible, rounds, converged)


_TOKEN = 4  # bytes per token of optimize_each's index pipe


def optimize_each(problems) -> list[OptimizationResult]:
    """``[optimize_key_rate(p) for p in problems]``, on this process and
    one forked child per other CPU of its affinity mask.

    Each result is a deterministic function of its problem, so the list
    is the same whichever process computes each entry; the first problem
    in order that raises raises here, with its own type and message.
    Every process takes the next problem index from one shared pipe, so
    cheap rows balance against dear ones. Each child returns its results
    pickled over a pipe of its own; a child that ends without reporting
    makes this raise a :class:`RuntimeError` with its exit status. With
    one CPU, one problem or no ``os.fork`` the problems run in this
    process. Every child is reaped before this returns or raises; when
    this process is interrupted, or a child fails, the children still
    running are killed first. On Linux a child also ends when this
    process is killed.

    Children are forked, not spawned: a spawned one imports the library
    afresh, which on a 2-core machine cost more than a 70-row sweep saves.
    The library starts no thread, so no lock is held across the fork.
    """
    problems = list(problems)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    others = min(len(problems), cpus) - 1
    if others < 1 or not hasattr(os, "fork"):
        return [optimize_key_rate(problem) for problem in problems]
    # loaded here, so that importing the library never pays for them
    import pickle
    import signal

    tokens, write_end = os.pipe()
    # each token is the first index of a run of `step` problems; all of
    # them fit in one atomic write, made before any process reads
    step = -(-_TOKEN * len(problems) // os.fpathconf(tokens, "PC_PIPE_BUF"))
    os.write(write_end, b"".join(start.to_bytes(_TOKEN, "little")
                                 for start in range(0, len(problems), step)))
    os.close(write_end)
    parent = os.getpid()
    children = {}  # pid -> read end of its report pipe, until reaped
    try:
        for _ in range(others):
            report, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:  # the child never returns into the caller
                    _end_with_parent(parent)
                    with open(write_end, "wb") as out:
                        out.write(pickle.dumps(_take(problems, tokens, step)))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            children[pid] = open(report, "rb")
        outcomes = _take(problems, tokens, step)
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                raise RuntimeError(f"child process {pid} ended with exit status "
                                   f"{status} before it reported its results")
            outcomes += pickle.loads(data)
    finally:
        os.close(tokens)
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = [None] * len(problems)
    for index, outcome in outcomes:
        results[index] = outcome
    for outcome in results:
        if isinstance(outcome, BaseException):
            raise outcome
    return results



def _take(problems, tokens, step) -> list:
    """``(index, result or exception)`` of each problem that this process
    takes from the token pipe of :func:`optimize_each`, until it is empty."""
    outcomes = []
    while token := os.read(tokens, _TOKEN):
        start = int.from_bytes(token, "little")
        for index in range(start, min(start + step, len(problems))):
            try:
                outcomes.append((index, optimize_key_rate(problems[index])))
            except Exception as exc:
                outcomes.append((index, exc))
    return outcomes


def _end_with_parent(parent: int) -> None:
    """Ask Linux to SIGTERM this forked child when the thread that forked
    it dies (``prctl(PR_SET_PDEATHSIG)``), and exit at once if the parent
    is already gone. Without this a child of a killed parent would go on
    through the problems left in the token pipe. Where there is no
    ``prctl`` the child goes on as before."""
    import ctypes
    import signal

    try:
        ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # 1: PR_SET_PDEATHSIG
    except (AttributeError, OSError):
        pass
    if os.getppid() != parent:
        os._exit(1)


# --------------------------------------------------------------------------
# empirical scaling fits


@dataclass(frozen=True)
class PowerLawFit:
    """Fit of ``y = alpha * x ** gamma`` on log-log axes."""

    alpha: float
    gamma: float
    residual: float  # largest |log10 deviation| over the fitted points


@dataclass(frozen=True)
class ExponentialFit:
    """Fit of ``y = a * 10 ** (-kappa * x)``."""

    a: float
    kappa: float
    fit_range: tuple[float, float]
    residual: float  # largest |log10 deviation| over the fitted points


def fit_power_law(x_values, y_values) -> PowerLawFit:
    """Least squares on the logs: :func:`fit_exponential_decay` of ``y``
    against ``log10 x``, whose decay constant is ``-gamma``. All values
    must be positive."""
    import numpy as np

    x = np.asarray(x_values, dtype=np.float64)
    _require(bool(np.all(x > 0.0)), "power-law fitting needs positive x values")
    fit = fit_exponential_decay(np.log10(x), y_values)
    return PowerLawFit(alpha=fit.a, gamma=-fit.kappa, residual=fit.residual)


def fit_exponential_decay(x_values, y_values) -> ExponentialFit:
    """Least squares of ``log10 y`` against ``x``. The y values must be
    positive."""
    import numpy as np

    x = np.asarray(x_values, dtype=np.float64)
    y = np.asarray(y_values, dtype=np.float64)
    _require(x.size == y.size and x.size >= 2, "a fit needs at least 2 points")
    _require(bool(np.all(y > 0.0)), "fitting log10 y needs positive y values")
    ly = np.log10(y)
    slope, intercept = np.polyfit(x, ly, 1)
    residual = float(np.max(np.abs(ly - (slope * x + intercept))))
    return ExponentialFit(a=float(10.0 ** intercept), kappa=float(-slope),
                          fit_range=(float(np.min(x)), float(np.max(x))),
                          residual=residual)


def optimal_ratio_curve(problem_template: OptimizationProblem,
                        n_values) -> tuple[PowerLawFit, list[tuple[float, float]]]:
    """Optimal disclosed fraction as a function of block size.

    Runs the optimizer at every block size, through :func:`optimize_each`,
    and fits a power law through the points with a positive rate and a
    positive optimal fraction; points outside that domain (rate dead, or
    fraction snapped to zero) cannot enter a log-log fit and are excluded.
    Returns the fit and all usable ``(N, r_opt)`` points.
    """
    problems = [replace(problem_template,
                        params=replace(problem_template.params, N=int(round(float(n_val)))))
                for n_val in n_values]
    points: list[tuple[float, float]] = []
    for problem, result in zip(problems, optimize_each(problems)):
        r_opt = result.point.get("r", 0.0)
        if result.status == "ok" and r_opt > 0.0:
            points.append((float(problem.params.N), float(r_opt)))
    _require(len(points) >= 2, "fewer than 2 usable block sizes; cannot fit")
    fit = fit_power_law([p[0] for p in points], [p[1] for p in points])
    return fit, points


def optimal_ratio_zero_crossing(problem_template: OptimizationProblem,
                                iterations: int = 30) -> float:
    """Transmittance below which the modified scheme stops disclosing.

    At high transmittance the optimum reveals part of the key modulation
    (``r_opt > 0``); toward low transmittance the probe arm alone wins and
    ``r_opt`` snaps to zero.  Scans a 13-point geometric transmittance grid
    over (0.01, 1) from the top down for that switch, counting an optimum
    as disclosing when ``r_opt > 1e-3``, and bisects it ``iterations``
    times.  Grid points whose best rate
    is not positive are skipped: their arg-max is degenerate (the prefactor
    pushes ``r`` to the box ceiling), so they carry no ratio information.
    The channel's excess noise follows the template's ratio of excess
    noise to transmittance.
    """
    _require(problem_template.params.protocol.kind == MODIFIED,
             "the zero crossing is a property of the modified scheme")
    base = problem_template.channel
    eps_ratio = base.v_eps / base.T if base.T > 0.0 else 0.0

    def probe(T: float) -> tuple[bool, bool]:
        """Whether the optimum at ``T`` is ok, and whether it discloses."""
        problem = replace(problem_template,
                          channel=ChannelParams(T, eps_ratio * T))
        result = optimize_key_rate(problem)
        return result.status == "ok", result.point.get("r", 0.0) > 1e-3

    grid = numeric.log_grid(0.01, 1.0, 13)
    _require(all(probe(grid[-1])),
             "no disclosure at the top of the range; nothing to bracket")
    lo = None
    hi = grid[-1]
    for T in reversed(grid[:-1]):
        ok, discloses = probe(T)
        if not ok:
            break
        if not discloses:
            lo = T
            break
        hi = T
    _require(lo is not None,
             "disclosure persists down to the dead zone; no crossing")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        # a dead midpoint counts as the no-disclosure side
        if all(probe(mid)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def fit_exponential_keyrate(fiber: FiberModel = FiberModel(),
                            beta: float = DEFAULT_BETA,
                            v_s: float | None = None,
                            d_range: tuple[float, float] = FIT_WINDOW_KM,
                            points: int = FIT_POINTS) -> ExponentialFit:
    """Exponential model of the asymptotic rate over fiber distance.

    At each distance the rate is maximised over the modulation variance;
    the source defaults to the strong-squeezing limit. The fitted decay
    constant feeds :func:`max_distance`.
    """
    _require_beta(beta)
    _require(points >= 2, "a fit needs at least 2 points")
    _require(d_range[1] > d_range[0] > 0.0, "distance window must be increasing and positive")
    ds = numeric.linspace(d_range[0], d_range[1], points)
    ks = []
    for d in ds:
        channel = channel_at_distance(d, fiber)
        k_opt, _ = optimal_asymptotic_rate(channel, beta, v_s)
        _require(k_opt > 0.0,
                 f"asymptotic rate is dead at {d:.1f} km; shrink the window")
        ks.append(k_opt)
    return fit_exponential_decay(ds, ks)


def max_distance(fit: ExponentialFit, N: float,
                 delta_star: float = DEFAULT_DELTA_STAR) -> float:
    """Distance at which the fitted rate falls to the finite-size penalty.

    Solving ``a * 10^(-kappa d) = 7 sqrt(log2(2/delta_star) / N)`` for d:
    the reach grows by ``1 / (2 kappa)`` kilometres per decade of block
    size.
    """
    _require(_finite(fit.a) and fit.a > 0.0,
             f"the fitted amplitude a must be finite and > 0, got {fit.a!r}")
    _require(_finite(fit.kappa) and fit.kappa > 0.0,
             f"the decay constant kappa must be finite and > 0 (the fitted "
             f"rate must decay with distance), got {fit.kappa!r}")
    _require(_finite(N) and N >= 1.0, f"block size must be >= 1, got {N!r}")
    # the penalty at n = 1 is the numerator 7 sqrt(log2(2/delta_star))
    c = finite_size_correction(1.0, delta_star)
    return (0.5 / fit.kappa) * math.log10(N) - (1.0 / fit.kappa) * math.log10(c / fit.a)
