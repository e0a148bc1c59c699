"""Protocol parameter optimization and empirical scaling fits.

The objective is always the planning-mode finite-size key rate: expected
confidence bounds from the analytic variance models, no sampling. That
makes every optimization deterministic, cheap, and exactly reproducible.

Types are checked once per problem, when its records
(:class:`~cvqkd.model.Record`) are built; each evaluation runs
``_planning_rate``, the rate of :func:`evaluate_point` specialised to the
problem, which hands a point outside its domain to :func:`evaluate_point`
itself, so every refusal has one text in one place.

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

from . import numeric
from .estimation import confidence_coefficient, expected_bounds
from .keyrate import (
    _LOG2,
    KeyRateReport,
    _holevo_bound,
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
    Record,
    _finite,
    _noise_variance,
    _require,
    _require_beta,
    channel_at_distance,
    replace,
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


class OptimizationProblem(Record):
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


class OptimizationResult(Record):
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
    ``K`` without building records; ``replace`` checks the point anew."""
    params = replace(problem.params, protocol=replace(problem.params.protocol, **point))
    return finite_key_rate(params, expected_bounds(problem.channel, params))


def _planning_rate(problem: OptimizationProblem):
    """``K`` of :func:`evaluate_point` as a function of ``(v, v2, r)``.

    Read once: z(delta), log2(2/delta_star), 1 + V_eps, 2 T^2, v_s - 1,
    an arm's noise and squared gain when it withholds nothing, the
    p-quadrature rule and the arm layout. Each point runs the reference's
    arithmetic and shares its Holevo kernel, whose refusals pass through.
    Float sums and products do not associate, so only a left-most term is
    hoisted and K equals the reference bit for bit. A point that trips a
    guard is answered by :func:`evaluate_point` itself, refusal included,
    so every point the reference refuses must trip one; a guard that trips
    on a point the reference accepts costs only time. Points lie in the
    search box, where the :class:`Protocol` checks hold.
    """
    channel, params = problem.channel, problem.params
    T, v_eps, v_s = channel.T, channel.v_eps, params.source.v_s
    N, beta, single = params.N, params.beta, params.protocol.kind == SINGLE
    z = confidence_coefficient(params.delta)
    log_term = _penalty_log(params.delta_star)
    one_eps, two_t_sq, degenerate = 1.0 + v_eps, 2.0 * T * T, not T > 0.0
    vs_less_1 = 0.0 + v_s - 1.0
    vn0 = _noise_variance(T, v_eps, v_s, 0.0)
    try:  # refused at the point, by the reference
        gain0 = vs_less_1 ** 2
    except OverflowError:
        gain0 = None
    p_rule = v_s >= 1.0
    inf, sqrt = math.inf, math.sqrt

    def reference(v: float, v2: float, r: float) -> float:
        # looked up at each call, so that a test can count the fallbacks
        return evaluate_point(problem, {"v": v, "v2": v2, "r": r}).K

    def rate(v: float, v2: float, r: float) -> float:
        n = (1.0 - r) * N
        shown = r * N
        probe = not single and n != 0.0    # the arm (n, v2, v), n > 0
        reveal = single or shown != 0.0    # the arm (shown, v or v + v2, 0)
        if not (probe or reveal) or degenerate and not (probe and v > 0.0):
            return reference(v, v2, r)
        if probe:
            w = v + v_s - 1.0
            vn = one_eps + T * w
            sigma = (4.0 / n) * (two_t_sq + T * vn / v2)
            noise = (2.0 / n) * vn * vn
            try:
                gain = w ** 2
            except OverflowError:
                return reference(v, v2, r)
        if reveal:
            shown_v = v if single else v + v2
            if not (0.0 < shown_v < inf and shown > 0.0) or gain0 is None:
                return reference(v, v2, r)
            sigma_d = (4.0 / shown) * (two_t_sq + T * vn0 / shown_v)
            noise_d = (2.0 / shown) * vn0 * vn0
            if not probe:
                sigma, noise, gain = sigma_d, noise_d, gain0
        if probe and reveal:  # merged by inverse variance once min(sigmas) > 0
            if (sigma_d if sigma_d < sigma else sigma) > 0.0:
                if not (0.0 < sigma < inf and 0.0 < sigma_d < inf):
                    return reference(v, v2, r)
                sigma_sq = sigma * sigma_d / (sigma + sigma_d)
            else:
                sigma_sq = 0.0
            s_p = noise + gain * sigma_sq
            s_d = noise_d + gain0 * sigma_sq
            if not (0.0 < s_p < inf and 0.0 < s_d < inf):
                return reference(v, v2, r)
            s_sq = s_p * s_d / (s_p + s_d)
        else:
            sigma_sq = sigma if sigma > 0.0 else 0.0
            s_sq = noise + gain * sigma_sq
        if not (0.0 <= sigma_sq < inf and 0.0 <= s_sq < inf):
            return reference(v, v2, r)
        # the corner (T_low, veps_up), clamped; T_low <= T <= 1 already
        t_eval = T - z * sqrt(sigma_sq)
        if not t_eval > 0.0:
            t_eval = 0.0
        veps_eval = v_eps + z * sqrt(s_sq)
        if 0.0 > veps_eval:
            veps_eval = 0.0
        vn = 1.0 + veps_eval + t_eval * vs_less_1
        if not vn > 0.0:
            return reference(v, v2, r)
        i_ab = 0.5 * math.log1p(t_eval * v / vn) / _LOG2
        k_inf = beta * i_ab - _holevo_bound(t_eval, veps_eval, v_s, v, v if p_rule else 0.0)
        if n >= 1.0:
            return (n / N) * (k_inf - 7.0 * sqrt(log_term / n))
        return 0.0  # nothing left to distill from

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
    v_fixed, v2, r_fixed = fixed.v, fixed.v2, fixed.r
    infeasible: Counter = Counter()

    def objective(v: float, r: float) -> float:
        nonlocal evaluations
        evaluations += 1
        try:
            return rate(v, v2, r)
        except ValueError as exc:
            if not free:  # the one point there is: its fault is the answer
                raise
            infeasible[str(exc)] += 1
            return -math.inf

    def at(point: dict) -> float:
        return objective(point.get("v", v_fixed), point.get("r", r_fixed))

    grids = {name: _coordinate_grid(problem, name) for name in free}
    candidates = [dict(zip(free, xs)) for xs in itertools.product(*grids.values())]
    if kind == SINGLE and all(n in free for n in ("v", "r")):
        candidates.append({"v": LEGACY.v, "r": LEGACY.r})

    best_point: dict = {}
    best_value = -math.inf
    for point in candidates:
        value = at(point)
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
            v, r = best_point.get("v", v_fixed), best_point.get("r", r_fixed)
            x_ref, f_ref = numeric.golden_section_max(
                (lambda x: objective(x, r)) if name == "v" else (lambda x: objective(v, x)),
                lo, hi, tol=1e-7 * max(1.0, abs(hi)))
            if f_ref > best_value:
                best_point[name] = x_ref
                best_value = f_ref
        if best_value - improved <= _TOL * scale:
            break
    converged = best_value - improved <= _TOL * scale

    if kind == MODIFIED and "r" in free and best_point.get("r", 0.0) > 0.0:
        at_zero = dict(best_point)
        at_zero["r"] = 0.0
        value = at(at_zero)
        if value >= best_value - _TOL * scale:
            best_point, best_value = at_zero, value

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
    running are killed first. When this process is killed, each child
    finishes at most the problem it is on: it takes no further problem
    once its parent pid changes, and it holds no read end of any report
    pipe, so its report fails and it exits.

    Children are forked, not spawned: a spawned one imports the library
    afresh, which on a 2-core machine cost more than a 70-row sweep saves.
    The library starts no thread, so no lock is held across the fork.
    Keep the shared token pipe: a strided split (process k takes problems
    k, k + w, ...) lost every one of 12 alternating ``sweep`` benchmark
    pairs on a 2-core machine, 461 against 591 rows/s in the median,
    although its even and odd rows cost the same to 3 %; only taking
    problems as each process frees up absorbs unequal CPU time.
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
                    os.close(report)
                    for pipe in children.values():
                        pipe.close()
                    with open(write_end, "wb") as out:
                        out.write(pickle.dumps(_take(problems, tokens, step, parent)))
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


def _take(problems, tokens, step, parent=None) -> list:
    """``(index, result or exception)`` of each problem that this process
    takes from the token pipe of :func:`optimize_each`, until it is empty,
    or, in a forked child, until ``parent`` is no longer its parent."""
    outcomes = []
    while token := os.read(tokens, _TOKEN):
        start = int.from_bytes(token, "little")
        for index in range(start, min(start + step, len(problems))):
            if parent is not None and os.getppid() != parent:
                return outcomes
            try:
                outcomes.append((index, optimize_key_rate(problems[index])))
            except Exception as exc:
                outcomes.append((index, exc))
    return outcomes


# --------------------------------------------------------------------------
# empirical scaling fits


class ExponentialFit(Record):
    """Fit of ``y = a * 10 ** (-kappa * x)``."""

    a: float
    kappa: float
    fit_range: tuple[float, float]
    residual: float  # largest |log10 deviation| over the fitted points


def fit_exponential_decay(x_values, y_values) -> ExponentialFit:
    """Least squares of ``log10 y`` against ``x``, in closed form on centred
    sums. The values must be finite, the y values positive, the x spread."""
    x, y = [float(v) for v in x_values], [float(v) for v in y_values]
    _require(len(x) == len(y), f"x and y differ in length: {len(x)} against {len(y)}")
    _require(len(x) >= 2, "a fit needs at least 2 points")
    _require(all(map(math.isfinite, x)), f"fitting needs finite x values, got {x!r}")
    _require(all(map(math.isfinite, y)), f"fitting needs finite y values, got {y!r}")
    _require(all(v > 0.0 for v in y), "fitting log10 y needs positive y values")
    ly = [math.log10(v) for v in y]
    x_mean, ly_mean = math.fsum(x) / len(x), math.fsum(ly) / len(ly)
    dx = [v - x_mean for v in x]
    sxx = math.fsum(d * d for d in dx)
    _require(0.0 < sxx < math.inf, f"fitting needs an x spread in (0, ~1e154), got {x!r}")
    slope = math.fsum(d * (v - ly_mean) for d, v in zip(dx, ly)) / sxx
    intercept = ly_mean - slope * x_mean
    _require(intercept <= 308.25, f"the fitted amplitude 10**{intercept:.6g} overflows a float")
    residual = max(abs(v - (slope * u + intercept)) for u, v in zip(x, ly))
    return ExponentialFit(a=10.0 ** intercept, kappa=-slope,
                          fit_range=(min(x), max(x)), residual=residual)


def optimal_ratio_zero_crossing(problem_template: OptimizationProblem) -> float:
    """Transmittance below which the modified scheme stops disclosing.

    At high transmittance the optimum reveals part of the key modulation
    (``r_opt > 0``); toward low transmittance the probe arm alone wins and
    ``r_opt`` snaps to zero.  Scans a 13-point geometric transmittance grid
    over (0.01, 1) from the top down for that switch, counting an optimum
    as disclosing when ``r_opt > 1e-3``, and bisects it 30 times.  Grid
    points whose best rate is not positive are skipped: their arg-max is
    degenerate (the prefactor pushes ``r`` to the box ceiling), so they
    carry no ratio information.
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
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        # a dead midpoint counts as the no-disclosure side
        if all(probe(mid)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def fit_exponential_keyrate(fiber: FiberModel = FiberModel(),
                            beta: float = DEFAULT_BETA,
                            v_s: float | None = None) -> ExponentialFit:
    """Exponential model of the asymptotic rate over fiber distance.

    The fit runs at ``FIT_POINTS`` even steps over the fixed
    ``FIT_WINDOW_KM``. At each distance the rate is maximised over the
    modulation variance, and refused if it is not positive; the source
    defaults to the strong-squeezing limit. The fitted decay constant
    feeds :func:`max_distance`.
    """
    _require_beta(beta)
    ds = numeric.linspace(*FIT_WINDOW_KM, FIT_POINTS)
    ks = []
    for d in ds:
        channel = channel_at_distance(d, fiber)
        k_opt, _ = optimal_asymptotic_rate(channel, beta, v_s)
        _require(k_opt > 0.0,
                 f"asymptotic rate is dead at {d:.1f} km, inside the fixed "
                 f"{FIT_WINDOW_KM[0]:.0f}-{FIT_WINDOW_KM[1]:.0f} km fit window")
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
