"""Parameter search, scaling fits and the block-size range bound."""

import importlib.util
import itertools
import math
import os
import random
import signal
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvqkd import (
    ChannelParams,
    SourceParams,
    Protocol,
    ProtocolParams,
    FiberModel,
    channel_at_distance,
    expected_bounds,
    finite_key_rate,
    finite_size_correction,
    OptimizationProblem,
    optimize_key_rate,
    optimize_each,
    evaluate_point,
    optimal_ratio_zero_crossing,
    fit_exponential_decay,
    fit_exponential_keyrate,
    max_distance,
    ExponentialFit,
    asymptotic_key_rate,
)
import cvqkd
from cvqkd import numeric, optimizer
from cvqkd.cli import load_preset
from cvqkd.estimation import ConfidenceBounds, VarianceModel
from cvqkd.keyrate import KeyRateReport, _asymptotic_key_rate, _holevo_bound
from cvqkd.model import replace
from cvqkd.optimizer import _planning_rate
from matrix_reference import holevo_reference


def _channel(T):
    return ChannelParams(T, 0.01 * T)


def _params(v_s, kind, N, v=1.0):
    return ProtocolParams(SourceParams(v_s), Protocol(kind, v), N)


# --------------------------------------------------------------------------
# curve fitting


def _log10(values):
    return [math.log10(v) for v in values]


def test_power_law_fit_recovers_synthetic_data():
    # y = alpha x^gamma is the exponential decay of y in log10 x, kappa = -gamma
    x = np.logspace(4, 9, 12)
    y = 37.5 * x ** -0.41
    fit = fit_exponential_decay(_log10(x), y)
    assert fit.a == pytest.approx(37.5, rel=1e-10)
    assert -fit.kappa == pytest.approx(-0.41, abs=1e-12)
    assert fit.residual < 1e-12


def test_power_law_fit_bits_are_pinned():
    # no digested output runs this fit, so its bits are held here
    x = np.logspace(4, 9, 12)
    fit = fit_exponential_decay(_log10(x), 37.5 * x ** -0.41)
    assert (fit.a.hex(), (-fit.kappa).hex(), fit.residual.hex()) == (
        "0x1.2c00000000003p+5", "-0x1.a3d70a3d70a3ep-2", "0x1.0000000000000p-51")


def _assert_polyfit(x, y, a, kappa, residual):
    """``(a, kappa, residual)`` against the reference the closed form
    replaced, numpy's least squares of ``log10 y`` against ``x``: a and
    kappa to 1e-13 relative, the residual to 1e-12 relative or, where it
    is rounding noise on exact synthetic data, 1e-14 absolute."""
    x, ly = np.asarray(x, dtype=np.float64), np.log10(np.asarray(y, dtype=np.float64))
    slope, intercept = np.polyfit(x, ly, 1)
    assert (a, kappa) == pytest.approx((10.0 ** intercept, -slope), rel=1e-13, abs=0.0)
    assert residual == pytest.approx(np.max(np.abs(ly - (slope * x + intercept))),
                                     rel=1e-12, abs=1e-14)


def test_closed_form_fits_equal_polyfit(monkeypatch):
    x = np.logspace(4, 9, 12)
    y = 37.5 * x ** -0.41
    power = fit_exponential_decay(_log10(x), y)
    _assert_polyfit(np.log10(x), y, power.a, power.kappa, power.residual)
    d = np.linspace(20.0, 150.0, 14)
    k = 1.18 * 10.0 ** (-0.021 * d)
    fit = fit_exponential_decay(d, k)
    _assert_polyfit(d, k, fit.a, fit.kappa, fit.residual)
    # the 13 rates over 30-150 km that maxdist fits
    seen = []

    def recording(x, y, _real=optimizer.fit_exponential_decay):
        seen.append((x, y))
        return _real(x, y)
    monkeypatch.setattr(optimizer, "fit_exponential_decay", recording)
    fit = fit_exponential_keyrate()
    (d, k), = seen
    assert len(d) == 13
    _assert_polyfit(d, k, fit.a, fit.kappa, fit.residual)


def test_exponential_fit_recovers_synthetic_data():
    d = np.linspace(20.0, 150.0, 14)
    k = 1.18 * 10.0 ** (-0.021 * d)
    fit = fit_exponential_decay(d, k)
    assert fit.a == pytest.approx(1.18, rel=1e-10)
    assert fit.kappa == pytest.approx(0.021, abs=1e-12)
    assert fit.fit_range == (20.0, 150.0)
    assert fit.residual < 1e-12


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_exponential_decay(_log10([1.0]), [2.0])
    with pytest.raises(ValueError):
        fit_exponential_decay(_log10([1.0, 2.0]), [2.0, -1.0])
    with pytest.raises(ValueError, match="x and y differ in length: 3 against 2"):
        fit_exponential_decay([1.0, 2.0, 3.0], [2.0, 1.0])
    with pytest.raises(ValueError):
        fit_exponential_decay([1.0, 2.0], [0.0, 1.0])
    # refused by name: values a float cannot fit, and x spreads whose
    # squares vanish or overflow
    nan, inf = math.nan, math.inf
    for x, y, message in [
            ([1.0, nan], [2.0, 1.0], r"finite x values, got \[1.0, nan\]"),
            ([1.0, inf], [2.0, 1.0], r"finite x values, got \[1.0, inf\]"),
            ([1.0, 2.0], [inf, 1.0], r"finite y values, got \[inf, 1.0\]"),
            ([2.0, 2.0], [2.0, 1.0], r"an x spread in \(0, ~1e154\), got \[2.0, 2.0\]"),
            ([0.0, 5e-324], [2.0, 1.0], r"an x spread in \(0, ~1e154\)"),
            ([-1e200, 1e200], [2.0, 1.0], r"an x spread in \(0, ~1e154\)"),
            ([-1000.0, -999.0], [1e-300, 1e300], r"amplitude 10\*\*599700 overflows")]:
        with pytest.raises(ValueError, match=message):
            fit_exponential_decay(x, y)
    # a power law is this fit on log10 x, where a nan x stays nan
    with pytest.raises(ValueError, match=r"finite x values, got \[0.0, nan\]"):
        fit_exponential_decay(_log10([1.0, nan]), [2.0, 1.0])


# --------------------------------------------------------------------------
# range bound


def test_max_distance_closed_form():
    fit = ExponentialFit(a=1.2, kappa=0.02, fit_range=(30.0, 150.0), residual=0.0)
    N, delta_star = 1e8, 1e-10
    d = max_distance(fit, N, delta_star)
    threshold = finite_size_correction(N, delta_star)
    assert fit.a * 10.0 ** (-fit.kappa * d) == pytest.approx(threshold, rel=1e-12)


def test_max_distance_scaling_identities():
    fit = ExponentialFit(a=1.2, kappa=0.02, fit_range=(30.0, 150.0), residual=0.0)
    base = max_distance(fit, 1e8)
    # one decade of block size buys 1 / (2 kappa) kilometres
    assert max_distance(fit, 1e9) - base == pytest.approx(25.0, rel=1e-12)
    # quadrupling the log-penalty factor doubles the threshold
    log_term = math.log2(2.0 / 1e-10)
    harsher = 2.0 / 2.0 ** (4.0 * log_term)
    assert max_distance(fit, 1e8, harsher) - base == pytest.approx(
        -math.log10(2.0) / fit.kappa, rel=1e-12)


def test_max_distance_validation():
    with pytest.raises(ValueError):
        max_distance(ExponentialFit(1.0, -0.01, (0.0, 1.0), 0.0), 1e8)
    with pytest.raises(ValueError):
        max_distance(ExponentialFit(1.0, 0.02, (0.0, 1.0), 0.0), 0.5)


@pytest.mark.parametrize("a, kappa, name", [
    (0.0, 0.01, "fitted amplitude"), (-1.0, 0.01, "fitted amplitude"),
    (math.inf, 0.01, "fitted amplitude"), (math.nan, 0.01, "fitted amplitude"),
    (1.0, 0.0, "decay constant"), (1.0, -0.01, "decay constant"),
    (1.0, math.inf, "decay constant"), (1.0, math.nan, "decay constant"),
])
def test_max_distance_refuses_a_bad_fit_by_name(a, kappa, name):
    with pytest.raises(ValueError, match=name):
        max_distance(ExponentialFit(a, kappa, (30.0, 150.0), 0.0), 1e6)


# --------------------------------------------------------------------------
# key-rate maximisation


def test_optimize_lossless_channel_prefers_strongest_modulation():
    problem = OptimizationProblem(ChannelParams(1.0, 0.0),
                                  ProtocolParams(SourceParams(1.0),
                                                 Protocol("single", 1.0, r=0.5),
                                                 10**8, beta=1.0),
                                  free=("v",))
    result = optimize_key_rate(problem)
    assert result.status == "ok"
    assert result.point["v"] == 100.0  # box ceiling: rate is monotone here


def test_optimize_deterministic():
    problem = OptimizationProblem(_channel(0.2), _params(0.5, "modified", 10**7))
    a = optimize_key_rate(problem)
    b = optimize_key_rate(problem)
    assert a.point == b.point and a.K == b.K and a.evaluations == b.evaluations


def test_evaluate_point_matches_direct_assembly():
    problem = OptimizationProblem(_channel(0.2), _params(1.0, "single", 10**6, 3.0),
                                  free=())
    point = {"v": 1.5, "r": 0.5}
    report = evaluate_point(problem, point)
    protocol = Protocol("single", 1.5, r=0.5)
    params = ProtocolParams(problem.params.source, protocol, 10**6)
    bounds = expected_bounds(problem.channel, params)
    expected = finite_key_rate(params, bounds)
    assert report.K == expected.K


# --------------------------------------------------------------------------
# the objective's scalar core against the validating reference


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


_SOURCES = st.sampled_from((1e-7, 0.1, 1.0, 2.0))


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(("single", "double", "modified")), T=st.floats(0.0, 1.0),
       v_eps=st.floats(0.0, 0.1), v_s=_SOURCES, v=st.floats(0.01, 100.0),
       v2=st.floats(0.1, 50.0), r=st.floats(0.0, 0.9), N=st.integers(2, 10**10),
       budgets=st.sampled_from(((0.95, 1e-10, 1e-10), (0.8, 1e-3, 1e-6))))
@example(kind="single", T=0.3, v_eps=0.003, v_s=1.0, v=3.0, v2=10.0, r=0.0, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="single", T=0.0, v_eps=0.0, v_s=1.0, v=3.0, v2=10.0, r=0.5, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="single", T=0.3, v_eps=0.003, v_s=1.0, v=3.0, v2=10.0, r=0.9, N=3,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="modified", T=0.3, v_eps=0.003, v_s=0.1, v=3.0, v2=10.0, r=0.9, N=3,
         budgets=(0.95, 1e-10, 1e-10))
# each branch of the objective: T = 0 where a displacement stays withheld,
# the probe arm alone, the disclosed arm alone, T = 0 where every arm
# withholds nothing (a pinned v = 0 included), the p-quadrature rule on
# each side of v_s = 1, and n < 1 at the smallest blocks
@example(kind="double", T=0.0, v_eps=0.0, v_s=1.0, v=3.0, v2=10.0, r=0.0, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="modified", T=0.3, v_eps=0.003, v_s=0.1, v=3.0, v2=10.0, r=0.0, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="modified", T=0.3, v_eps=0.003, v_s=0.1, v=3.0, v2=10.0, r=1.0, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="modified", T=0.0, v_eps=0.0, v_s=0.1, v=3.0, v2=10.0, r=1.0, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="modified", T=0.0, v_eps=0.0, v_s=0.1, v=0.0, v2=10.0, r=0.0, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="modified", T=0.3, v_eps=0.003, v_s=0.1, v=3.0, v2=10.0, r=0.2, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="modified", T=0.3, v_eps=0.003, v_s=1.0, v=3.0, v2=10.0, r=0.2, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="modified", T=0.3, v_eps=0.003, v_s=2.0, v=3.0, v2=10.0, r=0.2, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="single", T=0.3, v_eps=0.003, v_s=1.0, v=3.0, v2=10.0, r=0.9, N=2,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="modified", T=0.3, v_eps=0.003, v_s=0.1, v=3.0, v2=10.0, r=0.6, N=2,
         budgets=(0.95, 1e-10, 1e-10))
# each refusal a search found at a point of the search box: a squared gain
# that overflows on the probe arm and on a disclosed arm, arm variances
# that do not merge (sigma, then s), a variance that is not finite, and
# the noise of I_AB at the corner T_eval = 1
@example(kind="double", T=0.3, v_eps=0.003, v_s=1e160, v=3.0, v2=10.0, r=0.0, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="single", T=0.3, v_eps=0.003, v_s=1e160, v=3.0, v2=10.0, r=0.5, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="modified", T=0.3, v_eps=0.003, v_s=1.0, v=3.0, v2=5e-324, r=0.5, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="modified", T=0.3, v_eps=1e200, v_s=1.0, v=3.0, v2=10.0, r=0.5, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="double", T=0.3, v_eps=0.003, v_s=1.0, v=3.0, v2=5e-324, r=0.0, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="double", T=0.3, v_eps=1e200, v_s=1.0, v=3.0, v2=10.0, r=0.0, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="double", T=1.0, v_eps=0.0, v_s=1e-300, v=3.0, v2=10.0, r=0.0, N=10**300,
         budgets=(0.95, 1e-10, 1e-10))
# and those of the Holevo kernel it calls: mu overflows, the invariants
# overflow or are complex, a singular state, spectra not finite or below 1
@example(kind="double", T=0.3, v_eps=0.003, v_s=1e-320, v=3.0, v2=10.0, r=0.0, N=10**6,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="double", T=0.0, v_eps=0.0, v_s=1e-289, v=100.0, v2=10.0, r=0.0, N=10**8,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="single", T=1.0, v_eps=0.0, v_s=1.1168979842338823e-49, v=100.0, v2=10.0,
         r=0.9, N=36719559876380560435759376498688, budgets=(0.95, 4.3540757074994124e-246, 1e-10))
@example(kind="double", T=1.0, v_eps=1e187, v_s=1.0, v=0.15, v2=10.0, r=0.0, N=10**300,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="modified", T=0.0, v_eps=5e197, v_s=0.1, v=1.2, v2=10.0, r=0.0, N=10**300,
         budgets=(0.95, 1e-10, 1e-10))
@example(kind="double", T=1.0, v_eps=0.0, v_s=1e-7, v=100.0, v2=10.0, r=0.0, N=10**300,
         budgets=(0.08, 1e-190, 1e-10))
def test_planning_rate_equals_reference(kind, T, v_eps, v_s, v, v2, r, N, budgets):
    # the same K, or the same refusal, as the public wrappers give; the
    # problem's own protocol differs from the point on purpose
    r = 0.0 if kind == "double" else r
    channel, source = ChannelParams(T, v_eps), SourceParams(v_s)
    params = ProtocolParams(source, Protocol(kind, v, v2, r), N, *budgets)
    problem = OptimizationProblem(channel, replace(params, protocol=Protocol(kind, 1.0)),
                                  free=())
    core = _outcome(_planning_rate(problem), v, v2, r)
    reference = _outcome(
        lambda: finite_key_rate(params, expected_bounds(channel, params)).K)
    assert core == reference


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(T=st.floats(0.0, 1.0), v_eps=st.floats(0.0, 0.1), v_s=_SOURCES,
       v=st.floats(0.01, 100.0), beta=st.floats(0.5, 1.0))
def test_asymptotic_core_equals_reference(T, v_eps, v_s, v, beta):
    core = _outcome(_asymptotic_key_rate, T, v_eps, v_s, v, beta)
    reference = _outcome(asymptotic_key_rate, ChannelParams(T, v_eps), SourceParams(v_s),
                         v, beta)
    assert core == reference


# every construction of these runs its class's checks
_VALIDATED = (Protocol, ProtocolParams, ChannelParams, VarianceModel, ConfidenceBounds,
              KeyRateReport)


def test_optimize_validates_once_per_problem(monkeypatch):
    built = Counter()
    for cls in _VALIDATED:
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    # the type check, wherever a module calls it: the records and the
    # public wrappers, never the scalar cores that each evaluation runs
    real_finite = cvqkd.model._finite

    def counting_finite(x):
        built["_finite"] += 1
        return real_finite(x)
    checking = [module for module in vars(cvqkd).values()
                if isinstance(module, types.ModuleType) and hasattr(module, "_finite")]
    assert {module.__name__ for module in checking} >= {
        "cvqkd.model", "cvqkd.estimation", "cvqkd.keyrate", "cvqkd.optimizer"}
    for module in checking:
        monkeypatch.setattr(module, "_finite", counting_finite)
    params = ProtocolParams(SourceParams(1.0), Protocol("single", 1.0, r=0.2), 10**7)
    counts = []
    for free in (("v",), ("v", "r")):
        problem = OptimizationProblem(_channel(0.3), params, free=free)
        built.clear()
        result = optimize_key_rate(problem)
        counts.append((result.evaluations, dict(built)))
    (few, one), (many, two) = counts
    assert many > 3 * few
    assert one == two and one["KeyRateReport"] == 1 and one["_finite"] > 0


# (channel T, source v_s, scheme, N) -> point, K and evaluations at the
# time the objective moved to the scalar core; the modified problem at
# T = 0.23 ends in the snap to r = 0
_SEARCH_PINS = [
    ((0.3, 1.0, "single", 10**7),
     {"v": 10.092090317350147, "r": 0.15131908757161341}, 0.08265141962665241, 295),
    ((0.1, 0.1, "double", 10**8), {"v": 4.288548343734831}, 0.09152916598182533, 83),
    ((0.5, 0.1, "modified", 10**6),
     {"v": 11.848273603960568, "r": 0.06661588940914186}, 0.5044440455808618, 303),
    ((0.23, 0.5, "modified", 10**6),
     {"v": 2.0486863244564577, "r": 0.0}, 0.048248051830546895, 293),
]


@pytest.mark.parametrize("problem, point, K, evaluations", _SEARCH_PINS,
                         ids=["single", "double", "modified", "modified-snap"])
def test_search_path_is_pinned(problem, point, K, evaluations):
    T, v_s, kind, N = problem
    result = optimize_key_rate(OptimizationProblem(_channel(T), _params(v_s, kind, N)))
    assert (result.point, result.K, result.evaluations) == (point, K, evaluations)
    assert result.report.K == K


def test_objective_equals_evaluate_point_on_sweep_traffic(monkeypatch):
    # every point the search visits on the 138 rows of the distance_sweep
    # and blocksize_sweep presets, recorded by tools/objective_timing.py;
    # every 10th of each row's is held to the public reference bit for
    # bit, refusals by their text, and every 10th input those points gave
    # the Holevo kernel to the matrix route, bit for bit or both refused
    path = Path(__file__).resolve().parents[1] / "tools" / "objective_timing.py"
    spec = importlib.util.spec_from_file_location("objective_timing", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # one report per row: no recorded point falls back to the reference
    reports = []

    def counting(problem, point, _real=optimizer.evaluate_point):
        reports.append(point)
        return _real(problem, point)
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "evaluate_point", counting)
        visits, kernel_inputs = tool.visited_points()
    assert len(reports) == len(visits) == 138
    sample = [(problem, points[::10]) for problem, points in visits]
    assert sum(len(points) for _, points in sample) > 3000
    assert tool.mismatches(sample) == []
    assert len(kernel_inputs[::10]) > 3000
    for T, v_eps, v_s, v_mod_x, v_mod_p in kernel_inputs[::10]:
        outcomes = []
        for chi in (lambda: _holevo_bound(T, v_eps, v_s, v_mod_x, v_mod_p),
                    lambda: holevo_reference(ChannelParams(T, v_eps), SourceParams(v_s),
                                             v_mod_x, v_mod_p)):
            try:
                outcomes.append(chi().hex())
            except ValueError:
                outcomes.append(ValueError)
        assert outcomes[0] == outcomes[1], ((T, v_eps, v_s, v_mod_x, v_mod_p), outcomes)


def test_infeasible_points_are_counted_by_reason(monkeypatch):
    # no shipped problem mixes feasible and infeasible points, so the rate
    # is wrapped to refuse the strongest modulations under two reasons
    refused = Counter()

    def refusing(problem, _real=optimizer._planning_rate):
        rate = _real(problem)

        def wrapped(v, v2, r):
            if v > 30.0:
                reason = f"v > 30 at r {'<' if r < 0.1 else '>='} 0.1"
                refused[reason] += 1
                raise ValueError(reason)
            return rate(v, v2, r)
        return wrapped

    monkeypatch.setattr(optimizer, "_planning_rate", refusing)
    problem = OptimizationProblem(_channel(0.3), _params(1.0, "single", 10**7))
    result = optimize_key_rate(problem)
    assert result.infeasible == refused and len(refused) == 2
    assert 0 < sum(result.infeasible.values()) < result.evaluations


def test_all_infeasible_error_counts_the_other_reasons(monkeypatch):
    # every point refused under five reasons in turn: the error names the
    # three commonest and counts the rest
    calls = itertools.count()

    def refusing(problem):
        def wrapped(v, v2, r):
            raise ValueError(f"reason {next(calls) % 5}")
        return wrapped

    monkeypatch.setattr(optimizer, "_planning_rate", refusing)
    problem = OptimizationProblem(_channel(0.3), _params(1.0, "single", 10**7))
    with pytest.raises(ValueError) as refused:
        optimize_key_rate(problem)
    assert str(refused.value) == (
        "every grid point was infeasible; check the channel and block size: "
        "reason 0 (32 of 157 points); reason 1 (32 of 157 points); "
        "reason 2 (31 of 157 points); 2 other reasons")


def test_refinement_reports_rounds_and_convergence(monkeypatch):
    # every scheme of the distance_sweep preset at its farthest distance
    scenario = load_preset("distance_sweep")
    channel = channel_at_distance(scenario["sweep"]["max"], FiberModel(**scenario["fiber"]))
    for entry in scenario["schemes"]:
        result = optimize_key_rate(OptimizationProblem(
            channel, _params(entry["v_s"], entry["kind"], int(scenario["N"]))))
        assert result.converged and 1 <= result.rounds < 30
        assert result.infeasible == Counter()
    # a tolerance no round can meet runs to the round cap
    monkeypatch.setattr(optimizer, "_TOL", -1.0)
    problem = OptimizationProblem(_channel(0.3), _params(1.0, "single", 10**7))
    result = optimize_key_rate(problem)
    assert (result.rounds, result.converged) == (30, False)


def test_optimized_beats_fixed_operating_point():
    channel = channel_at_distance(20.0)
    src = SourceParams(1.0)
    params = ProtocolParams(src, Protocol("single", 1.0), 10**6)
    tuned = optimize_key_rate(OptimizationProblem(channel, params))
    fixed = evaluate_point(OptimizationProblem(channel, params, free=()),
                           {"v": 1.5, "r": 0.5})
    assert tuned.K >= fixed.K - 1e-12


def test_modified_subsumes_double():
    # r = 0 is inside the modified search box, so its optimum cannot lose
    channel = _channel(0.2)
    k_mod = optimize_key_rate(OptimizationProblem(channel, _params(0.5, "modified", 10**7))).K
    k_dbl = optimize_key_rate(OptimizationProblem(channel, _params(0.5, "double", 10**7))).K
    assert k_mod >= k_dbl - 1e-9


def test_optimize_reports_dead_channel():
    problem = OptimizationProblem(_channel(0.03), _params(1.0, "single", 10**5))
    result = optimize_key_rate(problem)
    assert result.status == "no_positive_rate"
    assert result.K <= 0.0


def test_first_positive_block_discloses_about_half():
    # deep loss, coherent source: scan the block size for the smallest
    # positive-rate block; right there the best split reveals about half
    def tuned(N):
        return optimize_key_rate(OptimizationProblem(
            _channel(0.03), _params(1.0, "single", int(N))))

    lo, hi = 1e8, 3e8
    assert tuned(lo).status == "no_positive_rate"
    assert tuned(hi).status == "ok"
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if tuned(mid).status == "ok":
            hi = mid
        else:
            lo = mid
    n_star = 0.5 * (lo + hi)
    assert 1.55e8 < n_star < 1.8e8
    assert tuned(hi).point["r"] == pytest.approx(0.5, abs=0.1)
    # with room to spare the optimum discloses much less
    assert tuned(1e9).point["r"] < 0.3


def test_ratio_curve_power_law_moderate_loss():
    # r_opt = alpha N^gamma, fitted on the block sizes with a positive
    # rate and a positive optimal fraction
    template = OptimizationProblem(_channel(0.3), _params(1.0, "single", 1000))
    problems = [replace(template, params=replace(template.params, N=int(round(float(n)))))
                for n in np.logspace(5, 9, 9)]
    points = [(float(problem.params.N), float(result.point["r"]))
              for problem, result in zip(problems, optimize_each(problems))
              if result.status == "ok" and result.point["r"] > 0.0]
    fit = fit_exponential_decay(_log10(n for n, _ in points), [r for _, r in points])
    assert len(points) >= 5
    assert -0.45 < -fit.kappa < -0.25
    assert 10.0 < fit.a < 100.0
    assert all(0.0 < r <= 0.9 for _, r in points)


# --------------------------------------------------------------------------
# independent problems on this process and forked children


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _childless():
    """Whether this process has no child left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _until_a_child_exits():
    """Block until a child of this process has exited, leaving it unreaped."""
    os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)


def test_optimize_each_equals_the_in_process_loop(monkeypatch):
    problems = [OptimizationProblem(_channel(T), _params(v_s, kind, N))
                for T, v_s, kind, N in [(0.3, 1.0, "single", 10**6),
                                        (0.1, 0.5, "double", 10**8),
                                        (0.2, 0.1, "modified", 10**7),
                                        (0.05, 1.0, "single", 10**9)]]
    expected = [optimize_key_rate(problem) for problem in problems]
    _cpus(monkeypatch, 2)
    assert optimize_each(problems) == expected
    assert optimize_each(iter(problems)) == expected
    assert optimize_each([]) == []
    assert _childless()


def test_optimize_each_raises_the_first_refusal_in_order(monkeypatch):
    # every point refused: T = 0 leaves nothing to estimate, r = 0 no sample
    opaque = OptimizationProblem(ChannelParams(0.0, 0.0), _params(1.0, "single", 10**6))
    no_sample = OptimizationProblem(_channel(0.3), ProtocolParams(
        SourceParams(1.0), Protocol("single", 1.0, r=0.0), 10**6), free=("v",))
    live = OptimizationProblem(_channel(0.3), _params(1.0, "double", 10**6))
    messages = {}
    for dead in (opaque, no_sample):
        with pytest.raises(ValueError) as alone:
            optimize_key_rate(dead)
        messages[dead] = str(alone.value)
    assert messages[opaque] != messages[no_sample]
    _cpus(monkeypatch, 2)
    for first, second in ((opaque, no_sample), (no_sample, opaque)):
        with pytest.raises(ValueError) as forked:
            optimize_each([live, first, live, second])
        assert str(forked.value) == messages[first]
        assert _childless()


def test_optimize_each_raises_a_child_error_with_its_type_in_order(monkeypatch):
    problems = [OptimizationProblem(_channel(T), _params(1.0, "double", 10**6))
                for T in (0.1, 0.2, 0.3, 0.4)]
    parent, taken = os.getpid(), []

    def refusing(problem):
        index = problems.index(problem)
        if os.getpid() == parent:
            # hold this one problem until the child has done all the others
            _until_a_child_exits()
            taken.append(index)
        elif index % 2:
            raise TypeError(f"problem {index} refused")
        return optimize_key_rate(problem)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(optimizer, "optimize_key_rate", refusing)
    with pytest.raises(TypeError) as refused:
        optimize_each(problems)
    assert len(taken) == 1
    first = min(index for index in (1, 3) if index not in taken)
    assert str(refused.value) == f"problem {first} refused"
    assert _childless()


def test_optimize_each_names_the_status_of_a_child_that_never_reports(monkeypatch):
    problems = [OptimizationProblem(_channel(T), _params(1.0, "double", 10**6))
                for T in (0.1, 0.2, 0.3)]
    parent = os.getpid()

    def dying(problem):
        if os.getpid() != parent:
            os._exit(3)
        _until_a_child_exits()
        return optimize_key_rate(problem)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(optimizer, "optimize_key_rate", dying)
    with pytest.raises(RuntimeError, match=r"ended with exit status 3 before it reported"):
        optimize_each(problems)
    assert _childless()


def test_optimize_each_kills_its_children_when_interrupted(monkeypatch):
    problems = [OptimizationProblem(_channel(T), _params(1.0, "double", 10**6))
                for T in (0.1, 0.2, 0.3)]
    parent = os.getpid()

    def interrupted(problem):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60.0)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(optimizer, "optimize_key_rate", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        optimize_each(problems)
    assert _childless()
    assert time.monotonic() - start < 30.0


def test_optimize_each_takes_more_problems_than_its_pipe_holds_tokens(monkeypatch):
    # 4-byte tokens: 20,000 of them overflow a 64 KiB pipe, let alone PIPE_BUF
    problems = [OptimizationProblem(_channel(0.3), ProtocolParams(
                    SourceParams(1.0), Protocol("single", 1.0 + i / 20000, r=0.2), 10**6),
                    free=())
                for i in range(20000)]
    expected = [optimize_key_rate(problem) for problem in problems]
    assert {result.evaluations for result in expected} == {1}
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    _cpus(monkeypatch, 2)
    assert optimize_each(problems) == expected
    assert forks == [1]
    assert _childless()


@pytest.mark.parametrize("cpus, problems, fork", [(1, 3, True), (2, 1, True), (2, 3, False)],
                         ids=["one-cpu", "one-problem", "no-fork"])
def test_optimize_each_runs_in_process_without_a_second_worker(monkeypatch, cpus,
                                                                problems, fork):
    def refuse():
        raise AssertionError("no fork expected")

    _cpus(monkeypatch, cpus)
    if fork:
        monkeypatch.setattr(os, "fork", refuse)
    else:
        monkeypatch.delattr(os, "fork")
    batch = [OptimizationProblem(_channel(0.3), _params(1.0, "double", 10**6))] * problems
    assert optimize_each(batch) == [optimize_key_rate(batch[0])] * problems


_KILLED_SWEEP = """
import os
from cvqkd import (ChannelParams, OptimizationProblem, Protocol, ProtocolParams,
                   SourceParams, optimize_each)

os.sched_getaffinity = lambda pid: {0, 1}
problem = OptimizationProblem(ChannelParams(0.3, 0.003), ProtocolParams(
    SourceParams(1.0), Protocol("single", 1.0, r=0.2), 10**6))
optimize_each([problem] * 5000)
"""


def _alive(pid):
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def _stat(pid):
    """The state letter and the CPU ticks of ``pid`` from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return fields[0], int(fields[11]) + int(fields[12])


def _forked_child(proc):
    """The pid of the one child that ``proc`` forks, once it has."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    children = f"/proc/{proc.pid}/task/{proc.pid}/children"
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        assert proc.poll() is None, "the sweep ended before its child started"
        try:
            with open(children) as handle:
                forked = [int(pid) for pid in handle.read().split()]
        except FileNotFoundError:
            pytest.skip("no /proc children list")
        if forked:
            # two CPUs: the sweep runs in its own process and in one child
            assert len(forked) == 1
            return forked[0]
        time.sleep(0.02)
    raise AssertionError("no child was forked within 30 s")


def _reap(proc, child):
    proc.kill()
    proc.wait()
    if child is not None and _alive(child):
        os.kill(child, signal.SIGKILL)


def test_optimize_each_workers_end_when_their_parent_is_killed():
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_SWEEP])
    child = None
    try:
        child = _forked_child(proc)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        time.sleep(2.0)
        assert not _alive(child)
    finally:
        _reap(proc, child)


_BLOCKED_REPORT = """
import os, time
from cvqkd import (ChannelParams, OptimizationProblem, Protocol, ProtocolParams,
                   SourceParams, optimize_each, optimizer)

os.sched_getaffinity = lambda pid: {0, 1}
parent, run = os.getpid(), optimizer.optimize_key_rate


def held(problem):
    if os.getpid() == parent:  # held in its first problem: it never reads
        time.sleep(3600.0)
    return run(problem)


optimizer.optimize_key_rate = held
optimize_each([OptimizationProblem(ChannelParams(0.3, 0.003), ProtocolParams(
    SourceParams(1.0), Protocol("single", 1.0 + i / 20000, r=0.2), 10**6), free=())
    for i in range(20000)])
"""


def test_optimize_each_worker_blocked_on_its_report_ends_when_its_parent_is_killed():
    # the child does every problem but the parent's one and then blocks
    # writing a report far larger than the pipe holds; once the parent is
    # gone no process may hold the pipe's read end, or it blocks for ever
    proc = subprocess.Popen([sys.executable, "-c", _BLOCKED_REPORT])
    child = None
    try:
        child = _forked_child(proc)
        deadline = time.monotonic() + 120.0
        last = None
        while True:
            assert time.monotonic() < deadline, "the child never blocked on its report"
            time.sleep(0.25)
            state, ticks = _stat(child)
            # asleep, and no CPU time spent since the last look
            if state == "S" and last == ticks:
                break
            last = ticks if state == "S" else None
        proc.kill()
        proc.wait(timeout=30)
        time.sleep(2.0)
        assert not _alive(child)
    finally:
        _reap(proc, child)


# --------------------------------------------------------------------------
# relations that any correct optimum obeys, on seeded fiber problems


def _fiber_optimum(kind, v_s, d, N, beta=0.95):
    """K* at ``d`` km of the default fiber, or None where it is refused."""
    try:
        return optimize_key_rate(OptimizationProblem(
            channel_at_distance(d, FiberModel()),
            ProtocolParams(SourceParams(v_s), Protocol(kind, 1.0), N, beta=beta))).K
    except ValueError:
        return None


_FIBER_PROBLEMS = dict(v_s=st.sampled_from((1.0, 0.5, 0.1)), d=st.floats(1.0, 120.0),
                       N=st.floats(5.0, 10.0).map(lambda e: int(round(10.0 ** e))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(("single", "double", "modified")), **_FIBER_PROBLEMS)
def test_optimum_is_monotone(kind, v_s, d, N):
    # K* does not rise with distance and does not fall with N or beta, to
    # 1e-9 relative; a pair with a refused side is skipped
    here = _fiber_optimum(kind, v_s, d, N)
    if here is None:
        return
    for relation, there, sign in [
            ("d + 0.5 km", _fiber_optimum(kind, v_s, d + 0.5, N), -1),
            ("N x 1.2", _fiber_optimum(kind, v_s, d, int(round(1.2 * N))), 1),
            ("beta 0.96", _fiber_optimum(kind, v_s, d, N, beta=0.96), 1)]:
        if there is not None:
            assert sign * (there - here) >= -1e-9 * abs(here), relation


@pytest.mark.xfail(strict=True, reason=(
    "known fault (ROADMAP item 2): the search can stop short of the modified "
    "optimum, below the double optimum that its r = 0 face contains"))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(**_FIBER_PROBLEMS)
@example(v_s=0.5, d=24.29, N=23_400_000)
def test_modified_optimum_dominates_double(v_s, d, N):
    double, modified = (_fiber_optimum(kind, v_s, d, N) for kind in ("double", "modified"))
    if double is not None and modified is not None:
        assert modified >= double - 1e-9 * abs(double)


# --------------------------------------------------------------------------
# disclosure zero crossing of the modified scheme


def test_zero_crossing_bracket_probes():
    # frozen from a full crossing run at v_s = 0.1: T* close to 0.288
    def probe(T):
        return optimize_key_rate(OptimizationProblem(
            _channel(T), _params(0.1, "modified", 10**6)))

    above = probe(0.36)
    assert above.status == "ok" and above.point.get("r", 0.0) > 1e-3
    below = probe(0.23)
    assert below.status == "ok" and below.point.get("r", 0.0) <= 1e-3


def test_zero_crossing_beta_sensitivity():
    template = OptimizationProblem(_channel(0.5), ProtocolParams(
        SourceParams(0.1), Protocol("modified", 1.0), 10**6, beta=0.8))
    t_star = optimal_ratio_zero_crossing(template)
    assert 0.05 < t_star < 0.5


def test_zero_crossing_requires_modified_scheme():
    with pytest.raises(ValueError):
        optimal_ratio_zero_crossing(OptimizationProblem(
            _channel(0.5), _params(0.1, "single", 10**6)))


def test_zero_crossing_found_for_each_squeezing():
    # claimed for every squeezing strength; for the coherent source the
    # optimum keeps disclosing down to the dead zone, so this raises
    # "disclosure persists down to the dead zone; no crossing" instead
    for vs in (1.0, 0.5, 0.1):
        template = OptimizationProblem(_channel(0.5), _params(vs, "modified", 10**6))
        t_star = optimal_ratio_zero_crossing(template)
        assert 0.01 < t_star < 1.0


# --------------------------------------------------------------------------
# fitted reach against the full pipeline


def test_fitted_reach_bounds_the_pipeline():
    fiber = FiberModel()
    fit = fit_exponential_keyrate(fiber)

    def death_distance(kind, N):
        lo, hi = 10.0, 220.0
        def alive(d):
            problem = OptimizationProblem(channel_at_distance(d, fiber),
                                          _params(0.1, kind, int(N)))
            return optimize_key_rate(problem).status == "ok"
        assert alive(lo)
        for _ in range(22):
            mid = 0.5 * (lo + hi)
            if alive(mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for N in (1e6, 1e8, 1e10):
        bound = max_distance(fit, N)
        assert bound > death_distance("single", N)
        assert bound > death_distance("modified", N)


def test_fit_exponential_keyrate_rejects_dead_window():
    # a coherent source with poor reconciliation has no positive rate in
    # the far part of the fixed window
    with pytest.raises(ValueError, match="^asymptotic rate is dead at 90.0 km, inside "
                                         "the fixed 30-150 km fit window$"):
        fit_exponential_keyrate(beta=0.6, v_s=1.0)


def _bits(values):
    return [float.hex(float(x)) for x in values]


def test_linspace_is_numpys_bit_for_bit():
    # the fitted window and the sweep axes feed published outputs, so the
    # grid must be numpy's to the last bit, not merely close
    rng = random.Random(20140902)
    for _ in range(10_000):
        lo = 10.0 ** rng.uniform(-4.0, 4.0)
        hi = lo * (1.0 + 10.0 ** rng.uniform(-8.0, 8.0))
        n = 2 if rng.random() < 0.2 else rng.randint(3, 300)
        assert _bits(numeric.linspace(lo, hi, n)) == _bits(np.linspace(lo, hi, n)), \
            (lo, hi, n)
    window = (*optimizer.FIT_WINDOW_KM, optimizer.FIT_POINTS)
    # a step that underflows takes numpy's other operation order
    for lo, hi, n in (window, (5e-324, 1.5e-323, 5), (5e-324, 1e-323, 3)):
        assert _bits(numeric.linspace(lo, hi, n)) == _bits(np.linspace(lo, hi, n))
    with pytest.raises(ValueError):
        numeric.linspace(0.0, 1.0, 1)


def test_log_grid_is_geomspace_to_rounding():
    # log axes reach published CSVs through log_grid: within 1e-12
    # relative of np.geomspace (5.3e-13 at most over 20,000 ranges drawn
    # as below), endpoints exact, also where hi / lo overflows (the
    # first three)
    rng = random.Random(20140902)
    for lo, hi in [(5e-324, 10.0), (1e-200, 1e200), (5e-324, 1.7e308)] + [
            (10.0 ** rng.uniform(-300.0, 0.0), 10.0 ** rng.uniform(0.0, 300.0))
            for _ in range(2_000)]:
        n = rng.randint(2, 60)
        grid = numeric.log_grid(lo, hi, n)
        assert (grid[0], grid[-1]) == (lo, hi)
        assert grid == pytest.approx(np.geomspace(lo, hi, n).tolist(), rel=1e-12, abs=0.0)


def test_grids_refuse_what_they_cannot_span():
    with pytest.raises(ValueError, match="at least 2 points"):
        numeric.log_grid(1.0, 10.0, 1)
    for lo, hi in ((0.0, 1.0), (2.0, 1.0), (1.0, 1.0)):
        with pytest.raises(ValueError, match="0 < lo < hi"):
            numeric.log_grid(lo, hi, 5)
    with pytest.raises(ValueError, match="at least 2 grid points"):
        numeric.grid_then_golden_max(lambda x: -x * x, [1.0], tol=1e-8)


# --------------------------------------------------------------------------
# problem validation


def test_optimization_problem_validation():
    ch = _channel(0.2)
    with pytest.raises(ValueError):
        OptimizationProblem(ch, _params(1.0, "triple", 10**6))
    with pytest.raises(ValueError):
        OptimizationProblem(ch, _params(1.0, "single", 1e6))  # N not an int
    with pytest.raises(ValueError):
        OptimizationProblem(ch, _params(1.0, "single", 10**6), free=("v2",))
    with pytest.raises(ValueError):
        OptimizationProblem(ch, _params(1.0, "double", 10**6), free=("v", "r"))
    for kind in ("double", "modified"):   # the probe variance is never searched
        with pytest.raises(ValueError, match="'v2' is not a free variable"):
            OptimizationProblem(ch, _params(1.0, kind, 10**6), free=("v", "v2"))
    with pytest.raises(ValueError, match="repeats"):
        OptimizationProblem(ch, _params(1.0, "double", 10**6), free=("v", "v"))
    problem = OptimizationProblem(ch, _params(1.0, "modified", 10**6))
    assert problem.params.protocol.v2 == 10.0
