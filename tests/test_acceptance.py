"""Quantitative anchors the library must reproduce, one test per criterion.

Run with -v for a pass/fail line per criterion; each test also prints the
measured quantity it asserts on (visible with -s or in failure output).
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from cvqkd import (
    ChannelParams,
    SourceParams,
    Protocol,
    ProtocolParams,
    SampleSet,
    FiberModel,
    channel_at_distance,
    confidence_coefficient,
    estimate_covariance,
    estimate_T,
    expected_bounds,
    holevo_bound,
    asymptotic_key_rate,
    theoretical_noise_limit,
    theoretical_key_rate_limit,
    OptimizationProblem,
    optimize_key_rate,
    optimize_each,
    evaluate_point,
    fit_exponential_decay,
    optimal_ratio_zero_crossing,
    fit_exponential_keyrate,
)
from cvqkd.model import DEFAULT_DELTA, replace
from cvqkd.cli import load_preset, run_montecarlo


def _g(x):
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def test_criterion_01_variance_model_validation(tmp_path):
    # N=1e5, r=0.5, V=V1=3, V2=10, eps ratio 0.01, coherent source,
    # 1000 trials per point, 20-point log grid over T in [0.01, 1]
    scenario = load_preset("variance_validation")
    started = time.perf_counter()
    _, rows = run_montecarlo(scenario, str(tmp_path))
    wall = time.perf_counter() - started

    worst_s = max(row.rel_err_s for row in rows)
    worst_sigma = max(row.rel_err_sigma for row in rows)
    print(f"rows={len(rows)} worst rel_err_s={worst_s:.4f} "
          f"worst rel_err_sigma={worst_sigma:.4f} wall={wall:.1f}s")
    assert len(rows) == 60
    for row in rows:
        assert row.rel_err_s < 0.10, (row.scheme, row.T, row.rel_err_s)

    single = [row for row in rows if row.scheme == "single"]
    double = [row for row in rows if row.scheme == "double"]
    modified = [row for row in rows if row.scheme == "modified"]
    # the single scheme's noise uncertainty barely moves across the grid
    s1 = [row.s_analytic for row in single]
    assert max(s1) / min(s1) < 1.02
    # deep loss: the double scheme sits on the statistical floor
    assert double[0].T == pytest.approx(0.01)
    assert double[0].s_analytic / double[0].veps_th == pytest.approx(1.0, abs=0.15)
    assert double[0].s_empirical / double[0].veps_th == pytest.approx(1.0, abs=0.15)
    # combining the arms never loses to either pure scheme
    for row_s, row_d, row_m in zip(single, double, modified):
        assert row_m.s_analytic <= min(row_s.s_analytic, row_d.s_analytic) * (1 + 1e-12)

    assert wall < 120.0


def test_criterion_02_holevo_closed_form_oracle():
    def chi_oracle(T, veps, v):
        a = v + 1.0
        b = T * (a - 1.0) + 1.0 + veps
        c = math.sqrt(T * (a * a - 1.0))
        delta = a * a + b * b - 2.0 * c * c
        d = a * b - c * c
        disc = math.sqrt(max(delta * delta - 4.0 * d * d, 0.0))
        nu1 = math.sqrt((delta + disc) / 2.0)
        nu2 = math.sqrt((delta - disc) / 2.0)
        nu3 = math.sqrt(a * (a - c * c / b))
        return (_g((nu1 - 1.0) / 2.0) + _g((nu2 - 1.0) / 2.0)
                - _g((nu3 - 1.0) / 2.0))

    worst, count = 0.0, 0
    for T in np.linspace(0.02, 1.0, 25):
        for veps in (0.0, 0.005, 0.02, 0.05):
            for v in (0.3, 1.0, 1.5, 3.0, 10.0, 40.0):
                mine = holevo_bound(ChannelParams(float(T), veps),
                                    SourceParams(1.0), v, v)
                worst = max(worst, abs(mine - chi_oracle(float(T), veps, v)))
                count += 1
    print(f"grid points={count} worst |difference|={worst:.3e}")
    assert count >= 500
    assert worst < 1e-9


def test_criterion_03_pure_channel_nulls():
    ch = ChannelParams(1.0, 0.0)
    for vs, v in ((1.0, 3.0), (0.5, 2.0), (1.0, 0.7)):
        chi = holevo_bound(ch, SourceParams(vs), v, v if vs >= 1.0 else 0.0)
        assert chi < 1e-9
    for beta in (0.8, 0.95, 1.0):
        k, i_ab, _ = asymptotic_key_rate(ch, SourceParams(1.0), 3.0, beta)
        assert k == pytest.approx(beta * i_ab, abs=1e-9)
    k1, _, _ = asymptotic_key_rate(ch, SourceParams(1.0), 3.0, 1.0)
    print(f"lossless unit-efficiency rate = {k1:.12f}")
    assert k1 == pytest.approx(1.0, abs=1e-9)


def test_criterion_04_confidence_coefficient():
    z = confidence_coefficient(DEFAULT_DELTA)
    print(f"z = {z:.6f}")
    assert abs(z - 6.5) < 0.05


def test_criterion_05_distance_fit_slope():
    started = time.perf_counter()
    fit = fit_exponential_keyrate()
    wall = time.perf_counter() - started
    km_per_decade = 0.5 / fit.kappa
    print(f"kappa={fit.kappa:.6f} km/decade={km_per_decade:.2f} "
          f"residual={fit.residual:.4f} wall={wall:.2f}s")
    assert abs(fit.kappa - 0.02) < 0.005
    assert abs(km_per_decade - 25.0) < 6.0
    assert wall < 60.0


def test_criterion_06_optimal_ratio_power_law():
    template = OptimizationProblem(ChannelParams(0.03, 0.0003), ProtocolParams(
        SourceParams(1.0), Protocol("single", 1.0), 1000))
    # r_opt = alpha N^gamma, fitted on the block sizes with a positive
    # rate and a positive optimal fraction
    problems = [replace(template, params=replace(template.params, N=int(round(float(n)))))
                for n in np.logspace(5, 9, 9)]
    points = [(float(problem.params.N), float(result.point["r"]))
              for problem, result in zip(problems, optimize_each(problems))
              if result.status == "ok" and result.point["r"] > 0.0]
    gamma = -fit_exponential_decay([math.log10(n) for n, _ in points],
                                   [r for _, r in points]).kappa
    print(f"gamma={gamma:.4f} from {len(points)} live points")
    assert abs(gamma - (-0.35)) < 0.10


def test_criterion_07_scheme_ordering():
    fiber = FiberModel()
    violations = []
    rows = 0
    for d in (10.0, 20.0, 30.0, 40.0, 50.0):
        channel = channel_at_distance(d, fiber)
        k_th = theoretical_key_rate_limit(channel, 1e6)
        k_single, k_mod = {}, {}
        for vs in (0.1, 0.5, 1.0):
            src = SourceParams(vs)
            k_single[vs] = optimize_key_rate(OptimizationProblem(
                channel, ProtocolParams(src, Protocol("single", 1.0), 10**6))).K
            k_mod[vs] = optimize_key_rate(OptimizationProblem(
                channel, ProtocolParams(src, Protocol("modified", 1.0), 10**6))).K
            k_legacy = evaluate_point(
                OptimizationProblem(channel, ProtocolParams(
                    SourceParams(1.0), Protocol("single", 1.0), 10**6), free=()),
                {"v": 1.5, "r": 0.5}).K
            rows += 1
            if k_single[vs] > 0 and k_legacy > 0 and \
                    k_single[vs] < k_legacy - 1e-9:
                violations.append(("single<legacy", d, vs))
            if channel.T <= 0.1 and k_mod[vs] > 0 and k_single[vs] > 0 and \
                    k_mod[vs] < k_single[vs] - 1e-9:
                violations.append(("modified<single", d, vs))
            for k in (k_single[vs], k_mod[vs]):
                if k > 0 and k_th < k - 1e-9:
                    violations.append(("benchmark<scheme", d, vs))
        for strong, weak in ((0.1, 0.5), (0.5, 1.0)):
            if max(k_single[strong], 0.0) < max(k_single[weak], 0.0) - 1e-9:
                violations.append(("squeeze-single", d, strong))
            if max(k_mod[strong], 0.0) < max(k_mod[weak], 0.0) - 1e-9:
                violations.append(("squeeze-modified", d, strong))
    print(f"rows={rows} violations={violations}")
    assert rows == 15
    assert violations == []


def test_criterion_08_disclosure_zero_crossing():
    template = OptimizationProblem(ChannelParams(0.5, 0.005), ProtocolParams(
        SourceParams(0.1), Protocol("modified", 1.0), 10**6))
    t_star = optimal_ratio_zero_crossing(template)
    print(f"T* = {t_star:.5f}")
    assert 0.1 <= t_star <= 0.3


def test_criterion_09_noise_bound_reaches_statistical_floor():
    channel = ChannelParams(1e-4, 0.01 * 1e-4)
    bounds = expected_bounds(channel, ProtocolParams(
        SourceParams(1.0), Protocol("double", 3.0, 10.0), 10**6))
    z = confidence_coefficient(DEFAULT_DELTA)
    ratio = (bounds.veps_up - channel.v_eps) / (
        z * theoretical_noise_limit(channel, 1e6))
    print(f"(Veps_up - Veps) / floor = {ratio:.6f}")
    assert abs(ratio - 1.0) < 0.05


def test_criterion_10_estimator_bias_scaling():
    # the covariance estimator is unbiased; the transmittance estimate
    # inherits a 1/m bias from squaring it. A control variate removes
    # the O(1/sqrt(m)) sampling term so 1e4 trials resolve the bias.
    T, v, veps, vs = 0.5, 3.0, 0.01, 1.0
    v_noise = 1.0 + veps + T * (vs - 1.0)
    c0 = math.sqrt(T) * v
    rng = np.random.Generator(np.random.PCG64(123456))
    trials = 10000
    bias = {}
    for m in (1000, 4000):
        acc = np.empty(trials)
        c_hat_acc = np.empty(trials)
        for k in range(trials):
            m_arr = rng.standard_normal(m) * math.sqrt(v)
            b_arr = (math.sqrt(T) * m_arr
                     + rng.standard_normal(m) * math.sqrt(v_noise))
            samples = SampleSet(m_arr, b_arr)
            c_hat = estimate_covariance(samples)
            t_hat = estimate_T(samples, v)
            acc[k] = t_hat - T - 2.0 * c0 * (c_hat - c0) / v**2
            c_hat_acc[k] = c_hat
        c_dev = abs(float(np.mean(c_hat_acc)) - c0) / (
            float(np.std(c_hat_acc, ddof=1)) / math.sqrt(trials))
        print(f"m={m}: covariance mean within {c_dev:.2f} SE, "
              f"T bias {np.mean(acc):.4e} (predicted {(2*T + v_noise/v)/m:.4e})")
        assert c_dev < 3.0
        bias[m] = float(np.mean(acc))
    ratio = bias[1000] / bias[4000]
    print(f"bias ratio m=1e3 / m=4e3 = {ratio:.3f}")
    assert 3.0 < ratio < 5.0


def test_criterion_11_preset_byte_determinism(tmp_path):
    presets = ["blocksize_sweep", "distance_sweep", "large_block_sweep",
               "noise_sweep", "reconciliation_sweep", "variance_validation"]
    outputs = {}
    for run in ("1", "2"):
        out_root = tmp_path / f"run{run}"
        for name in presets:
            out_dir = out_root / name
            cmd = ["montecarlo" if name == "variance_validation" else "sweep",
                   "--preset", name]
            proc = subprocess.run(
                [sys.executable, "-m", "cvqkd.cli", *cmd,
                 "--out", str(out_dir)],
                capture_output=True, timeout=600)
            assert proc.returncode == 0, (name, proc.stderr)
            outputs.setdefault(name, {})[run] = {
                p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
    for name in presets:
        assert outputs[name]["1"].keys() == outputs[name]["2"].keys()
        assert len(outputs[name]["1"]) >= 1
        for fname, blob in outputs[name]["1"].items():
            assert outputs[name]["2"][fname] == blob, (name, fname)
    print(f"byte-compared {sum(len(v['1']) for v in outputs.values())} files")


def test_headline_claim():
    # T=0.03: the tuned modified scheme at N=1e7 is claimed to beat the
    # legacy coherent baseline at N=1e8 by >= 5x
    channel = ChannelParams(0.03, 0.0003)
    k_mod_1e7 = optimize_key_rate(OptimizationProblem(channel, ProtocolParams(
        SourceParams(0.1), Protocol("modified", 1.0), 10**7))).K
    k_leg_1e8 = evaluate_point(
        OptimizationProblem(channel, ProtocolParams(
            SourceParams(1.0), Protocol("single", 1.0), 10**8), free=()),
        {"v": 1.5, "r": 0.5}).K
    k_mod_1e8 = optimize_key_rate(OptimizationProblem(channel, ProtocolParams(
        SourceParams(0.1), Protocol("modified", 1.0), 10**8))).K
    k_leg_1e9 = evaluate_point(
        OptimizationProblem(channel, ProtocolParams(
            SourceParams(1.0), Protocol("single", 1.0), 10**9), free=()),
        {"v": 1.5, "r": 0.5}).K
    message = (
        f"modified(N=1e7)={k_mod_1e7:+.6f}, legacy(N=1e8)={k_leg_1e8:+.6f}; "
        f"both are negative at the stated block sizes. One decade up the "
        f"claim holds: modified(N=1e8)={k_mod_1e8:+.6f} vs "
        f"legacy(N=1e9)={k_leg_1e9:+.6f}, ratio "
        f"{k_mod_1e8 / k_leg_1e9 if k_leg_1e9 > 0 else float('nan'):.2f}")
    print(message)
    assert k_leg_1e8 > 0.0 and k_mod_1e7 >= 5.0 * k_leg_1e8, message
