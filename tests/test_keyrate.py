"""Entropy ingredients and the finite-size key rate assembly.

The Holevo bound is checked against two independently coded oracles: the
textbook closed form for a coherent source, and an explicit three-mode
beamsplitter dilation for lossy channels without excess noise.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from cvqkd import (
    ChannelParams,
    SourceParams,
    Protocol,
    ProtocolParams,
    ConfidenceBounds,
    mutual_information,
    holevo_bound,
    asymptotic_key_rate,
    finite_size_correction,
    finite_key_rate,
    expected_bounds,
    ideal_bounds,
    theoretical_noise_limit,
    theoretical_key_rate_limit,
    variance_model,
    channel_at_distance,
    OptimizationProblem,
    optimize_key_rate,
    evaluate_point,
)
from cvqkd.keyrate import (NU_TOLERANCE, SQUEEZING_LIMIT_VS, _entropy_bits,
                           _require_bona_fide, _thermal_entropy_bits,
                           optimal_asymptotic_rate)
from matrix_reference import (CovarianceMatrix2Mode, build_eb_covariance,
                              symplectic_eigenvalues)


def _g(x):
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def _chi_coherent_oracle(T, veps, V):
    """Closed-form Holevo bound for a coherent source modulated in both
    quadratures, written from the standard two-mode determinant recipe."""
    a = V + 1.0
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


def _chi_dilation_oracle(T, vs, vmx, vmp):
    """Holevo bound from an explicit purification: mode A purifies the
    prepared ensemble, a beamsplitter of transmittance T splits the signal
    into the receiver mode B and the environment mode C. Exact only for
    zero excess noise, where the dilation covers the whole channel."""
    vx = vs + vmx
    vp = 1.0 / vs + vmp
    mu = math.sqrt(vx * vp)
    corr = math.sqrt(max(mu * mu - 1.0, 0.0))
    cx = corr * math.sqrt(vx / mu)
    cp = -corr * math.sqrt(vp / mu)
    st, sr = math.sqrt(T), math.sqrt(1.0 - T)
    gx = np.array([
        [mu, st * cx, -sr * cx],
        [st * cx, T * vx + 1.0 - T, st * sr * (1.0 - vx)],
        [-sr * cx, st * sr * (1.0 - vx), (1.0 - T) * vx + T],
    ])
    gp = np.array([
        [mu, st * cp, -sr * cp],
        [st * cp, T * vp + 1.0 - T, st * sr * (1.0 - vp)],
        [-sr * cp, st * sr * (1.0 - vp), (1.0 - T) * vp + T],
    ])

    def entropy_of(gx_s, gp_s):
        m = gx_s @ gp_s
        nus = np.sqrt(np.maximum(np.linalg.eigvals(m).real, 1.0))
        return float(sum(_g((nu - 1.0) / 2.0) for nu in nus))

    s_e = entropy_of(gx[2:, 2:], gp[2:, 2:])
    # x homodyne on B, then reduce to the environment mode alone
    keep = [0, 2]
    gx_c = gx[np.ix_(keep, keep)] - np.outer(gx[keep, 1], gx[keep, 1]) / gx[1, 1]
    gp_c = gp[np.ix_(keep, keep)]
    s_e_cond = entropy_of(gx_c[1:, 1:], gp_c[1:, 1:])
    return s_e - s_e_cond


# --------------------------------------------------------------------------
# covariance construction


def test_eb_covariance_vacuum_identity():
    gamma = build_eb_covariance(ChannelParams(1.0, 0.0), SourceParams(1.0),
                                0.0, 0.0)
    assert np.allclose(gamma.entries, np.eye(4), atol=1e-12)


def test_eb_covariance_two_mode_squeezed():
    gamma = build_eb_covariance(ChannelParams(1.0, 0.0), SourceParams(1.0),
                                3.0, 3.0)
    e = gamma.entries
    assert e[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert e[2, 2] == pytest.approx(4.0, abs=1e-12)
    assert e[0, 2] == pytest.approx(math.sqrt(15.0), abs=1e-12)
    assert e[1, 3] == pytest.approx(-math.sqrt(15.0), abs=1e-12)


def test_eb_covariance_receiver_block():
    gamma = build_eb_covariance(ChannelParams(0.5, 0.01), SourceParams(0.5),
                                3.0, 0.0)
    assert gamma.entries[2, 2] == pytest.approx(2.26, abs=1e-12)
    assert gamma.entries[3, 3] == pytest.approx(1.51, abs=1e-12)


def test_eb_covariance_asymmetric_modulation_keeps_sender_isotropic():
    gamma = build_eb_covariance(ChannelParams(0.7, 0.0), SourceParams(0.1),
                                3.0, 0.0)
    assert gamma.entries[0, 0] == pytest.approx(gamma.entries[1, 1], rel=1e-14)


def test_covariance_matrix_validation():
    with pytest.raises(ValueError):
        CovarianceMatrix2Mode(np.zeros((3, 3)))
    bad = np.eye(4)
    bad[0, 2] = 1.0  # asymmetric
    with pytest.raises(ValueError):
        CovarianceMatrix2Mode(bad)
    # the scalar route refuses a negative modulation variance by quadrature
    channel, source = ChannelParams(0.5, 0.005), SourceParams(1.0)
    with pytest.raises(ValueError, match="x modulation variance must be >= 0"):
        holevo_bound(channel, source, -1.0, 3.0)
    with pytest.raises(ValueError, match="p modulation variance must be >= 0"):
        holevo_bound(channel, source, 3.0, -1.0)


_CH, _SRC = ChannelParams(0.5, 0.005), SourceParams(1.0)
# each public door to a scalar core, and the message it refuses a bad value with
_DOORS = {
    "holevo_bound-x": (lambda bad: holevo_bound(_CH, _SRC, bad, 0.0),
                       "x modulation variance must be >= 0"),
    "holevo_bound-p": (lambda bad: holevo_bound(_CH, _SRC, 3.0, bad),
                       "p modulation variance must be >= 0"),
    "mutual_information": (lambda bad: mutual_information(_CH, _SRC, bad),
                           "key modulation variance must be >= 0"),
    "asymptotic_key_rate": (lambda bad: asymptotic_key_rate(_CH, _SRC, bad),
                            "key modulation variance must be >= 0"),
    "variance_model-count": (lambda bad: variance_model(_CH, _SRC, [(bad, 3.0, 0.0)]),
                             "sample count must be > 0"),
    "variance_model-variance": (lambda bad: variance_model(_CH, _SRC, [(1e5, bad, 0.0)]),
                                "modulation variance must be > 0"),
    "variance_model-withheld": (lambda bad: variance_model(_CH, _SRC, [(1e5, 3.0, bad)]),
                                "withheld variance must be >= 0"),
}


@pytest.mark.parametrize("bad", [True, "3", math.nan, math.inf, 10**400, -1.0],
                         ids=["bool", "str", "nan", "inf", "huge-int", "negative"])
@pytest.mark.parametrize("door", list(_DOORS))
def test_public_doors_refuse_what_the_cores_do_not_check(door, bad):
    # the cores compare values only: a bool would pass their checks as 1 and
    # a string would raise TypeError, so the wrapper refuses both, with the
    # message of a bad value; an int beyond the float range must not escape
    # as an OverflowError
    call, message = _DOORS[door]
    with pytest.raises(ValueError) as refused:
        call(bad)
    assert str(refused.value) == f"{message}, got {bad!r}"


_BETA_DOORS = {
    "asymptotic_key_rate": lambda beta: asymptotic_key_rate(_CH, _SRC, 3.0, beta),
    "optimal_asymptotic_rate": lambda beta: optimal_asymptotic_rate(_CH, beta),
    "theoretical_key_rate_limit": lambda beta: theoretical_key_rate_limit(_CH, 1e8, beta),
}


@pytest.mark.parametrize("beta", [5.0, 0.0, math.nan, True, "x"],
                         ids=["above-1", "zero", "nan", "bool", "str"])
@pytest.mark.parametrize("door", list(_BETA_DOORS))
def test_rate_doors_refuse_a_bad_reconciliation_efficiency(door, beta):
    with pytest.raises(ValueError) as refused:
        _BETA_DOORS[door](beta)
    assert str(refused.value) == (
        f"reconciliation efficiency must lie in (0, 1], got {beta!r}")


# --------------------------------------------------------------------------
# entropies


def test_entropy_of_pure_state_vanishes():
    assert _entropy_bits((1.0, 1.0)) == 0.0


def test_entropy_reference_values():
    assert _entropy_bits((3.0,)) == pytest.approx(2.0, abs=1e-12)
    assert _entropy_bits((2.0, 5.0)) == pytest.approx(4.132331253245202, abs=1e-12)


def test_symplectic_spectrum_rejects_sub_vacuum():
    with pytest.raises(ValueError):
        _require_bona_fide((0.5,))


def test_lossless_channel_keeps_state_pure():
    gamma = build_eb_covariance(ChannelParams(1.0, 0.0), SourceParams(0.3),
                                3.0, 0.0)
    assert all(nu == pytest.approx(1.0, abs=1e-9) for nu in symplectic_eigenvalues(gamma))


# --------------------------------------------------------------------------
# information quantities


def test_mutual_information_values():
    got = mutual_information(ChannelParams(0.1, 0.0), SourceParams(1.0), 3.0)
    assert got == pytest.approx(0.5 * math.log2(1.3), abs=1e-15)
    assert got == pytest.approx(0.18925581162686492, abs=1e-15)
    assert mutual_information(ChannelParams(1.0, 0.0), SourceParams(1.0),
                              3.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="key modulation variance must be >= 0"):
        mutual_information(ChannelParams(0.1, 0.0), SourceParams(1.0), -1.0)


def test_holevo_matches_coherent_closed_form():
    worst = 0.0
    count = 0
    for T in np.linspace(0.02, 1.0, 25):
        for veps in (0.0, 0.005, 0.02, 0.05):
            for v in (0.3, 1.0, 1.5, 3.0, 10.0, 40.0):
                mine = holevo_bound(ChannelParams(float(T), veps),
                                    SourceParams(1.0), v, v)
                oracle = _chi_coherent_oracle(float(T), veps, v)
                worst = max(worst, abs(mine - oracle))
                count += 1
    assert count >= 500
    assert worst < 1e-9


def test_holevo_matches_beamsplitter_dilation():
    worst = 0.0
    for T in (0.05, 0.2, 0.5, 0.9):
        for vs in (0.1, 0.5, 1.0, 2.0):
            for (vmx, vmp) in ((3.0, 0.0), (3.0, 3.0), (0.7, 0.0)):
                mine = holevo_bound(ChannelParams(T, 0.0), SourceParams(vs),
                                    vmx, vmp)
                oracle = _chi_dilation_oracle(T, vs, vmx, vmp)
                worst = max(worst, abs(mine - oracle))
    assert worst < 1e-9


def test_holevo_vanishes_without_eavesdropping_channel():
    assert holevo_bound(ChannelParams(1.0, 0.0), SourceParams(1.0),
                        3.0, 3.0) < 1e-9
    # a channel that transmits nothing also leaks essentially nothing
    assert holevo_bound(ChannelParams(1e-9, 0.0), SourceParams(1.0),
                        3.0, 3.0) < 1e-6


def test_asymptotic_rate_identity_and_values():
    ch, src = ChannelParams(1.0, 0.0), SourceParams(1.0)
    k, i_ab, chi = asymptotic_key_rate(ch, src, 3.0, beta=1.0)
    assert k == pytest.approx(1.0, abs=1e-9)
    k95, _, _ = asymptotic_key_rate(ch, src, 3.0, beta=0.95)
    assert k95 == pytest.approx(0.95, abs=1e-9)

    ch = ChannelParams(0.4, 0.01)
    k, i_ab, chi = asymptotic_key_rate(ch, SourceParams(0.5), 2.0, beta=0.9)
    assert k == pytest.approx(0.9 * i_ab - chi, abs=1e-15)


def test_asymptotic_rate_double_uses_key_displacement_only():
    # the public probe displacement v2 never enters the rate
    ch, src = ChannelParams(0.3, 0.003), SourceParams(1.0)
    reports = [finite_key_rate(ProtocolParams(src, protocol, N=10**6), ideal_bounds(ch),
                               with_correction=False)
               for protocol in (Protocol("double", 3.0, 10.0),
                                Protocol("double", 3.0, 40.0),
                                Protocol("single", 3.0))]
    as_single = asymptotic_key_rate(ch, src, 3.0)
    for report in reports:
        assert (report.K_inf, report.I_AB, report.chi_BE) == as_single


# --------------------------------------------------------------------------
# finite-size pieces


def test_finite_size_correction_values():
    assert finite_size_correction(1e6, 1e-10) == pytest.approx(
        0.040948074026684184, rel=1e-12)
    n = 2.5e5
    assert finite_size_correction(4.0 * n) == pytest.approx(
        finite_size_correction(n) / 2.0, rel=1e-14)
    assert finite_size_correction(1e18) < 1e-7


def test_finite_size_correction_validation():
    with pytest.raises(ValueError):
        finite_size_correction(0.5)
    with pytest.raises(ValueError):
        finite_size_correction(1e6, delta_star=0.0)


def test_worst_case_corner_default_is_the_minimizer():
    params = ProtocolParams(SourceParams(1.0), Protocol("single", 3.0, r=0.5), N=10**6)
    bounds = ConfidenceBounds(T_low=0.18, veps_up=0.004, T_up=0.22, veps_low=0.0)
    report = finite_key_rate(params, bounds, corner_search=True)
    assert report.corner_agrees
    assert (report.T_eval, report.veps_eval) == (0.18, 0.004)
    assert report == finite_key_rate(params, bounds)


@pytest.mark.parametrize("T, v_eps, v_s, v, r, N, agrees, K, K_default", [
    # the digested --corner-search query
    (0.2, 0.002, 1.0, 3.0, 0.5, 10**5, True, -0.131564, -0.131564),
    # strong squeezing at a small key variance: the high-transmittance
    # corner (T_up, veps_up) costs more than the default one
    (0.05, 0.005, 1e-7, 0.25, 0.4, 10**7, False, -0.075899, -0.072237),
])
def test_corner_search_takes_the_lowest_corner(T, v_eps, v_s, v, r, N, agrees, K,
                                               K_default):
    ch = ChannelParams(T, v_eps)
    params = ProtocolParams(SourceParams(v_s), Protocol("single", v, r=r), N)
    bounds = expected_bounds(ch, params)
    default = finite_key_rate(params, bounds)
    searched = finite_key_rate(params, bounds, corner_search=True)
    assert default.corner_agrees and searched.corner_agrees == agrees
    assert searched.veps_eval == bounds.veps_up
    assert searched.T_eval == (bounds.T_low if agrees else bounds.T_up)
    assert (searched.K == default.K) == agrees
    assert searched.K == pytest.approx(K, abs=5e-7)
    assert default.K == pytest.approx(K_default, abs=5e-7)


def _corner_minimum(params, bounds, with_correction):
    """The four-corner rule on the public asymptotic rate: ``(index,
    K, K_inf, I_AB, chi_BE, T_eval, veps_eval)`` of the lowest corner."""
    corners = [(bounds.T_low, bounds.veps_up), (bounds.T_low, bounds.veps_low),
               (bounds.T_up, bounds.veps_up), (bounds.T_up, bounds.veps_low)]
    rated = []
    for t_c, v_c in corners:
        channel = ChannelParams(min(max(t_c, 0.0), 1.0), max(v_c, 0.0))
        k_inf, i_ab, chi = asymptotic_key_rate(channel, params.source, params.protocol.v,
                                               params.beta)
        rated.append((k_inf, i_ab, chi, channel.T, channel.v_eps))
    best = min(range(4), key=lambda i: rated[i][0])  # the first on a tie
    k_inf = rated[best][0]
    delta_n = finite_size_correction(params.n, params.delta_star) if with_correction else 0.0
    return (best, (params.n / params.N) * (k_inf - delta_n), *rated[best])


def test_corner_search_is_the_four_corner_minimum_on_random_boxes():
    rng = np.random.default_rng(2010)
    moved = refused = 0
    for _ in range(1200):
        kind = str(rng.choice(["single", "double", "modified"]))
        r = 0.0 if kind == "double" else float(rng.uniform(0.01, 0.9))
        protocol = Protocol(kind, float(10 ** rng.uniform(-2, 2)), r=r)
        params = ProtocolParams(SourceParams(float(rng.choice([1.0, 2.0, 0.5, 0.1, 1e-7]))),
                                protocol, int(10 ** rng.uniform(3, 11)),
                                beta=float(rng.uniform(0.8, 1.0)))
        T_low, T_up = np.sort(rng.uniform(-0.05, 0.98, 2))
        veps_low, veps_up = np.sort(rng.uniform(-0.01, 0.1, 2))
        # some boxes of zero width on a side, whose corners tie in pairs
        width = rng.integers(3)
        if width == 1:
            T_up = T_low = max(T_low, 0.0)
        elif width == 2:
            veps_low = veps_up
        bounds = ConfidenceBounds(float(T_low), float(veps_up), float(T_up), float(veps_low))
        with_correction = bool(rng.integers(2))
        try:
            best, K, k_inf, i_ab, chi, t_eval, veps_eval = _corner_minimum(
                params, bounds, with_correction)
        except ValueError as exc:
            # a corner the rate refuses (a rounded pure state) refuses the search
            refused += 1
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                finite_key_rate(params, bounds, corner_search=True,
                                with_correction=with_correction)
            continue
        report = finite_key_rate(params, bounds, corner_search=True,
                                 with_correction=with_correction)
        assert report.corner_agrees == (best == 0)
        assert (report.K, report.K_inf, report.I_AB, report.chi_BE) == (K, k_inf, i_ab, chi)
        assert (report.T_eval, report.veps_eval) == (t_eval, veps_eval)
        assert (report.T_low, report.veps_up) == (bounds.T_low, bounds.veps_up)
        moved += best != 0
    # the rule is exercised away from the default corner too
    assert moved > 100 and refused < 100


def test_finite_key_rate_reduces_to_asymptotic():
    ch, src = ChannelParams(0.5, 0.005), SourceParams(1.0)
    protocol = ProtocolParams(src, Protocol("single", 3.0, r=0.0), N=10**6)
    report = finite_key_rate(protocol, ideal_bounds(ch), with_correction=False)
    k_inf, i_ab, chi = asymptotic_key_rate(ch, src, 3.0, protocol.beta)
    assert report.K == pytest.approx(k_inf, abs=1e-15)
    assert report.I_AB == i_ab and report.chi_BE == chi
    assert report.Delta_n == 0.0


def test_finite_key_rate_assembly():
    src = SourceParams(1.0)
    protocol = ProtocolParams(src, Protocol("single", 3.0, r=0.25), N=10**6)
    bounds = ConfidenceBounds(T_low=0.49, veps_up=0.006, T_up=0.51, veps_low=0.004)
    report = finite_key_rate(protocol, bounds)
    assert report.n == 0.75e6 and report.m == 0.25e6
    assert report.K == pytest.approx(
        (report.n / protocol.N) * (report.K_inf - report.Delta_n), abs=1e-15)
    assert report.T_eval == 0.49 and report.veps_eval == 0.006


def test_finite_key_rate_nothing_left_to_distill():
    ch, src = ChannelParams(0.5, 0.0), SourceParams(1.0)
    protocol = ProtocolParams(src, Protocol("single", 3.0, r=1.0), N=10**6)
    report = finite_key_rate(protocol, ideal_bounds(ch))
    assert report.K == 0.0 and report.n == 0.0


def test_finite_key_rate_rejects_uncertain_bounds_without_disclosure():
    ch, src = ChannelParams(0.5, 0.0), SourceParams(1.0)
    protocol = ProtocolParams(src, Protocol("single", 3.0, r=0.0), N=10**6)
    for bounds in (ConfidenceBounds(T_low=0.49, veps_up=0.001, T_up=0.51, veps_low=0.0),
                   ConfidenceBounds(T_low=0.5, veps_up=0.001, T_up=0.5, veps_low=0.0),
                   ConfidenceBounds(T_low=0.49, veps_up=0.0, T_up=0.51, veps_low=0.0)):
        with pytest.raises(ValueError, match="r must be > 0 when the confidence box has width"):
            finite_key_rate(protocol, bounds)
    # a zero-width box carries no uncertainty, so nothing needs estimating
    report = finite_key_rate(protocol, ideal_bounds(ch))
    assert report.m == 0.0 and report.T_eval == 0.5 and report.veps_eval == 0.0


def test_finite_key_rate_clamps_corner_into_physical_range():
    src = SourceParams(1.0)
    protocol = ProtocolParams(src, Protocol("single", 3.0, r=0.5), N=10**4)
    bounds = ConfidenceBounds(T_low=-0.05, veps_up=-0.002, T_up=0.07, veps_low=-0.004)
    report = finite_key_rate(protocol, bounds)
    assert report.T_eval == 0.0 and report.veps_eval == 0.0
    assert math.isfinite(report.K)


# --------------------------------------------------------------------------
# the scalar Holevo kernel against the matrix route it replaces


def _holevo_reference(channel, source, v_mod_x, v_mod_p):
    gamma = build_eb_covariance(channel, source, v_mod_x, v_mod_p)
    s_joint = _entropy_bits(symplectic_eigenvalues(gamma))
    e = gamma.entries
    mu, b_x, c_x = e[0, 0], e[2, 2], e[0, 2]
    if not b_x > 0.0:
        raise ValueError("receiver x variance must be positive")
    det_cond = (mu - c_x * c_x / b_x) * mu
    if not det_cond >= -NU_TOLERANCE:
        raise ValueError("conditional state is not bona fide")
    nu_cond = math.sqrt(max(det_cond, 0.0))
    return s_joint - _thermal_entropy_bits((nu_cond - 1.0) / 2.0)


def _same_outcome(T, v_eps, v_s, v_mod_x, v_mod_p):
    args = (ChannelParams(T, v_eps), SourceParams(v_s), v_mod_x, v_mod_p)
    outcomes = []
    for f in (holevo_bound, _holevo_reference):
        try:
            outcomes.append(f(*args))
        except ValueError:
            outcomes.append(ValueError)
    assert outcomes[0] == outcomes[1], (args, outcomes)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(T=st.floats(0.0, 1.0), v_eps=st.floats(0.0, 0.5),
       v_s=st.floats(1e-7, 10.0), v_mod_x=st.floats(0.0, 1e3),
       v_mod_p=st.floats(0.0, 1e3))
def test_scalar_holevo_equals_matrix_reference(T, v_eps, v_s, v_mod_x, v_mod_p):
    _same_outcome(T, v_eps, v_s, v_mod_x, v_mod_p)


def test_scalar_holevo_equals_matrix_reference_at_edges():
    for T in (0.0, 1.0, 0.5):
        for v_eps in (0.0, 0.01, 0.5):
            for v_s in (SQUEEZING_LIMIT_VS, 1.0, 10.0):
                for v_mod_x in (0.0, 3.0, 1e3):
                    for v_mod_p in (0.0, 3.0, 1e3):
                        _same_outcome(T, v_eps, v_s, v_mod_x, v_mod_p)
    # beyond the float range both routes refuse the state: an entry whose
    # double overflows, and invariants that overflow
    for v_mod_x in (1e308, 1e160):
        _same_outcome(1.0, 0.0, 1.0, v_mod_x, 0.0)
        with pytest.raises(ValueError):
            holevo_bound(ChannelParams(1.0, 0.0), SourceParams(1.0), v_mod_x, 0.0)
    # and an ensemble whose mu overflows, which once divided by zero
    _same_outcome(0.5, 0.005, 1.0, 1e308, 1e308)
    for route in (holevo_bound, build_eb_covariance):
        with pytest.raises(ValueError, match="modulation variance"):
            route(ChannelParams(0.5, 0.005), SourceParams(1.0), 1e308, 1e308)
    # nothing leaks when the receiver gets nothing (T = 0) or nothing is
    # sent (no modulation of a coherent source)
    assert holevo_bound(ChannelParams(0.0, 0.0), SourceParams(1.0), 3.0, 3.0) == 0.0
    assert holevo_bound(ChannelParams(1.0, 0.0), SourceParams(1.0), 0.0, 0.0) == 0.0


# --------------------------------------------------------------------------
# properties over the optimizer's search box (v, v2, r) and every channel

_CHANNELS = dict(T=st.floats(0.0, 1.0), v_eps=st.floats(0.0, 0.1),
                 v_s=st.floats(SQUEEZING_LIMIT_VS, 1.0))


@pytest.mark.xfail(strict=True, reason=(
    "known fault: rounding near the pure state makes chi as low as -3e-7 on a "
    "noiseless channel with T > 1 - 5e-9 and strong squeezing"))
@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(**_CHANNELS, v_mod_x=st.floats(0.01, 100.0), v_mod_p=st.floats(0.0, 100.0))
def test_holevo_bound_is_not_negative(T, v_eps, v_s, v_mod_x, v_mod_p):
    try:
        chi = holevo_bound(ChannelParams(T, v_eps), SourceParams(v_s), v_mod_x, v_mod_p)
    except ValueError:  # an unphysical state, refused
        return
    assert chi >= 0.0


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "known fault: theoretical_key_rate_limit refuses a noiseless channel with "
    "T > 0.9999 (a symplectic eigenvalue below 1 in the squeezing limit)"))
# no shrinking: an example costs milliseconds and the fault is known
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(**_CHANNELS, kind=st.sampled_from(("single", "double", "modified")),
       v=st.floats(0.01, 100.0), v2=st.floats(0.1, 50.0), r=st.floats(0.0, 0.9),
       log10_N=st.floats(4.0, 10.0))
def test_key_rate_never_exceeds_theoretical_limit(T, v_eps, v_s, kind, v, v2, r,
                                                  log10_N):
    channel, N = ChannelParams(T, v_eps), int(round(10.0 ** log10_N))
    protocol = Protocol(kind, v, v2, 0.0 if kind == "double" else r)
    try:
        K = evaluate_point(OptimizationProblem(
            channel, ProtocolParams(SourceParams(v_s), protocol, N)), {}).K
    except ValueError:  # infeasible, as the optimizer scores it
        return
    if K > 0.0:
        assert K <= theoretical_key_rate_limit(channel, N)


# --------------------------------------------------------------------------
# idealised benchmarks


def test_theoretical_noise_limit_and_approx():
    ch, N = ChannelParams(0.5, 0.0), 1e6
    assert theoretical_noise_limit(ch, N) == pytest.approx(math.sqrt(2.0) * 0.5 / 1000.0,
                                                           rel=1e-12)
    # a disclosed arm of half the block cannot reach the full-block floor:
    # its s leads with sqrt(2/m) vn
    half = variance_model(ch, SourceParams(1.0), ((N / 2, 3.0, 0.0),))
    assert half.s > theoretical_noise_limit(ch, N)


def test_theoretical_key_rate_limit_assembly():
    ch, N = ChannelParams(0.5, 0.0), 1e6
    floor = theoretical_noise_limit(ch, N)
    k_inf, _ = optimal_asymptotic_rate(ChannelParams(0.5, floor), 0.95)
    got = theoretical_key_rate_limit(ch, N, beta=0.95)
    assert got == k_inf - finite_size_correction(N)


def test_theoretical_key_rate_limit_monotone_in_noise():
    N = 1e8
    clean = theoretical_key_rate_limit(ChannelParams(0.3, 0.0), N)
    noisy = theoretical_key_rate_limit(ChannelParams(0.3, 0.01), N)
    assert clean > noisy


def test_optimal_asymptotic_rate_deep_loss():
    k_opt, v_opt = optimal_asymptotic_rate(ChannelParams(0.03, 3e-4),
                                           v_s=0.1)
    assert k_opt > 1e-3
    assert 0.01 <= v_opt <= 100.0


def test_optimal_asymptotic_rate_lossless_prefers_strong_modulation():
    k_opt, v_opt = optimal_asymptotic_rate(ChannelParams(1.0, 0.0), beta=1.0,
                                           v_s=1.0)
    assert v_opt > 50.0
    assert k_opt > 2.0


# --------------------------------------------------------------------------
# a published operating point that the model does not reproduce


def test_double_modulation_rate_at_76km_small_block():
    # 76 km, coherent-boundary squeezing 0.1, N = 1e6: the optimized
    # double-modulation rate is claimed positive, but the finite-block
    # penalty (0.0409 at N = 1e6) exceeds the best achievable asymptotic
    # rate (about 0.030) at this loss, so the assembled rate is negative.
    channel = channel_at_distance(76.0)
    problem = OptimizationProblem(channel=channel, params=ProtocolParams(
        SourceParams(0.1), Protocol("double", 1.0), 10**6))
    result = optimize_key_rate(problem)
    assert result.K > 0.0
