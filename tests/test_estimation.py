"""Channel estimators, their analytic variance models and confidence bounds."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvqkd import (
    ChannelParams,
    SourceParams,
    Protocol,
    ProtocolParams,
    SampleSet,
    VarianceModel,
    ConfidenceBounds,
    estimate_covariance,
    estimate_T,
    estimate_Veps,
    estimation_arms,
    variance_model,
    confidence_coefficient,
    confidence_bounds,
    expected_bounds,
    ideal_bounds,
)
from cvqkd.estimation import _ndtri


def _z_oracle(delta):
    """Two-sided Gaussian quantile via stdlib erfc bisection."""
    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# estimators on explicit sample records


def test_estimate_covariance_small_arrays():
    assert estimate_covariance(SampleSet(np.array([1.0]), np.array([0.5]))) == 0.5
    assert estimate_covariance(SampleSet(np.array([1.0, -1.0]),
                                         np.array([1.0, -1.0]))) == 1.0


def test_estimate_T_small_arrays():
    s = SampleSet(np.array([1.0]), np.array([0.5]))
    assert estimate_T(s, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert estimate_T(SampleSet(np.array([1.0]), np.array([0.0])), 1.0) == 0.0


def test_estimate_T_rejects_nonpositive_variance():
    s = SampleSet(np.array([1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        estimate_T(s, 0.0)


def test_estimate_Veps_single_residual():
    s = SampleSet(np.array([1.0]), np.array([2.0]))
    got = estimate_Veps(s, 1.0, SourceParams(1.0))
    assert got == pytest.approx(0.0, abs=1e-15)


def test_estimate_Veps_zero_residuals_squeezed():
    # perfectly clean record: the estimate shows the vacuum/squeezing offset
    m = np.array([1.0, -2.0, 0.5])
    b = math.sqrt(0.5) * m
    got = estimate_Veps(SampleSet(m, b), 0.5, SourceParams(0.5))
    assert got == pytest.approx(-0.75, abs=1e-12)


def test_estimate_Veps_not_clamped():
    # statistical fluctuation may push the raw estimate below zero
    m = np.array([1.0, 1.0])
    b = np.array([0.0, 0.0])
    got = estimate_Veps(SampleSet(m, b), 0.0, SourceParams(1.0))
    assert got == -1.0


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        SampleSet(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        SampleSet(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        SampleSet(np.array(["a"]), np.array(["b"]))


def test_estimation_scheme_validation():
    # the estimation half of a Protocol: its kind and its sample ratio
    with pytest.raises(ValueError):
        Protocol("triple", 3.0)
    with pytest.raises(ValueError):
        Protocol("single", 3.0, r=1.5)
    with pytest.raises(ValueError):
        Protocol("double", 3.0, r=0.5)           # the double scheme burns no samples
    with pytest.raises(ValueError):
        Protocol("modified", 3.0, r=-0.1)
    assert Protocol("modified", 3.0, r=0.3).r == 0.3


# --------------------------------------------------------------------------
# analytic variance models: arms (samples, revealed, withheld)


def _scheme(ch, src, protocol, N):
    """The planning model of ``protocol`` on a block of ``N``."""
    arms = estimation_arms(protocol, (1.0 - protocol.r) * N, protocol.r * N)
    return variance_model(ch, src, arms)


def test_estimation_arms_of_the_three_schemes():
    assert estimation_arms(Protocol("single", 3.0, r=0.5), 5e4, 5e4) == ((5e4, 3.0, 0.0),)
    assert estimation_arms(Protocol("double", 3.0, 10.0), 1e5, 0.0) == ((1e5, 10.0, 3.0),)
    modified = Protocol("modified", 3.0, 10.0, 0.3)
    assert estimation_arms(modified, 7e4, 3e4) == ((7e4, 10.0, 3.0), (3e4, 13.0, 0.0))
    # an empty arm is left out, except the single scheme's only one
    assert estimation_arms(modified, 0.0, 1e5) == ((1e5, 13.0, 0.0),)
    assert estimation_arms(modified, 1e5, 0.0) == ((1e5, 10.0, 3.0),)
    assert estimation_arms(Protocol("single", 3.0), 1e5, 0.0) == ((0.0, 3.0, 0.0),)


def test_variance_single_reference_point():
    model = variance_model(ChannelParams(0.1, 0.0), SourceParams(1.0), ((1e5, 3.0, 0.0),))
    assert model.sigma_sq == pytest.approx(2.1333333333333334e-06, rel=1e-12)
    assert model.s_sq == pytest.approx(2e-05, rel=1e-12)


def test_variance_single_coherent_noise_term_is_channel_free():
    # with a coherent source the noise estimator variance collapses to
    # 2 (1 + veps)^2 / m, independent of both T and the modulation variance
    for T in (0.05, 0.3, 0.9):
        for v in (0.5, 3.0, 20.0):
            model = variance_model(ChannelParams(T, 0.02), SourceParams(1.0), ((1e4, v, 0.0),))
            assert model.s_sq == pytest.approx(2.0 * 1.02**2 / 1e4, rel=1e-12)


def test_variance_single_sample_scaling():
    ch, src = ChannelParams(0.2, 0.002), SourceParams(0.5)
    a = variance_model(ch, src, ((1e4, 3.0, 0.0),))
    b = variance_model(ch, src, ((4e4, 3.0, 0.0),))
    assert a.sigma / b.sigma == pytest.approx(2.0, rel=1e-12)
    assert a.s / b.s == pytest.approx(2.0, rel=1e-12)


def test_variance_single_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        variance_model(ChannelParams(0.0, 0.0), SourceParams(1.0), ((100.0, 3.0, 0.0),))
    with pytest.raises(ValueError):
        variance_model(ChannelParams(0.5, 0.0), SourceParams(1.0), ((100.0, 0.0, 0.0),))
    with pytest.raises(ValueError):
        variance_model(ChannelParams(0.5, 0.0), SourceParams(1.0), ((0.0, 3.0, 0.0),))
    with pytest.raises(ValueError):
        variance_model(ChannelParams(0.5, 0.0), SourceParams(1.0), ())
    # the noise term (2/m) vn^2 overflows while the transmittance term does not
    with pytest.raises(ValueError, match="s_sq must be >= 0, got inf"):
        variance_model(ChannelParams(0.5, 1e200), SourceParams(1.0), ((100.0, 3.0, 0.0),))
    with pytest.raises(ValueError, match="s_sq must be >= 0"):
        VarianceModel(0.0, -1.0)


def test_arm_model_refusals():
    src, ok = SourceParams(1.0), ChannelParams(0.5, 0.005)
    opaque = ChannelParams(0.0, 0.0)
    refused = [
        (opaque, Protocol("single", 3.0, r=0.5), "degenerate at T = 0"),
        (ok, Protocol("single", 0.0, r=0.5), "modulation variance must be > 0"),
        (ok, Protocol("single", 3.0, r=0.0), "sample count must be > 0"),
        (opaque, Protocol("modified", 3.0, 10.0, 1.0), "degenerate at T = 0"),
        (ok, Protocol("double", 1e308, 10.0), "key variance too large"),
        # two faults: the arm's revealed v + v2 = inf is checked before T = 0
        (opaque, Protocol("modified", 1e308, 1e308, 1.0),
         "modulation variance must be > 0, got inf"),
    ]
    for channel, protocol, message in refused:
        with pytest.raises(ValueError, match=message):
            _scheme(channel, src, protocol, 1e5)
    # a withheld displacement keeps T = 0 estimable
    assert _scheme(opaque, src, Protocol("modified", 3.0, 10.0, 0.5), 1e5).sigma_sq == 0.0


def test_variance_double_reference_point():
    model = _scheme(ChannelParams(0.1, 0.001), SourceParams(1.0), Protocol("double", 3.0, 10.0), 1e5)
    assert model.sigma_sq == pytest.approx(1.3204e-06, rel=1e-12)
    assert model.s_sq == pytest.approx(4.5735620000000004e-05, rel=1e-12)


def test_variance_double_low_transmittance_limit():
    # as T -> 0 the noise uncertainty floors at sqrt(2/N) (1 + veps)
    mod = Protocol("double", 3.0, 10.0)
    model = _scheme(ChannelParams(1e-12, 0.01), SourceParams(1.0), mod, 1e6)
    assert model.s == pytest.approx(math.sqrt(2.0 / 1e6) * 1.01, rel=1e-9)


def test_variance_double_probe_strength_helps():
    ch, src = ChannelParams(0.1, 0.001), SourceParams(1.0)
    prev = None
    for v2 in (1.0, 3.0, 10.0, 30.0, 100.0):
        sig = _scheme(ch, src, Protocol("double", 3.0, v2), 1e5).sigma_sq
        if prev is not None:
            assert sig < prev
        prev = sig


def test_opt_combine_values():
    # arms that differ only in size combine like one arm of their summed
    # size; a coherent, fully revealed arm has s^2 = 2 vn^2 / m exactly
    ch, src = ChannelParams(0.2, 0.002), SourceParams(1.0)
    for sizes, total in (((1e4, 1e4), 2e4), ((1e4, 3e4), 4e4), ((1e4, 1e-26), 1e4)):
        split = variance_model(ch, src, tuple((m, 3.0, 0.0) for m in sizes))
        whole = variance_model(ch, src, ((total, 3.0, 0.0),))
        assert split.sigma_sq == pytest.approx(whole.sigma_sq, rel=1e-12)
        assert split.s_sq == pytest.approx(whole.s_sq, rel=1e-12)


def test_opt_combine_dominated_by_smaller_input():
    rng = np.random.Generator(np.random.PCG64(5))
    src = SourceParams(0.5)
    for _ in range(200):
        T, m1, m2, v, v2 = rng.uniform((0.01, 1e2, 1e2, 0.1, 0.1), (1.0, 1e6, 1e6, 50.0, 50.0))
        ch = ChannelParams(float(T), 0.01 * float(T))
        arms = ((float(m1), float(v2), float(v)), (float(m2), float(v + v2), 0.0))
        model = variance_model(ch, src, arms)
        assert model.sigma_sq <= min(sig for sig, _ in model.per_arm)
        assert model.s_sq <= min(s for _, s in model.per_arm)
        swapped = variance_model(ch, src, arms[::-1])
        assert (swapped.sigma_sq, swapped.s_sq) == (model.sigma_sq, model.s_sq)


def test_opt_combine_rejects_nonpositive():
    ch, src = ChannelParams(0.1, 0.001), SourceParams(1.0)
    with pytest.raises(ValueError):   # an arm too small has infinite variance
        variance_model(ch, src, ((1e5, 10.0, 3.0), (5e-324, 13.0, 0.0)))
    with pytest.raises(ValueError):
        variance_model(ch, src, ((1e5, 10.0, 3.0), (-1.0, 13.0, 0.0)))


def test_variance_modified_double_endpoints():
    ch, src = ChannelParams(0.1, 0.001), SourceParams(1.0)
    at_zero = _scheme(ch, src, Protocol("modified", 3.0, 10.0, r=0.0), 1e5)
    ref = _scheme(ch, src, Protocol("double", 3.0, 10.0), 1e5)
    assert at_zero.sigma_sq == ref.sigma_sq and at_zero.s_sq == ref.s_sq

    at_one = _scheme(ch, src, Protocol("modified", 3.0, 10.0, 1.0), 1e5)
    ref1 = variance_model(ch, src, ((1e5, 13.0, 0.0),))
    assert at_one.sigma_sq == ref1.sigma_sq and at_one.s_sq == ref1.s_sq


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(T=st.floats(0.0, 1.0), v_eps=st.floats(0.0, 0.1), v_s=st.floats(1e-7, 10.0),
       v=st.floats(0.01, 100.0), v2=st.floats(0.1, 50.0), log10_N=st.floats(0.3, 12.0))
def test_modified_endpoints_are_the_pure_schemes(T, v_eps, v_s, v, v2, log10_N):
    ch, src, N = ChannelParams(T, v_eps), SourceParams(v_s), float(round(10.0 ** log10_N))
    at_zero = _scheme(ch, src, Protocol("modified", v, v2, 0.0), N)
    assert at_zero == _scheme(ch, src, Protocol("double", v, v2), N)
    if T > 0.0:  # revealing everything is refused at T = 0
        at_one = _scheme(ch, src, Protocol("modified", v, v2, 1.0), N)
        single = Protocol("single", v + v2, r=1.0)
        assert at_one == _scheme(ch, src, single, N)


def test_variance_modified_double_continuous_at_zero():
    ch, src = ChannelParams(0.1, 0.001), SourceParams(1.0)
    near = _scheme(ch, src, Protocol("modified", 3.0, 10.0, 1e-6), 1e5)
    ref = _scheme(ch, src, Protocol("double", 3.0, 10.0), 1e5)
    assert near.sigma_sq == pytest.approx(ref.sigma_sq, rel=1e-5)
    assert near.s_sq == pytest.approx(ref.s_sq, rel=1e-5)


def test_variance_modified_double_beats_both_constituents():
    ch, src = ChannelParams(0.05, 0.0005), SourceParams(1.0)
    combined = _scheme(ch, src, Protocol("modified", 3.0, 10.0, r=0.5), 1e5)
    (sig_a, s_a), (sig_b, s_b) = combined.per_arm
    assert combined.sigma_sq <= min(sig_a, sig_b) + 1e-18
    assert combined.s_sq <= min(s_a, s_b) + 1e-18
    assert combined.sigma_sq == pytest.approx(sig_a * sig_b / (sig_a + sig_b), rel=1e-14)
    assert combined.s_sq == pytest.approx(s_a * s_b / (s_a + s_b), rel=1e-14)


def test_variance_modified_double_below_pure_schemes_on_grid():
    src = SourceParams(1.0)
    N, r = 1e5, 0.5
    mod = Protocol("modified", 3.0, 10.0, r)
    for T in np.logspace(-2, 0, 20):
        ch = ChannelParams(float(T), 0.01 * float(T))
        s3 = _scheme(ch, src, mod, N).s
        s1 = _scheme(ch, src, Protocol("single", 3.0, r=r), N).s
        s2 = _scheme(ch, src, Protocol("double", 3.0, 10.0), N).s
        assert s3 <= min(s1, s2) * (1.0 + 1e-12)


def test_variance_modified_double_rejects_bad_ratio():
    ch, src = ChannelParams(0.1, 0.001), SourceParams(1.0)
    with pytest.raises(ValueError):
        _scheme(ch, src, Protocol("modified", 3.0, 10.0, -0.1), 1e5)
    with pytest.raises(ValueError):
        _scheme(ch, src, Protocol("modified", 3.0, 10.0, 1.1), 1e5)
    with pytest.raises(ValueError):   # the arms such a ratio would split into
        variance_model(ch, src, ((-1e4, 10.0, 3.0), (1.1e5, 13.0, 0.0)))


# --------------------------------------------------------------------------
# confidence machinery


def test_confidence_coefficient_against_stdlib_oracle():
    for delta in (2e-12, 2e-10, 1e-10, 1e-6, 0.05, 0.2):
        assert confidence_coefficient(delta) == pytest.approx(
            _z_oracle(delta), abs=1e-6)


def test_confidence_coefficient_reference_values():
    # at the default failure budget the margin sits a little under 6.5 sigma
    assert confidence_coefficient(1e-10) == pytest.approx(6.4669510872, abs=1e-6)
    assert confidence_coefficient(0.3174) == pytest.approx(1.0, abs=1e-3)


def test_confidence_coefficient_monotone():
    deltas = (1e-10, 1e-8, 1e-4, 0.01, 0.5)
    zs = [confidence_coefficient(d) for d in deltas]
    assert all(a > b for a, b in zip(zs, zs[1:]))


# branch edges of the cephes quantile with their neighbours; above
# 1 - exp(-2) cephes reflects into the upper tail, which the port leaves out
_NDTRI_EDGES = [y for e in (math.exp(-2), math.exp(-32))
                for y in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0))]
_NDTRI_EDGES += [math.nextafter(1.0 - math.exp(-2), 0.0), 1.0 - math.exp(-2),
                 0.5, sys.float_info.min, 5e-324, 0.0]


def test_normal_quantile_port_equals_scipy_ndtri():
    # the port must keep scipy's bits: every output depends on z
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(20140902)
    # log-uniform for the tails, uniform for the central branch
    ys = np.concatenate([10.0 ** rng.uniform(-300.0, math.log10(0.5), 20000),
                         rng.uniform(0.0, 0.5, 20000), _NDTRI_EDGES])
    got = [_ndtri(y) for y in ys.tolist()]
    mismatches = [(y, g, want) for y, g, want in zip(ys.tolist(), got, special.ndtri(ys).tolist())
                  if g != want]
    assert not mismatches, mismatches[:5]


# largest error of z(delta) in ulp of the exact value: a scan of 115,000
# seeded deltas on (1e-300, 0.5] against 300-bit mpmath found at most 4.62
# ulp, at delta = 0.3185 in the central branch, where z falls below 1
_Z_ULP_BOUND = 5.0


def test_confidence_coefficient_accuracy_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    deltas = np.concatenate([10.0 ** np.linspace(-300.0, math.log10(0.5), 151),
                             rng.uniform(0.27, 0.5, 150)])
    with mpmath.workprec(300):
        def ulp_error(delta):
            z = confidence_coefficient(delta)
            # the exact z solves erfc(z / sqrt 2) = delta, here in log space
            target = mpmath.log(mpmath.mpf(delta))
            exact = mpmath.findroot(
                lambda t: mpmath.log(mpmath.erfc(t / mpmath.sqrt(2))) - target,
                mpmath.mpf(z))
            return float(abs(z - exact)) / math.ulp(float(exact))
        worst = max((ulp_error(d), d) for d in deltas.tolist())
    assert worst[0] <= _Z_ULP_BOUND, worst


def test_confidence_coefficient_rejects_out_of_range():
    with pytest.raises(ValueError):
        confidence_coefficient(0.0)
    with pytest.raises(ValueError):
        confidence_coefficient(1.0)
    # half the smallest positive double rounds to 0, whose quantile is infinite
    with pytest.raises(ValueError, match="delta"):
        confidence_coefficient(5e-324)
    assert confidence_coefficient(1e-323) == pytest.approx(38.4674056, abs=1e-6)


def test_confidence_bounds_zero_variance():
    b = confidence_bounds(0.4, 0.002, VarianceModel(0.0, 0.0), 1e-10)
    assert b.T_low == 0.4 and b.veps_up == 0.002
    assert b.T_up == 0.4 and b.veps_low == 0.002


def test_confidence_bounds_arithmetic():
    delta = math.erfc(6.5 / math.sqrt(2.0))  # margin of exactly 6.5 sigma
    model = VarianceModel(1.46e-3 ** 2, 0.0)
    b = confidence_bounds(0.1, 0.0, model, delta)
    assert b.T_low == pytest.approx(0.09051, abs=1e-5)


def test_confidence_bounds_clamps_transmittance_only():
    model = VarianceModel(1.0, 1.0)
    b = confidence_bounds(0.1, 0.0, model, 1e-10)
    assert b.T_low == 0.0                # clamped: negative T is unphysical
    assert b.veps_up > 6.0               # raw margin, no clamping
    assert b.veps_low < 0.0              # the other side stays raw too


def test_confidence_bounds_refuse_a_non_finite_side():
    sides = {"T_low": 0.18, "veps_up": 0.004, "T_up": 0.22, "veps_low": 0.0}
    for field, value in (("T_low", math.nan), ("veps_up", math.inf), ("T_up", math.nan),
                         ("T_up", math.inf), ("veps_low", -math.inf), ("veps_low", math.nan)):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ConfidenceBounds(**{**sides, field: value})
    # a box is its four sides: none may be left out
    for field in sides:
        with pytest.raises(TypeError, match=field):
            ConfidenceBounds(**{k: x for k, x in sides.items() if k != field})


def test_confidence_bounds_refuse_an_inverted_box():
    with pytest.raises(ValueError, match=r"T_up must be >= T_low = 0\.3, got 0\.1"):
        ConfidenceBounds(T_low=0.3, veps_up=0.001, T_up=0.1, veps_low=0.0)
    with pytest.raises(ValueError, match=r"veps_low must be <= veps_up = 0\.001, got 0\.05"):
        ConfidenceBounds(T_low=0.1, veps_up=0.001, T_up=0.3, veps_low=0.05)
    # a degenerate box is a box
    b = ConfidenceBounds(T_low=0.2, veps_up=0.001, T_up=0.2, veps_low=0.001)
    assert b.T_low == b.T_up and b.veps_low == b.veps_up
    # a negative estimate whose margin stays below 0: T_low clamps to 0
    # above T_up, so the box is refused
    with pytest.raises(ValueError, match="T_up must be >= T_low = 0.0"):
        confidence_bounds(-1.0, 0.0, VarianceModel(0.01, 0.01), 1e-10)
    b = confidence_bounds(-0.01, 0.0, VarianceModel(0.01, 0.01), 1e-10)
    assert b.T_low == 0.0 < b.T_up


def test_ideal_bounds_degenerate():
    ch = ChannelParams(0.37, 0.004)
    b = ideal_bounds(ch)
    assert b.T_low == ch.T and b.veps_up == ch.v_eps
    assert b.T_up == ch.T and b.veps_low == ch.v_eps  # zero width
    assert b == ConfidenceBounds(ch.T, ch.v_eps, ch.T, ch.v_eps)


def test_expected_bounds_match_scheme_models():
    ch, src = ChannelParams(0.2, 0.002), SourceParams(1.0)
    z = confidence_coefficient(1e-10)

    got = expected_bounds(ch, ProtocolParams(src, Protocol("single", 3.0, r=0.5), 10**5))
    ref = variance_model(ch, src, ((0.5e5, 3.0, 0.0),))
    assert got.T_low == pytest.approx(ch.T - z * ref.sigma, rel=1e-12)
    assert got.veps_up == pytest.approx(ch.v_eps + z * ref.s, rel=1e-12)

    mod_d = Protocol("double", 3.0, 10.0)
    got = expected_bounds(ch, ProtocolParams(src, mod_d, 10**5))
    ref = variance_model(ch, src, ((1e5, 10.0, 3.0),))
    assert got.veps_up == pytest.approx(ch.v_eps + z * ref.s, rel=1e-12)

    mod_m = Protocol("modified", 3.0, 10.0, 0.3)
    got = expected_bounds(ch, ProtocolParams(src, mod_m, 10**5))
    ref = variance_model(ch, src, ((0.7e5, 10.0, 3.0), (0.3e5, 13.0, 0.0)))
    assert got.veps_up == pytest.approx(ch.v_eps + z * ref.s, rel=1e-12)


def test_expected_bounds_tighten_with_block_size():
    ch, src = ChannelParams(0.1, 0.001), SourceParams(1.0)
    b = expected_bounds(ch, ProtocolParams(src, Protocol("double", 3.0, 10.0), 10**14))
    assert b.T_low == pytest.approx(ch.T, abs=1e-5)
    assert b.veps_up == pytest.approx(ch.v_eps, abs=1e-5)


def test_expected_bounds_double_low_transmittance_margin():
    ch, src = ChannelParams(1e-9, 0.01), SourceParams(1.0)
    b = expected_bounds(ch, ProtocolParams(src, Protocol("double", 3.0, 10.0), 10**6))
    z = confidence_coefficient(1e-10)
    assert b.veps_up - ch.v_eps == pytest.approx(
        z * math.sqrt(2.0 / 1e6) * 1.01, rel=1e-6)


def test_expected_bounds_double_beats_single_at_low_transmittance():
    # hiding the key displacement keeps the whole block usable for
    # estimation, which wins clearly in the deep-loss regime
    ch, src = ChannelParams(0.03, 0.0003), SourceParams(1.0)
    single = expected_bounds(ch, ProtocolParams(src, Protocol("single", 3.0, r=0.5), 10**6))
    double = expected_bounds(ch, ProtocolParams(src, Protocol("double", 3.0, 10.0), 10**6))
    assert double.veps_up < single.veps_up

