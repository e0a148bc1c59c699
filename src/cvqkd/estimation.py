"""Channel estimators, their analytic variance models, confidence bounds.

The receiver regresses its quadrature record against publicly revealed
modulation data to estimate the transmittance and the excess noise. Three
disclosure schemes are covered:

``single``
    a fraction ``r`` of the block reveals its (only) modulation and is
    burned for estimation;
``double``
    every sample carries an extra probe displacement that is always
    public, so the whole block estimates the channel and the whole block
    keeps its key displacement secret;
``modified``
    double modulation where the first ``r * N`` samples additionally
    reveal the key displacement, and the two sub-estimates are merged by
    inverse-variance weighting.

The analytic standard deviations returned here are leading order in
``1/m``. They are the planning counterpart of the sampled estimators in
:mod:`cvqkd.montecarlo`, which validates them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .model import (
    DEFAULT_DELTA,
    SINGLE,
    ChannelParams,
    Protocol,
    SourceParams,
    _finite,
    _require,
    aggregated_noise_variance,
)


@dataclass(frozen=True)
class SampleSet:
    """Paired record of revealed modulation values and received quadratures."""

    M: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.M)
        b = np.asarray(self.B)
        _require(m.ndim == 1 and b.ndim == 1, "sample arrays must be one-dimensional")
        _require(m.shape == b.shape, "modulation and quadrature records must have equal length")
        _require(m.size >= 1, "a sample set cannot be empty")
        _require(np.issubdtype(m.dtype, np.floating) or np.issubdtype(m.dtype, np.integer),
                 "modulation record must be numeric")
        _require(np.issubdtype(b.dtype, np.floating) or np.issubdtype(b.dtype, np.integer),
                 "quadrature record must be numeric")
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "B", b)

    def __len__(self) -> int:
        return int(self.M.size)


@dataclass(frozen=True)
class VarianceModel:
    """Analytic variances of the transmittance and excess-noise estimators."""

    sigma_sq: float  # variance of the transmittance estimator
    s_sq: float      # variance of the excess-noise estimator

    def __post_init__(self):
        _require(_finite(self.sigma_sq) and self.sigma_sq >= 0.0,
                 f"sigma_sq must be >= 0, got {self.sigma_sq!r}")
        _require(_finite(self.s_sq) and self.s_sq >= 0.0,
                 f"s_sq must be >= 0, got {self.s_sq!r}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma_sq)

    @property
    def s(self) -> float:
        return math.sqrt(self.s_sq)


@dataclass(frozen=True)
class ConfidenceBounds:
    """One-sided bounds actually consumed by the key rate, plus the other
    side of the box for optional corner searches.

    ``z = 0`` marks degenerate bounds that simply restate the point
    estimates (the idealised no-uncertainty evaluation).
    """

    T_low: float
    veps_up: float
    z: float
    delta: float
    T_up: float | None = None
    veps_low: float | None = None

    def __post_init__(self):
        _require(_finite(self.T_low), "T_low must be finite")
        _require(_finite(self.veps_up), "veps_up must be finite")
        _require(_finite(self.z) and self.z >= 0.0, "z must be >= 0")
        _require(_finite(self.delta) and 0.0 <= self.delta < 1.0,
                 "delta must lie in [0, 1)")


# --------------------------------------------------------------------------
# estimators acting on sampled records
#
# All reductions accumulate in double precision regardless of the dtype of
# the stored arrays; the bulk simulation keeps its records in single
# precision.


def _dot_mean(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.einsum("i,i->", x, y, dtype=np.float64) / x.size)


def estimate_covariance(samples: SampleSet) -> float:
    """Empirical mean of ``M * B``; unbiased for ``sqrt(T) * V_known``."""
    return _dot_mean(samples.M, samples.B)


def estimate_T(samples: SampleSet, v_known: float) -> float:
    """Transmittance estimate from the squared normalised covariance.

    Biased at order ``1/m`` (a square of a noisy quantity); the bias is one
    of the things the Monte Carlo layer measures. Values above 1 are
    possible and deliberately not clipped here.
    """
    _require(_finite(v_known) and v_known > 0.0,
             f"revealed modulation variance must be > 0, got {v_known!r}")
    c = estimate_covariance(samples)
    return (c / v_known) ** 2


def estimate_Veps(samples: SampleSet, t_hat: float, source: SourceParams) -> float:
    """Excess-noise estimate from the residuals of the transmittance fit.

    The returned value is raw: statistical fluctuation can push it below
    zero, and consumers that need a physical value clamp at the point of
    use, not here. ``source`` must describe everything that reaches the
    receiver but is not in the revealed record; a withheld displacement is
    folded in by enlarging ``v_s`` accordingly.
    """
    _require(_finite(t_hat) and t_hat >= 0.0, f"t_hat must be >= 0, got {t_hat!r}")
    st = math.sqrt(t_hat)
    resid = samples.B - st * samples.M
    return _dot_mean(resid, resid) + t_hat * (1.0 - source.v_s) - 1.0


# --------------------------------------------------------------------------
# analytic variance models
#
# The transmittance terms are kept in the factored form
# (4/m) * (2 T^2 + T * V_noise / V_revealed), which stays finite as T -> 0.


def variance_single(channel: ChannelParams, source: SourceParams,
                    v: float, m: float) -> VarianceModel:
    """Estimator variances when ``m`` disclosed samples of modulation
    variance ``v`` estimate the channel."""
    _require(channel.T > 0.0, "single-modulation estimation is degenerate at T = 0")
    _require(_finite(v) and v > 0.0, f"modulation variance must be > 0, got {v!r}")
    _require(_finite(m) and m > 0.0, f"sample count must be > 0, got {m!r}")
    T = channel.T
    vn = aggregated_noise_variance(channel, source)
    sigma_sq = (4.0 / m) * (2.0 * T * T + T * vn / v)
    s_sq = (2.0 / m) * vn * vn + (1.0 - source.v_s) ** 2 * sigma_sq
    return VarianceModel(sigma_sq, s_sq)


def variance_double(channel: ChannelParams, source: SourceParams,
                    protocol: Protocol, N: float) -> VarianceModel:
    """Estimator variances when the public probe displacement on all ``N``
    samples estimates the channel while the key displacement stays hidden."""
    _require(_finite(N) and N > 0.0, f"sample count must be > 0, got {N!r}")
    T = channel.T
    vns = aggregated_noise_variance(channel, source, protocol.v)
    sigma_sq = (4.0 / N) * (2.0 * T * T + T * vns / protocol.v2)
    s_sq = (2.0 / N) * vns * vns + (protocol.v + source.v_s - 1.0) ** 2 * sigma_sq
    return VarianceModel(sigma_sq, s_sq)


def opt_combine(w1: float, w2: float) -> float:
    """Variance of the inverse-variance combination of two unbiased
    estimators with variances ``w1`` and ``w2``."""
    _require(_finite(w1) and w1 > 0.0, f"w1 must be > 0, got {w1!r}")
    _require(_finite(w2) and w2 > 0.0, f"w2 must be > 0, got {w2!r}")
    return w1 * w2 / (w1 + w2)


def modified_double_arms(channel: ChannelParams, source: SourceParams,
                         protocol: Protocol, N: float):
    """Per-subset estimator variances for the split double-modulation block.

    Subset ``b`` is the first ``r * N`` samples with both displacements
    revealed; subset ``a`` is the remainder with only the probe revealed.
    Returns ``(sigma_a_sq, sigma_b_sq, sigma_sq, s_a_sq, s_b_sq, s_sq)``
    where the unsuffixed values are the combined variances. The combined
    transmittance variance feeds both noise arms, because each residual fit
    uses the merged transmittance estimate.
    """
    r = protocol.r
    _require(_finite(N) and N > 0.0, f"sample count must be > 0, got {N!r}")
    _require(0.0 < r < 1.0, f"the split needs 0 < r < 1, got {r!r}")
    T = channel.T
    vn = aggregated_noise_variance(channel, source)
    vns = aggregated_noise_variance(channel, source, protocol.v)
    na = (1.0 - r) * N
    nb = r * N
    sigma_a_sq = (4.0 / na) * (2.0 * T * T + T * vns / protocol.v2)
    sigma_b_sq = (4.0 / nb) * (2.0 * T * T + T * vn / (protocol.v + protocol.v2))
    if sigma_a_sq > 0.0 and sigma_b_sq > 0.0:
        sigma_sq = opt_combine(sigma_a_sq, sigma_b_sq)
    else:
        sigma_sq = 0.0  # only at T = 0, where both arms vanish
    s_a_sq = (2.0 / na) * vns * vns + (protocol.v + source.v_s - 1.0) ** 2 * sigma_sq
    s_b_sq = (2.0 / nb) * vn * vn + (1.0 - source.v_s) ** 2 * sigma_sq
    s_sq = opt_combine(s_a_sq, s_b_sq)
    return sigma_a_sq, sigma_b_sq, sigma_sq, s_a_sq, s_b_sq, s_sq


def variance_modified_double(channel: ChannelParams, source: SourceParams,
                             protocol: Protocol, N: float) -> VarianceModel:
    """Estimator variances for the split double-modulation scheme.

    ``r = 0``, which includes the double scheme, reduces to
    :func:`variance_double`; ``r = 1`` reveals both displacements
    everywhere, which is single-modulation estimation with the summed
    variance.
    """
    if protocol.r == 0.0:
        return variance_double(channel, source, protocol, N)
    if protocol.r == 1.0:
        return variance_single(channel, source, protocol.v + protocol.v2, N)
    _, _, sigma_sq, _, _, s_sq = modified_double_arms(channel, source, protocol, N)
    return VarianceModel(sigma_sq, s_sq)


# --------------------------------------------------------------------------
# confidence machinery


def confidence_coefficient(delta: float) -> float:
    """Two-sided Gaussian quantile: the number of standard deviations that
    leaves total tail probability ``delta``."""
    _require(_finite(delta) and 0.0 < delta < 1.0,
             f"delta must lie in (0, 1), got {delta!r}")
    return _two_sided_quantile(delta)


# an optimisation asks for the same delta hundreds of times; typed, so that
# a numpy scalar gets the value scipy gives for its own type
@functools.lru_cache(maxsize=64, typed=True)
def _two_sided_quantile(delta: float) -> float:
    return float(norm.isf(delta / 2.0))


def confidence_bounds(t_hat: float, veps_hat: float, model: VarianceModel,
                      delta: float = DEFAULT_DELTA) -> ConfidenceBounds:
    """Confidence box around the point estimates.

    The transmittance lower bound is clamped at 0; the excess-noise upper
    bound is left raw (a strongly negative estimate plus the margin can
    still be negative, and the evaluation layer clamps at use).
    """
    z = confidence_coefficient(delta)
    t_margin = z * model.sigma
    v_margin = z * model.s
    return ConfidenceBounds(
        T_low=max(0.0, t_hat - t_margin),
        veps_up=veps_hat + v_margin,
        z=z,
        delta=delta,
        T_up=t_hat + t_margin,
        veps_low=veps_hat - v_margin,
    )


def ideal_bounds(channel: ChannelParams) -> ConfidenceBounds:
    """Degenerate bounds equal to the true parameters (no uncertainty)."""
    return ConfidenceBounds(T_low=channel.T, veps_up=channel.v_eps,
                            z=0.0, delta=0.0,
                            T_up=channel.T, veps_low=channel.v_eps)


def expected_bounds(channel: ChannelParams, source: SourceParams,
                    protocol: Protocol, N: float,
                    delta: float = DEFAULT_DELTA) -> ConfidenceBounds:
    """Planning-mode bounds: the confidence box a typical run will produce,
    built from the true parameters and the analytic variance model."""
    if protocol.kind == SINGLE:
        model = variance_single(channel, source, protocol.v, protocol.r * N)
    else:
        model = variance_modified_double(channel, source, protocol, N)
    return confidence_bounds(channel.T, channel.v_eps, model, delta)
