"""Channel estimators, their analytic variance models, confidence bounds.

The receiver regresses its quadrature record against publicly revealed
modulation data to estimate the transmittance and the excess noise. Each
scheme splits its block of ``N`` into estimation arms
``(samples, revealed variance, withheld variance)``:

``single``
    ``[(r N, v, 0)]``: a fraction ``r`` of the block reveals its only
    displacement and is burned for estimation;
``double``
    ``[(N, v2, v)]``: a public probe displacement on every sample
    estimates the channel while the key displacement stays hidden;
``modified``
    ``[((1 - r) N, v2, v), (r N, v + v2, 0)]``: the double scheme that
    also reveals the key displacement on ``r N`` samples, leaving out an
    arm of zero size.

The arms' sub-estimates merge by inverse-variance weighting. The analytic
standard deviations returned here are leading order in ``1/m`` (Leverrier,
Grosshans & Grangier, PRA 81, 062343, 2010). They are the planning
counterpart of the sampled estimators in :mod:`cvqkd.montecarlo`, which
validates them on the same arms.

numpy is imported inside :class:`SampleSet` and the sample reductions, on
first use, so the planning path (variance models and confidence bounds)
never loads it. As in :mod:`cvqkd.keyrate`, the public functions check
types and the private scalar cores compare values only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import (
    DEFAULT_DELTA,
    SINGLE,
    ChannelParams,
    Protocol,
    ProtocolParams,
    SourceParams,
    _finite,
    _noise_variance,
    _require,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SampleSet:
    """Paired record of revealed modulation values and received quadratures."""

    M: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        import numpy as np

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


@dataclass(frozen=True)
class VarianceModel:
    """Analytic variances of the transmittance and excess-noise estimators."""

    sigma_sq: float  # variance of the transmittance estimator
    s_sq: float      # variance of the excess-noise estimator
    per_arm: tuple = ()  # (sigma_sq, s_sq) of each arm before combination

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
    """A confidence box on the channel: its four sides, in the order
    :func:`confidence_bounds` builds them.

    The key rate is taken at the pessimistic corner ``(T_low, veps_up)``,
    or at the lowest of the four corners with a corner search. A box of
    zero width restates point estimates and carries no uncertainty.
    """

    T_low: float
    veps_up: float
    T_up: float
    veps_low: float

    def __post_init__(self):
        for name in ("T_low", "veps_up", "T_up", "veps_low"):
            _require(_finite(getattr(self, name)), f"{name} must be finite")
        # an inverted box would let a corner search rate a point outside it
        _require(self.T_low <= self.T_up,
                 f"T_up must be >= T_low = {self.T_low!r}, got {self.T_up!r}")
        _require(self.veps_low <= self.veps_up,
                 f"veps_low must be <= veps_up = {self.veps_up!r}, got {self.veps_low!r}")


# --------------------------------------------------------------------------
# estimators acting on sampled records
#
# Every estimator reads three means of a record, of M^2, MB and B^2; the
# cores below act on those means, as floats or as numpy arrays over the
# Monte Carlo trials. Reductions of stored records accumulate in double
# precision whatever the records' dtype.


def _dot_mean(x: np.ndarray, y: np.ndarray) -> float:
    import numpy as np

    return float(np.einsum("i,i->", x, y, dtype=np.float64) / x.size)


def _t_estimate(mb, v_known):
    """T-hat from the mean of ``M * B`` on a revealed variance ``v_known``."""
    return (mb / v_known) ** 2


def _veps_estimate(mm, mb, bb, t_hat, v_s):
    """V_eps-hat from the three means: the mean squared residual of the fit
    ``B ~ sqrt(t_hat) M``, expanded, less the vacuum and source shares."""
    return bb - 2.0 * t_hat ** 0.5 * mb + t_hat * mm + t_hat * (1.0 - v_s) - 1.0


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
    return _t_estimate(estimate_covariance(samples), v_known)


def estimate_Veps(samples: SampleSet, t_hat: float, source: SourceParams) -> float:
    """Excess-noise estimate from the residuals of the transmittance fit.

    The returned value is raw: statistical fluctuation can push it below
    zero, and consumers that need a physical value clamp at the point of
    use, not here. ``source`` must describe everything that reaches the
    receiver but is not in the revealed record; a withheld displacement is
    folded in by enlarging ``v_s`` accordingly.
    """
    _require(_finite(t_hat) and t_hat >= 0.0, f"t_hat must be >= 0, got {t_hat!r}")
    M, B = samples.M, samples.B
    return _veps_estimate(_dot_mean(M, M), _dot_mean(M, B), _dot_mean(B, B),
                          t_hat, source.v_s)


# --------------------------------------------------------------------------
# analytic variance models
#
# An arm is ``(samples, revealed, withheld)``: ``samples`` pairs regressed
# against a public displacement of variance ``revealed`` while a
# displacement of variance ``withheld`` stays hidden in the noise. The
# transmittance terms are kept in the factored form
# (4/m) * (2 T^2 + T * V_noise / V_revealed), which stays finite as T -> 0.


def estimation_arms(protocol: Protocol, kept: float,
                    disclosed: float) -> tuple[tuple[float, float, float], ...]:
    """The arms of ``protocol`` on a block split into ``kept`` samples
    whose key displacement stays secret and ``disclosed`` samples that
    reveal it; a probe-carrying scheme leaves out an arm of zero size."""
    return _arms(protocol.kind, protocol.v, protocol.v2, kept, disclosed)


def _arms(kind: str, v: float, v2: float, kept: float,
          disclosed: float) -> tuple[tuple[float, float, float], ...]:
    if kind == SINGLE:
        return ((disclosed, v, 0.0),)
    if disclosed == 0.0:
        return ((kept, v2, v),) if kept != 0.0 else ()
    if kept == 0.0:
        return ((disclosed, v + v2, 0.0),)
    return ((kept, v2, v), (disclosed, v + v2, 0.0))


def _inverse_variance(variances: list[float]) -> float:
    """Variance of the inverse-variance combination of unbiased estimators;
    one estimator passes through unchanged."""
    total = variances[0]
    for w in variances[1:]:
        if not (math.isfinite(total) and total > 0.0 and math.isfinite(w) and w > 0.0):
            raise ValueError(f"arm variances must be finite and > 0, got {variances!r}")
        total = total * w / (total + w)
    return total


def variance_model(channel: ChannelParams, source: SourceParams, arms) -> VarianceModel:
    """Estimator variances of a block estimated on ``arms``.

    Per arm, ``sigma_i^2 = (4/m) (2 T^2 + T vn / revealed)`` and
    ``s_i^2 = (2/m) vn^2 + (withheld + v_s - 1)^2 sigma^2``, where ``vn``
    is the noise the arm's regression sees and ``sigma^2`` the combined
    transmittance variance: each residual fit uses the merged estimate.
    Both combine by inverse variance over the arms. Revealing every
    displacement is degenerate at T = 0, so only a block with a withheld
    displacement is accepted there.
    """
    # the core compares values only, so here an arm's sample count and
    # revealed variance that are not floats must be reals a float can hold,
    # and its withheld variance, which the core never checks, a real >= 0
    for m, revealed, withheld in arms:
        if not (isinstance(revealed, float) or _finite(revealed)):
            raise ValueError(f"modulation variance must be > 0, got {revealed!r}")
        if not (isinstance(m, float) or _finite(m)):
            raise ValueError(f"sample count must be > 0, got {m!r}")
        if not (_finite(withheld) and withheld >= 0.0):
            raise ValueError(f"withheld variance must be >= 0, got {withheld!r}")
    sigma_sq, s_sq, sigmas, s_arms = _variance_model(channel.T, channel.v_eps, source.v_s,
                                                     arms)
    return VarianceModel(sigma_sq, s_sq, tuple(zip(sigmas, s_arms)))


def _variance_model(T: float, v_eps: float, v_s: float,
                    arms) -> tuple[float, float, list, list]:
    """``(sigma_sq, s_sq, sigmas, s_arms)``: the variances of
    :func:`variance_model` and of each arm before combination. It compares
    values only, and refuses the variances that :class:`VarianceModel`
    refuses, so that the planning path, which builds none, refuses them
    too."""
    if len(arms) == 0:
        raise ValueError("an estimation needs at least one arm")
    if not T > 0.0:
        for _, _, withheld in arms:
            if withheld > 0.0:
                break
        else:
            raise ValueError("estimation that reveals every displacement is degenerate at T = 0")
    sigmas, noises, gains = [], [], []
    for m, revealed, withheld in arms:
        if not (math.isfinite(revealed) and revealed > 0.0):
            raise ValueError(f"modulation variance must be > 0, got {revealed!r}")
        if not (math.isfinite(m) and m > 0.0):
            raise ValueError(f"sample count must be > 0, got {m!r}")
        vn = _noise_variance(T, v_eps, v_s, withheld)
        sigmas.append((4.0 / m) * (2.0 * T * T + T * vn / revealed))
        noises.append((2.0 / m) * vn * vn)
        try:  # a float ** raises where numpy would return inf
            gains.append((withheld + v_s - 1.0) ** 2)
        except OverflowError:
            raise ValueError("key variance too large: (v + v_s - 1)**2 overflows "
                             f"at v={withheld!r}, v_s={v_s!r}") from None
    # zero only at T = 0, where every arm vanishes
    sigma_sq = _inverse_variance(sigmas) if min(sigmas) > 0.0 else 0.0
    s_arms = []  # a loop: a comprehension would cost a call per evaluation
    for noise, gain in zip(noises, gains):
        s_arms.append(noise + gain * sigma_sq)
    s_sq = _inverse_variance(s_arms)
    if not (math.isfinite(sigma_sq) and sigma_sq >= 0.0):
        raise ValueError(f"sigma_sq must be >= 0, got {sigma_sq!r}")
    if not (math.isfinite(s_sq) and s_sq >= 0.0):
        raise ValueError(f"s_sq must be >= 0, got {s_sq!r}")
    return sigma_sq, s_sq, sigmas, s_arms


# --------------------------------------------------------------------------
# confidence machinery


def confidence_coefficient(delta: float) -> float:
    """Two-sided Gaussian quantile: the number of standard deviations that
    leaves total tail probability ``delta``."""
    _require(_finite(delta) and 0.0 < delta < 1.0,
             f"delta must lie in (0, 1), got {delta!r}")
    z = -_ndtri(float(delta) / 2.0)
    _require(math.isfinite(z), f"delta = {delta!r} is too small: delta / 2 underflows to 0")
    return z


# Lower half of the cephes normal quantile ``ndtri`` (Moshier), transcribed
# operation for operation: scipy's ``norm.isf(q)`` is ``-ndtri(q)``, so z
# keeps scipy's bits and every output stays byte-identical without scipy.
# ``statistics.NormalDist`` (Wichura's AS241) differs by an ulp or two and
# would move published outputs, so switching to it is a re-baselining
# decision of its own.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# Each Q has cephes' implicit leading 1 written out: 1.0 * x + c is x + c
# exactly, so ``_polevl`` also computes cephes ``p1evl``.
# central branch, exp(-2) < y <= 1 - exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# tail on x = sqrt(-2 ln y) in [2, 8), i.e. exp(-32) < y <= exp(-2)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# far tail, x >= 8
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule from the leading coefficient, as cephes ``polevl``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """Standard normal quantile for ``0 <= y <= 1 - exp(-2)``; cephes
    reflects larger ``y`` into the lower tail, which z never needs."""
    if y == 0.0:
        return -math.inf
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    return -(x0 - z * _polevl(z, p) / _polevl(z, q))


def confidence_bounds(t_hat: float, veps_hat: float, model: VarianceModel,
                      delta: float = DEFAULT_DELTA) -> ConfidenceBounds:
    """Confidence box around the point estimates.

    The transmittance lower bound is clamped at 0; the excess-noise upper
    bound is left raw (a strongly negative estimate plus the margin can
    still be negative, and the evaluation layer clamps at use).
    """
    return ConfidenceBounds(*_confidence_box(t_hat, veps_hat, model.sigma_sq, model.s_sq,
                                             confidence_coefficient(delta)))


def _confidence_box(t_hat: float, veps_hat: float, sigma_sq: float, s_sq: float,
                    z: float) -> tuple[float, float, float, float]:
    """``(T_low, veps_up, T_up, veps_low)``: margins of ``z`` standard
    deviations around the estimates."""
    t_margin = z * math.sqrt(sigma_sq)
    v_margin = z * math.sqrt(s_sq)
    return (max(0.0, t_hat - t_margin), veps_hat + v_margin,
            t_hat + t_margin, veps_hat - v_margin)


def ideal_bounds(channel: ChannelParams) -> ConfidenceBounds:
    """The zero-width box at the true parameters (no uncertainty)."""
    return ConfidenceBounds(channel.T, channel.v_eps, channel.T, channel.v_eps)


def expected_bounds(channel: ChannelParams, params: ProtocolParams) -> ConfidenceBounds:
    """Planning-mode bounds: the confidence box a typical run will produce,
    built from the true parameters and the analytic variance model."""
    protocol = params.protocol
    arms = estimation_arms(protocol, params.n, protocol.r * params.N)
    model = variance_model(channel, params.source, arms)
    return confidence_bounds(channel.T, channel.v_eps, model, params.delta)
