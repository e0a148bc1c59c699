"""Holevo bound, asymptotic and finite-size rates.

Security is evaluated against Gaussian collective attacks in the
entanglement-based picture: the prepare-and-measure modulation is replaced
by an equivalent two-mode state shared between sender and channel input,
the eavesdropper is given the channel purification, and the Holevo bound
is computed from symplectic spectra of the joint and conditional
covariance matrices. The kernel, ``_holevo_bound``, works on the distinct
entries of those matrices in scalars, in one frame of ``math`` calls; the
4x4 matrix route it reproduces bit for bit, with its own helpers for the
entries, the spectrum and the entropies, lives beside its tests, in
``tests/matrix_reference.py``.

The finite-size rate prices in two effects on top of the asymptotic
formula: the channel parameters are only known inside a confidence box, so
the rate is taken at the pessimistic corner, and a penalty shrinking as
``1/sqrt(n)`` accounts for using ``n`` rather than infinitely many
symbols.

The public functions check their raw arguments' types, as the records
(:class:`~cvqkd.model.Record`) check their fields; the private scalar
cores behind them compare values only, and only values they compute. The
optimizer's objective calls the Holevo kernel, ``_holevo_bound``, on
every evaluation. A modulation variance is checked once, where it enters:
by ``_require_modulation`` at a public function, by
:class:`~cvqkd.model.Protocol` for a protocol's variances, and by the
search box or grid of the optimizers; the cores take it as checked.
"""

from __future__ import annotations

import math

from . import numeric
from .estimation import ConfidenceBounds
from .model import (
    DEFAULT_BETA,
    DEFAULT_DELTA_STAR,
    SINGLE,
    ChannelParams,
    ProtocolParams,
    Record,
    SourceParams,
    _finite,
    _noise_variance,
    _require,
    _require_beta,
)

_LOG2 = math.log(2.0)

# Symplectic eigenvalues may land below 1 by floating error on (near-)pure
# states; anything within this tolerance is treated as exactly 1, anything
# further below is rejected as unphysical.
NU_TOLERANCE = 1e-9

# Source variance used as a stand-in for arbitrarily strong squeezing when
# evaluating idealised benchmark rates.
SQUEEZING_LIMIT_VS = 1e-7


def _require_modulation(quadrature: str, value) -> None:
    # the one check of a raw modulation variance, its type included; the
    # cores take the variances as checked
    if not (_finite(value) and value >= 0.0):
        raise ValueError(f"{quadrature} modulation variance must be >= 0, got {value!r}")


def mutual_information(channel: ChannelParams, source: SourceParams,
                       v_key: float) -> float:
    """Shannon information per symbol between the key displacement and the
    receiver's homodyne outcome, in bits."""
    _require_modulation("key", v_key)
    return _mutual_information(channel.T, channel.v_eps, source.v_s, v_key)


def _mutual_information(T: float, v_eps: float, v_s: float, v_key: float) -> float:
    vn = _noise_variance(T, v_eps, v_s, 0.0)
    if not vn > 0.0:
        raise ValueError("aggregated noise variance must be positive")
    return 0.5 * math.log1p(T * v_key / vn) / _LOG2


def holevo_bound(channel: ChannelParams, source: SourceParams,
                 v_mod_x: float, v_mod_p: float) -> float:
    """Holevo information of the eavesdropper about the receiver's x
    quadrature, for reverse reconciliation.

    Computed as S(joint) - S(sender | receiver outcome); the channel
    purification gives the eavesdropper everything outside the two-mode
    state, so those entropies coincide with the eavesdropper's.

    Evaluated in scalars, in one function, with the checks and the
    floating-point operations of the 4x4 matrix route in
    ``tests/matrix_reference.py`` (``build_eb_covariance``,
    ``symplectic_eigenvalues``, then the entropy of each spectrum); the
    tests require the two to agree with ``==`` and pin each refusal's
    text.
    """
    _require_modulation("x", v_mod_x)
    _require_modulation("p", v_mod_p)
    return _holevo_bound(channel.T, channel.v_eps, source.v_s, v_mod_x, v_mod_p)


def _holevo_bound(T: float, v_eps: float, v_s: float,
                  v_mod_x: float, v_mod_p: float) -> float:
    # One frame that calls only math builtins, with the matrix reference's
    # operations in their operand order and its refusals in their order.
    # max(x, 0.0) is written 0.0 if 0.0 > x else x, which keeps NaN and
    # -0.0 as max does. First the distinct entries (mu, b_x, b_p, c_x, c_p)
    # of the entanglement-based covariance matrix.
    vx = v_s + v_mod_x
    vp = 1.0 / v_s + v_mod_p
    mu = math.sqrt(vx * vp)
    # an infinite mu would zero t below and divide by it
    if not math.isfinite(mu):
        raise ValueError("modulation variance too large: mu overflows at "
                         f"v_mod_x={v_mod_x!r}, v_mod_p={v_mod_p!r}")
    if not mu >= 1.0 - 1e-9:
        raise ValueError("prepared ensemble violates the uncertainty bound (mu < 1)")
    x = mu * mu - 1.0
    corr = math.sqrt(T * (0.0 if 0.0 > x else x))
    t = math.sqrt(vx / mu)
    b_x = T * vx + 1.0 - T + v_eps
    b_p = T * vp + 1.0 - T + v_eps
    c_x = corr * t
    c_p = -corr / t
    # the matrix symmetrises as 0.5 * (m + m.T), which overflows beyond
    # half the largest float
    if not (math.isfinite(mu + mu) and math.isfinite(b_x + b_x) and math.isfinite(b_p + b_p)
            and math.isfinite(c_x + c_x) and math.isfinite(c_p + c_p)):
        raise ValueError("covariance entries must be finite")
    # invariants of the x/p sector product, whose eigenvalues are the nu^2
    m11 = mu * mu + c_x * c_p
    m12 = mu * c_p + c_x * b_p
    m21 = c_x * mu + b_x * c_p
    m22 = c_x * c_p + b_x * b_p
    delta = m11 + m22
    try:
        disc = (m11 - m22) ** 2 + 4.0 * m12 * m21
    except OverflowError:  # the reference's numpy inf, which its spectrum rejects
        raise ValueError("symplectic invariants overflow") from None
    x = mu * b_x - c_x * c_x
    y = mu * b_p - c_p * c_p
    det_gamma = (0.0 if 0.0 > x else x) * (0.0 if 0.0 > y else y)
    if disc < 0.0:
        d = delta * delta
        if not disc >= -1e-9 * (d if d > 1.0 else 1.0):
            raise ValueError("two-mode covariance has complex symplectic invariants")
        disc = 0.0
    nu_sq_plus = 0.5 * (delta + math.sqrt(disc))
    if not nu_sq_plus > 0.0:
        raise ValueError("two-mode covariance is singular")
    nu_plus = math.sqrt(nu_sq_plus)
    # the small eigenvalue via the determinant, which avoids cancellation
    # in (delta - sqrt(disc)) when the eigenvalues are far apart
    nu_minus = math.sqrt(0.0 if 0.0 > det_gamma else det_gamma) / nu_plus
    if not math.isfinite(nu_plus):
        raise ValueError("symplectic eigenvalues must be finite")
    if nu_plus < 1.0 - NU_TOLERANCE:
        raise ValueError(f"symplectic eigenvalue {nu_plus!r} below 1; state is not bona fide")
    if not math.isfinite(nu_minus):
        raise ValueError("symplectic eigenvalues must be finite")
    if nu_minus < 1.0 - NU_TOLERANCE:
        raise ValueError(f"symplectic eigenvalue {nu_minus!r} below 1; state is not bona fide")
    # entropy g((nu - 1) / 2) of each thermal mode, 0 at x <= 0, in bits
    x = (nu_plus - 1.0) / 2.0
    y = (nu_minus - 1.0) / 2.0
    s_joint = (0.0 + (0.0 if x <= 0.0 else ((x + 1.0) * math.log1p(x) - x * math.log(x)) / _LOG2)
               + (0.0 if y <= 0.0 else ((y + 1.0) * math.log1p(y) - y * math.log(y)) / _LOG2))
    if not b_x > 0.0:
        raise ValueError("receiver x variance must be positive")
    # sender covariance conditioned on a homodyne x outcome at the receiver
    a_cond = mu - c_x * c_x / b_x
    det_cond = a_cond * mu
    if not det_cond >= -NU_TOLERANCE:
        raise ValueError("conditional state is not bona fide")
    x = (math.sqrt(0.0 if 0.0 > det_cond else det_cond) - 1.0) / 2.0
    return s_joint - (0.0 if x <= 0.0 else ((x + 1.0) * math.log1p(x) - x * math.log(x)) / _LOG2)


def asymptotic_key_rate(channel: ChannelParams, source: SourceParams,
                        v_key: float,
                        beta: float = DEFAULT_BETA) -> tuple[float, float, float]:
    """Collective-attack rate ``beta * I_AB - chi_BE`` for an infinitely
    long block and a key displacement of variance ``v_key``. Returns
    ``(rate, I_AB, chi_BE)``.

    A coherent (or anti-squeezed) source modulates both quadratures
    symmetrically; a squeezed source puts all modulation on the squeezed
    quadrature. A public probe displacement never enters: the receiver
    removes it, so it neither carries information nor strengthens the
    eavesdropper.
    """
    _require_modulation("key", v_key)
    _require_beta(beta)
    return _asymptotic_key_rate(channel.T, channel.v_eps, source.v_s, v_key, beta)


def _asymptotic_key_rate(T: float, v_eps: float, v_s: float, v_key: float,
                         beta: float) -> tuple[float, float, float]:
    v_mod_p = v_key if v_s >= 1.0 else 0.0
    i_ab = _mutual_information(T, v_eps, v_s, v_key)
    chi = _holevo_bound(T, v_eps, v_s, v_key, v_mod_p)
    return beta * i_ab - chi, i_ab, chi


def finite_size_correction(n: float, delta_star: float = DEFAULT_DELTA_STAR) -> float:
    """Rate penalty for distilling from ``n`` rather than infinitely many
    symbols, with failure budget ``delta_star``."""
    _require(_finite(n) and n >= 1.0, f"usable block must have n >= 1, got {n!r}")
    _require(_finite(delta_star) and 0.0 < delta_star < 1.0,
             f"delta_star must lie in (0, 1), got {delta_star!r}")
    return _penalty(n, _penalty_log(delta_star))


def _penalty_log(delta_star: float) -> float:
    """``log2(2 / delta_star)``, the part of the penalty fixed by the budget."""
    return math.log2(2.0 / delta_star)


def _penalty(n: float, log_term: float) -> float:
    return 7.0 * math.sqrt(log_term / n)


class KeyRateReport(Record):
    """Finite-size evaluation broken into its ingredients.

    ``K == (n / N) * (K_inf - Delta_n)`` holds exactly as assembled;
    ``K_inf`` is the asymptotic rate at the worst-case corner, evaluated at
    the clamped point ``(T_eval, veps_eval)``.
    """

    K: float
    K_inf: float
    I_AB: float
    chi_BE: float
    Delta_n: float
    T_low: float
    veps_up: float
    T_eval: float
    veps_eval: float
    n: float
    m: float
    N: int
    corner_agrees: bool = True


def finite_key_rate(params: ProtocolParams, bounds: ConfidenceBounds,
                    corner_search: bool = False,
                    with_correction: bool = True) -> KeyRateReport:
    """Finite-size secure key rate per block symbol, from the protocol and
    the confidence box alone.

    The asymptotic formula is evaluated at the pessimistic corner
    ``(T_low, veps_up)`` of the box (transmittance clamped into [0, 1],
    excess noise clamped at 0), the finite-block penalty is subtracted,
    and the result is scaled by the fraction of the block that remains
    for key. ``corner_search=True`` evaluates all four corners, in the
    order ``(T_low, veps_up)``, ``(T_low, veps_low)``, ``(T_up, veps_up)``,
    ``(T_up, veps_low)``, and keeps the one with the lowest ``K_inf``,
    the first on a tie; ``corner_agrees`` says whether that is the
    pessimistic one. ``with_correction=False`` drops the penalty;
    together with a zero-width box and ``r = 0`` that reproduces the
    asymptotic rate exactly.
    """
    protocol = params.protocol
    n = params.n
    m = params.m
    if (protocol.kind == SINGLE and m <= 0.0
            and (bounds.T_low != bounds.T_up or bounds.veps_low != bounds.veps_up)):
        raise ValueError("single-modulation estimation consumed no samples; "
                         "r must be > 0 when the confidence box has width")
    corners = [(bounds.T_low, bounds.veps_up)]
    if corner_search:
        corners += [(bounds.T_low, bounds.veps_low), (bounds.T_up, bounds.veps_up),
                    (bounds.T_up, bounds.veps_low)]
    v_s, v_key, beta, N = params.source.v_s, protocol.v, params.beta, params.N
    log_term = _penalty_log(params.delta_star) if with_correction else None
    rated = []
    for t_corner, v_corner in corners:
        t_eval = min(max(float(t_corner), 0.0), 1.0)
        veps_eval = max(float(v_corner), 0.0)
        k_inf, i_ab, chi = _asymptotic_key_rate(t_eval, veps_eval, v_s, v_key, beta)
        if n >= 1.0:
            delta_n = _penalty(n, log_term) if log_term is not None else 0.0
            key_rate = (n / N) * (k_inf - delta_n)
        else:
            # nothing left to distill from
            delta_n = 0.0
            key_rate = 0.0
        rated.append((key_rate, k_inf, i_ab, chi, delta_n, t_eval, veps_eval))
    i_min = min(range(len(rated)), key=lambda i: rated[i][1])
    key_rate, k_inf, i_ab, chi, delta_n, t_eval, veps_eval = rated[i_min]
    return KeyRateReport(K=key_rate, K_inf=k_inf, I_AB=i_ab, chi_BE=chi,
                         Delta_n=delta_n, T_low=bounds.T_low,
                         veps_up=bounds.veps_up, T_eval=t_eval,
                         veps_eval=veps_eval, n=n, m=m, N=N,
                         corner_agrees=i_min == 0)


# --------------------------------------------------------------------------
# idealised benchmarks


def theoretical_noise_limit(channel: ChannelParams, N: float) -> float:
    """Statistical floor on the excess-noise uncertainty from ``N``
    samples, reached in the limit of strong probe modulation."""
    _require(_finite(N) and N >= 1.0, f"sample count must be >= 1, got {N!r}")
    return math.sqrt(2.0) * (1.0 + channel.v_eps - channel.T) / math.sqrt(N)


def optimal_asymptotic_rate(channel: ChannelParams, beta: float = DEFAULT_BETA,
                            v_s: float | None = None) -> tuple[float, float]:
    """Asymptotic rate maximised over the modulation variance.

    ``v_s = None`` evaluates the strong-squeezing limit. Returns
    ``(rate, v_opt)``.
    """
    _require_beta(beta)
    source = SourceParams(SQUEEZING_LIMIT_VS if v_s is None else v_s)

    def rate_of(v: float) -> float:
        k, _, _ = _asymptotic_key_rate(channel.T, channel.v_eps, source.v_s, v, beta)
        return k

    grid = numeric.log_grid(1e-2, 1e2, 25)
    v_opt, k_opt = numeric.grid_then_golden_max(rate_of, grid, tol=1e-10)
    return k_opt, v_opt


def theoretical_key_rate_limit(channel: ChannelParams, N: float,
                               beta: float = DEFAULT_BETA,
                               delta_star: float = DEFAULT_DELTA_STAR) -> float:
    """Upper benchmark on any finite-size rate from a block of ``N``.

    Parameter uncertainty is reduced to its statistical floor: the excess
    noise is evaluated at the larger of its true value and the noise
    limit, the transmittance is taken as known. The source is arbitrarily
    strongly squeezed and the modulation optimised.
    """
    _require_beta(beta)
    veps_eval = max(channel.v_eps, theoretical_noise_limit(channel, N))
    k_inf, _ = optimal_asymptotic_rate(ChannelParams(channel.T, veps_eval), beta)
    return k_inf - finite_size_correction(N, delta_star)
