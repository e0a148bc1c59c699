"""Independent recomputation of the finite-size key rate, stdlib only.

Nothing here imports ``cvqkd``. The formulas are written out from the
paper's model (shot-noise units, Gaussian collective attacks, reverse
reconciliation with homodyne detection) so that a fault in the library's
rate code cannot hide behind the same fault in its check:

* ``z`` from :class:`statistics.NormalDist` instead of ``scipy.stats``;
* the estimator variances sigma^2 and s^2 of the single, double and
  modified schemes, and from them ``T_low`` and ``Veps_up``;
* ``I_AB`` from the homodyne signal-to-noise ratio;
* chi from the closed-form symplectic invariants Delta = det A + det B +
  2 det C and D = det(gamma) of the entanglement-based covariance matrix
  (Weedbrook et al., RMP 84, 621, 2012), extended to squeezed sources by
  keeping the x and p sectors apart;
* ``Delta_n`` and ``K = (n/N) (K_inf - Delta_n)``.
"""

from __future__ import annotations

import math
from statistics import NormalDist

SQUEEZING_LIMIT_VS = 1e-7
LEGACY_V = 1.5
LEGACY_R = 0.5
DEFAULT_V2 = 10.0


def z_of(delta: float) -> float:
    """Two-sided Gaussian quantile leaving tail mass ``delta``."""
    return -NormalDist().inv_cdf(delta / 2.0)


def fiber_T(d_km: float, db_per_km: float = 0.2) -> float:
    return 10.0 ** (-db_per_km * d_km / 10.0)


def _noise(T, veps, v_s, hidden=0.0):
    # receiver variance of everything outside the revealed displacement
    return 1.0 + veps + T * (hidden + v_s - 1.0)


def variances(kind, T, veps, v_s, N, r, v=None, v1=None, v2=DEFAULT_V2):
    """(sigma^2, s^2) of the transmittance and excess-noise estimators."""
    if kind == "single" or (kind == "modified" and r == 1.0):
        v_rev, m = (v, r * N) if kind == "single" else (v1 + v2, N)
        vn = _noise(T, veps, v_s)
        sig = 4.0 / m * (2.0 * T * T + T * vn / v_rev)
        return sig, 2.0 / m * vn * vn + (1.0 - v_s) ** 2 * sig
    vns = _noise(T, veps, v_s, v1)
    if kind == "double" or r == 0.0:
        sig = 4.0 / N * (2.0 * T * T + T * vns / v2)
        return sig, 2.0 / N * vns * vns + (v1 + v_s - 1.0) ** 2 * sig
    # modified: probe-only subset a and fully revealed subset b, merged by
    # inverse-variance weighting
    vn = _noise(T, veps, v_s)
    na, nb = (1.0 - r) * N, r * N
    sa = 4.0 / na * (2.0 * T * T + T * vns / v2)
    sb = 4.0 / nb * (2.0 * T * T + T * vn / (v1 + v2))
    sig = sa * sb / (sa + sb) if sa > 0.0 and sb > 0.0 else 0.0
    ua = 2.0 / na * vns * vns + (v1 + v_s - 1.0) ** 2 * sig
    ub = 2.0 / nb * vn * vn + (1.0 - v_s) ** 2 * sig
    return sig, ua * ub / (ua + ub)


def noise_floor(T, veps, N):
    """Statistical floor on the excess-noise uncertainty from N samples."""
    return math.sqrt(2.0) * (1.0 + veps - T) / math.sqrt(N)


def _g(nu: float) -> float:
    # entropy in bits of a thermal mode with symplectic eigenvalue nu
    x = (nu - 1.0) / 2.0
    if x <= 0.0:
        return 0.0
    return ((x + 1.0) * math.log(x + 1.0) - x * math.log(x)) / math.log(2.0)


def chi_BE(T, veps, v_s, v_key):
    """Holevo bound on the receiver's x outcome (reverse reconciliation)."""
    vx = v_s + v_key
    vp = 1.0 / v_s + (v_key if v_s >= 1.0 else 0.0)
    mu = math.sqrt(vx * vp)
    bx = T * vx + 1.0 - T + veps
    bp = T * vp + 1.0 - T + veps
    k = math.sqrt(T * max(mu * mu - 1.0, 0.0))
    t = math.sqrt(vx / mu)
    cx, cp = k * t, -k / t
    big_delta = mu * mu + bx * bp + 2.0 * cx * cp
    det = (mu * bx - cx * cx) * (mu * bp - cp * cp)
    nu1 = math.sqrt(0.5 * (big_delta
                           + math.sqrt(max(big_delta ** 2 - 4.0 * det, 0.0))))
    nu2 = math.sqrt(max(det, 0.0)) / nu1
    nu3 = math.sqrt(max(mu * (mu - cx * cx / bx), 0.0))
    return _g(nu1) + _g(nu2) - _g(nu3)


def I_AB(T, veps, v_s, v_key):
    return 0.5 * math.log2(1.0 + T * v_key / _noise(T, veps, v_s))


def k_inf(T, veps, v_s, v_key, beta):
    i_ab = I_AB(T, veps, v_s, v_key)
    chi = chi_BE(T, veps, v_s, v_key)
    return beta * i_ab - chi, i_ab, chi


def delta_n(n, delta_star):
    return 7.0 * math.sqrt(math.log2(2.0 / delta_star) / n)


def key_rate(kind, T, veps, v_s, N, beta, delta, delta_star, r=0.0,
             v=None, v1=None, v2=DEFAULT_V2, corner_search=False):
    """Every column of a planning-mode report, recomputed."""
    sig, s = variances(kind, T, veps, v_s, N, r, v, v1, v2)
    z = z_of(delta)
    t_low = max(0.0, T - z * math.sqrt(sig))
    v_up = veps + z * math.sqrt(s)
    v_key = v if kind == "single" else v1
    corner = (t_low, v_up)
    if corner_search:
        t_up, v_low = T + z * math.sqrt(sig), veps - z * math.sqrt(s)
        corners = [(t_low, v_up), (t_low, v_low), (t_up, v_up), (t_up, v_low)]
        rates = [k_inf(min(max(tc, 0.0), 1.0), max(vc, 0.0), v_s, v_key,
                       beta)[0] for tc, vc in corners]
        corner = corners[rates.index(min(rates))]
    t_eval = min(max(corner[0], 0.0), 1.0)
    v_eval = max(corner[1], 0.0)
    kinf, i_ab, chi = k_inf(t_eval, v_eval, v_s, v_key, beta)
    n = (1.0 - r) * N
    if n >= 1.0:
        dn = delta_n(n, delta_star)
        k = n / N * (kinf - dn)
    else:
        dn, k = 0.0, 0.0
    return {"K": k, "K_inf": kinf, "I_AB": i_ab, "chi_BE": chi,
            "Delta_n": dn, "T_low": t_low, "veps_up": v_up,
            "sigma": math.sqrt(sig), "s": math.sqrt(s), "z": z}


def legacy_key_rate(T, veps, N, beta, delta, delta_star):
    """The fixed single-scheme reference point (v = 1.5, r = 0.5)."""
    return key_rate("single", T, veps, 1.0, N, beta, delta, delta_star,
                    r=LEGACY_R, v=LEGACY_V)["K"]
