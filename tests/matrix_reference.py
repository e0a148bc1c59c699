"""The covariance-matrix route to the Holevo bound, kept as the reference
the scalar kernel :func:`cvqkd.keyrate.holevo_bound` is tested against.

It builds the 4x4 entanglement-based covariance matrix in numpy, takes
its symplectic spectrum from the x/p sector matrices and sums the thermal
entropies of each spectrum, in small helpers that share no code with the
library. The library's kernel, ``keyrate._holevo_bound``, codes the same
operations in one frame of plain ``math``; the tests require ``==``
between the two routes, or a ``ValueError`` from both. Every matrix built
here has uncoupled x and p sectors, so the reference covers that case
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cvqkd.keyrate import NU_TOLERANCE
from cvqkd.model import ChannelParams, SourceParams, _require

_LOG2 = math.log(2.0)


def _thermal_entropy_bits(x: float) -> float:
    # (x+1) log2(x+1) - x log2(x), continuously extended by 0 at x <= 0
    if x <= 0.0:
        return 0.0
    return ((x + 1.0) * math.log1p(x) - x * math.log(x)) / _LOG2


def _entropy_bits(nus) -> float:
    """Entropy in bits of the Gaussian state with symplectic spectrum ``nus``."""
    total = 0.0
    for nu in nus:
        total += _thermal_entropy_bits((nu - 1.0) / 2.0)
    return total


def _require_bona_fide(nus) -> None:
    for nu in nus:
        if not math.isfinite(nu):
            raise ValueError("symplectic eigenvalues must be finite")
        if nu < 1.0 - NU_TOLERANCE:
            raise ValueError(f"symplectic eigenvalue {nu!r} below 1; state is not bona fide")


def _symplectic_pair(delta: float, disc: float,
                     det_gamma: float) -> tuple[float, float]:
    """``(nu_plus, nu_minus)`` of a two-mode state from the invariant
    ``delta``, the discriminant of the characteristic polynomial of the
    squared spectrum and the determinant."""
    if disc < 0.0:
        if not disc >= -1e-9 * max(1.0, delta * delta):
            raise ValueError("two-mode covariance has complex symplectic invariants")
        disc = 0.0
    nu_sq_plus = 0.5 * (delta + math.sqrt(disc))
    if not nu_sq_plus > 0.0:
        raise ValueError("two-mode covariance is singular")
    nu_plus = math.sqrt(nu_sq_plus)
    # the small eigenvalue via the determinant, which avoids cancellation
    # in (delta - sqrt(disc)) when the eigenvalues are far apart
    nu_minus = math.sqrt(max(det_gamma, 0.0)) / nu_plus
    return nu_plus, nu_minus


def _eb_entries(T: float, veps: float, v_s: float,
                v_mod_x: float, v_mod_p: float) -> tuple[float, ...]:
    """The distinct entries ``(mu, b_x, b_p, c_x, c_p)`` of the
    entanglement-based covariance matrix: the sender's isotropic variance
    ``mu``, the receiver's x and p variances and the x and p correlations."""
    vx = v_s + v_mod_x
    vp = 1.0 / v_s + v_mod_p
    mu = math.sqrt(vx * vp)
    # an infinite mu would zero t below and divide by it
    if not math.isfinite(mu):
        raise ValueError("modulation variance too large: mu overflows at "
                         f"v_mod_x={v_mod_x!r}, v_mod_p={v_mod_p!r}")
    if not mu >= 1.0 - 1e-9:
        raise ValueError("prepared ensemble violates the uncertainty bound (mu < 1)")
    corr = math.sqrt(T * max(mu * mu - 1.0, 0.0))
    t = math.sqrt(vx / mu)
    return (mu, T * vx + 1.0 - T + veps, T * vp + 1.0 - T + veps,
            corr * t, -corr / t)


@dataclass(frozen=True)
class CovarianceMatrix2Mode:
    """4x4 quadrature covariance matrix in mode order (A_x, A_p, B_x, B_p)
    whose x and p sectors are uncoupled."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.float64)  # defensive copy
        _require(m.shape == (4, 4), "a two-mode covariance matrix must be 4x4")
        _require(bool(np.all(np.isfinite(m))), "covariance entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        _require(bool(np.allclose(m, m.T, rtol=0.0, atol=1e-9 * scale)),
                 "covariance matrix must be symmetric")
        m = 0.5 * (m + m.T)
        _require(m[0, 1] == 0.0 and m[0, 3] == 0.0 and m[1, 2] == 0.0
                 and m[2, 3] == 0.0, "the x and p sectors must be uncoupled")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


def _det2(m: np.ndarray) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def symplectic_eigenvalues(cov: CovarianceMatrix2Mode) -> tuple[float, float]:
    """Symplectic spectrum ``(nu_plus, nu_minus)`` of a two-mode covariance
    matrix, refused unless it is bona fide.

    The two invariants are evaluated from the product of the x and p
    sector matrices, whose discriminant stays numerically exact when the
    state is pure.
    """
    e = cov.entries
    gx = np.array([[e[0, 0], e[0, 2]], [e[0, 2], e[2, 2]]])
    gp = np.array([[e[1, 1], e[1, 3]], [e[1, 3], e[3, 3]]])
    # invariants of M = gx @ gp, whose eigenvalues are the nu^2
    m11 = gx[0, 0] * gp[0, 0] + gx[0, 1] * gp[1, 0]
    m12 = gx[0, 0] * gp[0, 1] + gx[0, 1] * gp[1, 1]
    m21 = gx[1, 0] * gp[0, 0] + gx[1, 1] * gp[1, 0]
    m22 = gx[1, 0] * gp[0, 1] + gx[1, 1] * gp[1, 1]
    delta = m11 + m22
    disc = (m11 - m22) ** 2 + 4.0 * m12 * m21
    det_gamma = max(_det2(gx), 0.0) * max(_det2(gp), 0.0)
    nus = _symplectic_pair(delta, disc, det_gamma)
    _require_bona_fide(nus)
    return nus


def build_eb_covariance(channel: ChannelParams, source: SourceParams,
                        v_mod_x: float, v_mod_p: float) -> CovarianceMatrix2Mode:
    """Entanglement-based covariance matrix equivalent to modulating the
    source with independent Gaussian displacements of the given variances
    and sending it through the channel.

    The sender-side mode is isotropic with variance
    ``mu = sqrt((v_s + v_mod_x) * (1/v_s + v_mod_p))``; the asymmetry of
    the prepared ensemble moves into the cross correlations.
    """
    mu, b_x, b_p, c_x, c_p = _eb_entries(channel.T, channel.v_eps, source.v_s,
                                         v_mod_x, v_mod_p)
    m = np.zeros((4, 4))
    m[0, 0] = m[1, 1] = mu
    m[2, 2] = b_x
    m[3, 3] = b_p
    m[0, 2] = m[2, 0] = c_x
    m[1, 3] = m[3, 1] = c_p
    return CovarianceMatrix2Mode(m)


def holevo_reference(channel: ChannelParams, source: SourceParams,
                     v_mod_x: float, v_mod_p: float) -> float:
    """The Holevo bound S(joint) - S(sender | receiver x outcome) through
    the matrix built by :func:`build_eb_covariance`."""
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
