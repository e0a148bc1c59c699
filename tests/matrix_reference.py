"""The covariance-matrix route to the Holevo bound, kept as the reference
the scalar kernel :func:`cvqkd.keyrate.holevo_bound` is tested against.

It builds the 4x4 entanglement-based covariance matrix in numpy and takes
its symplectic spectrum from the x/p sector matrices. The library computes
the same numbers in plain ``math`` from the shared ``_eb_entries`` and
``_symplectic_pair``; the tests require ``==`` between the two routes.
Every matrix built here has uncoupled x and p sectors, so the reference
covers that case only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cvqkd.keyrate import _eb_entries, _require_bona_fide, _symplectic_pair
from cvqkd.model import ChannelParams, SourceParams, _require


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
