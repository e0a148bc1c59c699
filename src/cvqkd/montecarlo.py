"""Sampled estimator statistics validating the analytic variance models.

Every estimator reads only three means of an estimation arm, of ``M^2``,
``MB`` and ``B^2`` (revealed modulation ``M``, received quadrature ``B``).
For zero-mean Gaussian samples the arm's scatter matrix is exactly
Wishart, ``W_2(m, Sigma)``, so each arm of each trial is three variates
(Bartlett's decomposition) whatever the block size, and the estimators
run vectorised over the trials. One generator per row, seeded from its
configuration, makes every result reproducible; a scheme's rows are then
reduced in stacked batches, bit for bit as each row alone. numpy is
imported on the first simulation, not with this module.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .estimation import (
    VarianceModel,
    _t_estimate,
    _veps_estimate,
    estimation_arms,
    variance_model,
)
from .keyrate import theoretical_noise_limit
from .model import (
    MODIFIED,
    SINGLE,
    ChannelParams,
    FiberModel,
    Protocol,
    Record,
    SourceParams,
    _require,
    _require_count,
    _whole,
    aggregated_noise_variance,
    excess_noise_from_fiber,
)

if TYPE_CHECKING:
    import numpy as np


class TrialConfig(Record):
    """One repeatable simulation setup."""

    channel: ChannelParams
    source: SourceParams
    scheme: Protocol
    N: int
    trials: int
    seed: int

    def __post_init__(self):
        _require_count(self.N, 2, "block size N")
        _require_count(self.trials, 1, "trial count")
        _require(_whole(self.seed, 0),
                 f"seed must be a non-negative integer, got {self.seed!r}")
        kind = self.scheme.kind
        if kind == SINGLE:
            _require(self.disclosed >= 1,
                     "single-scheme trials need at least one disclosed sample")
        if kind == MODIFIED:
            # an empty disclosed arm is left out; two arms are weighted by
            # inverse variances, which vanish at T = 0
            _require(self.disclosed <= self.N - 1,
                     "modified-scheme trials need at least one undisclosed sample")
            _require(self.disclosed == 0 or self.channel.T > 0.0,
                     "modified-scheme trials need T > 0 to weight the sub-estimates")

    @property
    def disclosed(self) -> int:
        """The samples whose key displacement is revealed, ``round(r * N)``;
        the trials draw whole counts."""
        return round(self.scheme.r * self.N)


class EmpiricalStats(Record):
    """Reduction of one batch of trials against the analytic model.

    Standard deviations and relative errors are None when a single trial
    makes them meaningless.
    """

    mean_T: float
    std_T: float | None
    mean_Veps: float
    std_Veps: float | None
    model: VarianceModel
    rel_err_T: float | None
    rel_err_Veps: float | None


class ValidationRow(Record):
    """One point of the variance-model validation grid."""

    scheme: str
    T: float
    samples: float       # disclosed samples for single, block size otherwise
    s_analytic: float
    s_empirical: float
    rel_err_s: float
    sigma_analytic: float
    sigma_empirical: float
    rel_err_sigma: float
    veps_th: float       # statistical floor on the noise uncertainty at this T


def _weights(variances) -> tuple[float, ...]:
    """Normalised inverse-variance weights; one arm gets weight 1 without
    dividing, so a vanishing variance (T = 0) is fine there."""
    if len(variances) == 1:
        return (1.0,)
    inverse = [1.0 / w for w in variances]
    total = sum(inverse)
    return tuple(w / total for w in inverse)


def _arm_means(rng: np.random.Generator, config: TrialConfig, m: int, revealed: float,
               withheld: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mean M^2, mean MB, mean B^2)`` of the arm ``(m, revealed,
    withheld)`` in each of ``config.trials`` blocks, from the Bartlett draw
    of its scatter matrix ``X X^T``, ``X = L A``. ``L`` is the Cholesky
    factor of the arm's covariance ``[[revealed, sqrt(T) revealed],
    [sqrt(T) revealed, T revealed + noise]]`` and ``A`` is lower triangular
    with ``a11 = sqrt(chi^2_m)``, ``a22 = sqrt(chi^2_(m-1))`` and
    ``a21 ~ N(0, 1)``, drawn in that order."""
    import numpy as np

    T, trials = config.channel.T, config.trials
    noise = aggregated_noise_variance(config.channel, config.source, withheld)
    a11 = np.sqrt(rng.chisquare(m, trials))
    # an arm of one sample has chi^2_0 = 0, which numpy refuses to draw
    a22_sq = rng.chisquare(m - 1, trials) if m > 1 else np.zeros(trials)
    a21 = rng.standard_normal(trials)
    x11 = math.sqrt(revealed) * a11
    x21 = math.sqrt(T * revealed) * a11 + math.sqrt(noise) * a21
    return x11 * x11 / m, x11 * x21 / m, (x21 * x21 + noise * a22_sq) / m


def run_trials(config: TrialConfig) -> EmpiricalStats:
    """Draw, estimate and reduce ``config.trials`` transmissions.

    Each arm of each block is drawn as the three means the estimators
    read, exactly distributed for Gaussian samples whatever the block
    size. One generator seeded by ``config.seed`` draws the arms in
    ``estimation_arms`` order.
    """
    return _run_rows([config])[0]


# trials, rows times trials per row, that one stacked batch may hold; a
# row of more trials runs alone, with the memory of a one-row call
_BATCH_TRIALS = 1 << 16


def _rel_err(spread, analytic):
    """``|spread - analytic| / analytic``, or None without either spread."""
    return (abs(spread - analytic) / analytic
            if spread is not None and analytic > 0.0 else None)


def _run_rows(configs: list[TrialConfig]) -> list[EmpiricalStats]:
    """:func:`run_trials` of each of ``configs``, which differ only in
    their channels and seeds. Each row draws from its own generator; the
    estimators and reductions then run once on ``(rows, trials)`` stacks
    of the means, with the rows' weights as columns, and a reduction
    along a row gives the bits of the same reduction of that row alone.
    """
    import numpy as np

    first = configs[0]
    shown = first.disclosed
    arms = estimation_arms(first.scheme, first.N - shown, shown)
    # the model at the true parameters weights the arms' sub-estimates
    models = [variance_model(c.channel, c.source, arms) for c in configs]
    draws = []
    for config in configs:
        rng = np.random.default_rng(config.seed)
        draws.append([_arm_means(rng, config, *arm) for arm in arms])
    means = [[np.stack(rows) for rows in zip(*arm)] for arm in zip(*draws)]
    # per arm, the column of the rows' weights from sigma^2 (T) and s^2 (V_eps)
    weights = np.array([[_weights(v) for v in zip(*m.per_arm)] for m in models])
    t_weights, v_weights = weights.transpose(1, 2, 0)[..., np.newaxis]
    t_hat = sum(_t_estimate(mb, revealed) * w
                for (_, mb, _), (_, revealed, _), w in zip(means, arms, t_weights))
    _require(bool(np.all(t_hat >= 0.0)), "t_hat must be >= 0")
    # everything an arm's regression cannot see acts as source noise
    v_hat = sum(_veps_estimate(mm, mb, bb, t_hat, first.source.v_s + withheld) * u
                for (mm, mb, bb), (_, _, withheld), u in zip(means, arms, v_weights))
    mean_t = np.mean(t_hat, axis=1).tolist()
    mean_v = np.mean(v_hat, axis=1).tolist()
    if first.trials >= 2:
        std_t = np.std(t_hat, axis=1, ddof=1).tolist()
        std_v = np.std(v_hat, axis=1, ddof=1).tolist()
    else:
        std_t = std_v = [None] * len(configs)
    return [EmpiricalStats(mt, st, mv, sv, model, _rel_err(st, model.sigma),
                           _rel_err(sv, model.s))
            for model, mt, st, mv, sv in zip(models, mean_t, std_t, mean_v, std_v)]


def _row_seed(base_seed: int, scheme_index: int, t_index: int) -> int:
    import numpy as np

    ss = np.random.SeedSequence(base_seed, spawn_key=(scheme_index, t_index))
    lo, hi = (int(w) for w in ss.generate_state(2))
    return (hi << 32) | lo


def validate_variance_models(t_grid, protocols, source: SourceParams, N: int,
                             trials: int, seed: int,
                             fiber: FiberModel = FiberModel()) -> list[ValidationRow]:
    """Run the trials of every (protocol, transmittance) pair.

    The channel at each grid point takes its excess noise from the fiber
    model. Row seeds derive from ``seed`` and the row position, so the
    full table is reproducible and rows are independent. Each protocol's
    rows run in stacked batches of at most ``_BATCH_TRIALS`` trials, each
    row as :func:`run_trials` runs it alone.
    """
    _require(_whole(trials, 2),
             f"the validation table compares spreads, so trials must be >= 2, got {trials!r}")
    _require(_whole(seed, 0), f"seed must be a non-negative integer, got {seed!r}")
    batch = max(1, _BATCH_TRIALS // trials)
    rows: list[ValidationRow] = []
    for s_idx, protocol in enumerate(protocols):
        configs = [TrialConfig(ChannelParams(T, excess_noise_from_fiber(T, fiber)), source,
                               protocol, N, trials, _row_seed(seed, s_idx, t_idx))
                   for t_idx, T in enumerate(map(float, t_grid))]
        results = [stats for start in range(0, len(configs), batch)
                   for stats in _run_rows(configs[start:start + batch])]
        for config, stats in zip(configs, results):
            samples = config.disclosed if protocol.kind == SINGLE else N
            rows.append(ValidationRow(
                scheme=protocol.kind,
                T=config.channel.T,
                samples=float(samples),
                s_analytic=stats.model.s,
                s_empirical=stats.std_Veps,
                rel_err_s=stats.rel_err_Veps,
                sigma_analytic=stats.model.sigma,
                sigma_empirical=stats.std_T,
                rel_err_sigma=stats.rel_err_T,
                veps_th=theoretical_noise_limit(config.channel, float(N)),
            ))
    return rows
