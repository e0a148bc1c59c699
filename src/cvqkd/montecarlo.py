"""Sampled estimator statistics validating the analytic variance models.

Every estimator reads only three means of an estimation arm, of ``M^2``,
``MB`` and ``B^2`` (revealed modulation ``M``, received quadrature ``B``).
For zero-mean Gaussian samples the arm's scatter matrix is exactly
Wishart, ``W_2(m, Sigma)``, so each arm of each trial is three variates
(Bartlett's decomposition) whatever the block size. Each row of a table
draws them from its own generator, seeded from its configuration; the
draw's arithmetic, the estimators and the reductions then run once on a
scheme's stacked rows, bit for bit as each row alone. numpy is imported
on the first simulation, not with this module.
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
            _require(self.disclosed <= self.N - 1,
                     "modified-scheme trials need at least one undisclosed sample")
        _weighable(self, self.channel)

    @property
    def disclosed(self) -> int:
        """The samples whose key displacement is revealed, ``round(r * N)``;
        the trials draw whole counts."""
        return round(self.scheme.r * self.N)


def _weighable(config: TrialConfig, channel: ChannelParams) -> ChannelParams:
    """``channel``, refused if it leaves ``config``'s two arms no inverse-
    variance weights: their variances vanish at T = 0."""
    _require(config.scheme.kind != MODIFIED or config.disclosed == 0 or channel.T > 0.0,
             "modified-scheme trials need T > 0 to weight the sub-estimates")
    return channel


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


def _arm_means(rngs, channels, source: SourceParams, trials: int, m: int, revealed: float,
               withheld: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mean M^2, mean MB, mean B^2)`` of the arm ``(m, revealed,
    withheld)`` in ``trials`` blocks per row, as ``(rows, trials)`` arrays;
    row ``i`` is on ``channels[i]`` and draws from ``rngs[i]``. Each is the
    Bartlett draw of the scatter matrix ``X X^T``, ``X = L A``: ``L`` is the
    Cholesky factor of ``[[revealed, sqrt(T) revealed], [sqrt(T) revealed,
    T revealed + noise]]``, ``A`` is lower triangular with ``a11 =
    sqrt(chi^2_m)``, ``a22 = sqrt(chi^2_(m-1))`` and ``a21 ~ N(0, 1)``, drawn
    in that order; the rows' noise and ``sqrt(T revealed)`` are columns, so
    each element takes the operations of a row drawn alone."""
    import numpy as np

    a11, a21 = np.empty((2, len(rngs), trials))
    # an arm of one sample has chi^2_0 = 0, which numpy refuses to draw
    a22_sq = np.zeros_like(a11)
    for rng, row11, row22, row21 in zip(rngs, a11, a22_sq, a21):
        row11[:] = rng.chisquare(m, trials)
        if m > 1:
            row22[:] = rng.chisquare(m - 1, trials)
        rng.standard_normal(out=row21)
    np.sqrt(a11, out=a11)
    noise = np.array([[aggregated_noise_variance(c, source, withheld)] for c in channels])
    root_t = np.array([[math.sqrt(c.T * revealed)] for c in channels])
    x11 = math.sqrt(revealed) * a11
    x21 = root_t * a11 + np.sqrt(noise) * a21
    return x11 * x11 / m, x11 * x21 / m, (x21 * x21 + noise * a22_sq) / m


def run_trials(config: TrialConfig) -> EmpiricalStats:
    """Draw, estimate and reduce ``config.trials`` transmissions.

    Each arm of each block is drawn as the three means the estimators
    read, exactly distributed for Gaussian samples whatever the block
    size. One generator seeded by ``config.seed`` draws the arms in
    ``estimation_arms`` order.
    """
    return _run_rows(config, [config.channel], [config.seed])[0]


# trials, rows times trials per row, that one stacked batch may hold; a
# row of more trials runs alone, with the memory of a one-row call
_BATCH_TRIALS = 1 << 16


def _rel_err(spread, analytic):
    """``|spread - analytic| / analytic``, or None without either spread."""
    return (abs(spread - analytic) / analytic
            if spread is not None and analytic > 0.0 else None)


def _run_rows(config: TrialConfig, channels, seeds) -> list[EmpiricalStats]:
    """:func:`run_trials` of ``config`` on each of ``channels``, row ``i``
    seeded by ``seeds[i]`` (``config``'s own channel and seed are unread).
    The draw's arithmetic, the estimators and the reductions run once on
    ``(rows, trials)`` stacks, the rows' parameters and weights as columns;
    a reduction along a row gives the bits of that row's alone."""
    import numpy as np

    shown, source = config.disclosed, config.source
    arms = estimation_arms(config.scheme, config.N - shown, shown)
    # the model at the true parameters weights the arms' sub-estimates
    models = [variance_model(c, source, arms) for c in channels]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # arm by arm, so each row's generator draws its arms in order
    means = [_arm_means(rngs, channels, source, config.trials, *arm) for arm in arms]
    # per arm, the column of the rows' weights from sigma^2 (T) and s^2 (V_eps)
    weights = np.array([[_weights(v) for v in zip(*m.per_arm)] for m in models])
    t_weights, v_weights = weights.transpose(1, 2, 0)[..., np.newaxis]
    t_hat = sum(_t_estimate(mb, revealed) * w
                for (_, mb, _), (_, revealed, _), w in zip(means, arms, t_weights))
    _require(bool(np.all(t_hat >= 0.0)), "t_hat must be >= 0")
    # everything an arm's regression cannot see acts as source noise
    v_hat = sum(_veps_estimate(mm, mb, bb, t_hat, source.v_s + withheld) * u
                for (mm, mb, bb), (_, _, withheld), u in zip(means, arms, v_weights))
    estimates = np.stack((t_hat, v_hat))
    mean_t, mean_v = np.mean(estimates, axis=2).tolist()
    std_t, std_v = (np.std(estimates, axis=2, ddof=1).tolist() if config.trials >= 2
                    else [[None] * len(channels)] * 2)
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
    full table is reproducible and rows are independent. One record checks
    each protocol, whose rows run in stacked batches of at most
    ``_BATCH_TRIALS`` trials, each row as :func:`run_trials` runs it alone.
    """
    _require(_whole(trials, 2),
             f"the validation table compares spreads, so trials must be >= 2, got {trials!r}")
    _require(_whole(seed, 0), f"seed must be a non-negative integer, got {seed!r}")
    batch = max(1, _BATCH_TRIALS // trials)
    t_values = list(map(float, t_grid))  # read once: each protocol walks it
    rows: list[ValidationRow] = []
    for s_idx, protocol in enumerate(protocols):
        grid = (ChannelParams(T, excess_noise_from_fiber(T, fiber)) for T in t_values)
        first = next(grid, None)
        if first is None:
            continue
        # the rows differ only in their channels and seeds: one record
        # checks the rest, in the order each row's record would
        config = TrialConfig(first, source, protocol, N, trials, seed)
        channels = [first, *(_weighable(config, channel) for channel in grid)]
        seeds = [_row_seed(seed, s_idx, t_idx) for t_idx in range(len(channels))]
        results = [stats for start in range(0, len(channels), batch)
                   for stats in _run_rows(config, channels[start:start + batch],
                                          seeds[start:start + batch])]
        samples = float(config.disclosed if protocol.kind == SINGLE else N)
        rows += [ValidationRow(protocol.kind, channel.T, samples, stats.model.s, stats.std_Veps,
                               stats.rel_err_Veps, stats.model.sigma, stats.std_T,
                               stats.rel_err_T, theoretical_noise_limit(channel, float(N)))
                 for channel, stats in zip(channels, results)]
    return rows
