"""Sampled transmissions validating the analytic estimator variance models.

The receiver quadrature of one transmission decomposes into the modulation
displacements, the transmitted source fluctuation, the vacuum share and
the excess noise. One sampler draws every trial, and it draws one
``(revealed modulation, received quadrature)`` record per estimation arm.
The terms no estimator ever observes individually (the source
fluctuation, the vacuum, the excess noise and a withheld key displacement)
are drawn as their Gaussian sum, which leaves every observable joint
distribution unchanged and keeps the draw count down.

Bulk draws are single precision; every reduction accumulates in double
precision, which sits orders of magnitude below the statistical
tolerances validated here. Each trial derives its generator from
``(seed, trial_index)`` alone, so results are independent of how trials
are distributed over worker threads.

numpy and the thread pool are imported inside the functions that use
them, so importing this module (and with it the package) loads neither;
the first simulation does.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .estimation import (
    SampleSet,
    VarianceModel,
    estimate_T,
    estimate_Veps,
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
    SourceParams,
    _require,
    aggregated_noise_variance,
    excess_noise_from_fiber,
)

if TYPE_CHECKING:
    import numpy as np

_DTYPE = "float32"  # the dtype of the bulk draws, named so import needs no numpy


def _whole(x, floor: int) -> bool:
    """Whether ``x`` is an int, and not a bool, of at least ``floor``."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= floor


@dataclass(frozen=True)
class TrialConfig:
    """One repeatable simulation setup."""

    channel: ChannelParams
    source: SourceParams
    scheme: Protocol
    N: int
    trials: int
    seed: int

    def __post_init__(self):
        _require(_whole(self.N, 2),
                 f"block size N must be an integer >= 2, got {self.N!r}")
        _require(_whole(self.trials, 1),
                 f"trial count must be an integer >= 1, got {self.trials!r}")
        _require(_whole(self.seed, 0),
                 f"seed must be a non-negative integer, got {self.seed!r}")
        kind = self.scheme.kind
        if kind == SINGLE:
            _require(self.disclosed >= 1,
                     "single-scheme trials need at least one disclosed sample")
        if kind == MODIFIED:
            _require(1 <= self.disclosed <= self.N - 1,
                     "modified-scheme trials need both block subsets non-empty")
            _require(self.channel.T > 0.0,
                     "modified-scheme trials need T > 0 to weight the sub-estimates")

    @property
    def disclosed(self) -> int:
        """The samples whose key displacement is revealed, ``round(r * N)``;
        the sampler draws whole counts."""
        return round(self.scheme.r * self.N)


@dataclass(frozen=True)
class EmpiricalStats:
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


@dataclass(frozen=True)
class ValidationRow:
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


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    import numpy as np

    ss = np.random.SeedSequence(seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _draw_scaled(rng: np.random.Generator, sd: float, out: np.ndarray) -> np.ndarray:
    import numpy as np

    rng.standard_normal(out=out, dtype=_DTYPE)
    out *= np.float32(sd)
    return out


def _noise_sd(config: TrialConfig, v_withheld: float = 0.0) -> float:
    return math.sqrt(aggregated_noise_variance(config.channel, config.source, v_withheld))


def _buffers(config: TrialConfig) -> list[np.ndarray]:
    """The probe, disclosed-key and received records of one trial. The
    single scheme's one displacement is its probe; its key record is empty."""
    import numpy as np

    shown = config.disclosed
    block, key = (shown, 0) if config.scheme.kind == SINGLE else (config.N, shown)
    return [np.empty(n, dtype=_DTYPE) for n in (block, key, block)]


def _simulate(config: TrialConfig, trial_index: int,
              buffers: list[np.ndarray]) -> list[SampleSet]:
    """One transmission into ``buffers``; see simulate_transmission.

    Only what the estimators read is materialised: a withheld displacement
    is folded into the noise draw. The draw order is fixed: the probe, the
    disclosed key displacements, the noise of the disclosed prefix, then
    the noise of the rest.
    """
    import numpy as np

    rng = _trial_rng(config.seed, trial_index)
    st = np.float32(math.sqrt(config.channel.T))
    p = config.scheme
    # the probe regression never sees the key displacement; it acts as noise
    v_probe, withheld = (p.v, 0.0) if p.kind == SINGLE else (p.v2, p.v)
    probe, key, b = buffers
    shown = key.size
    _draw_scaled(rng, math.sqrt(v_probe), probe)
    if shown:  # an empty disclosed prefix draws nothing
        _draw_scaled(rng, math.sqrt(p.v), key)
        _draw_scaled(rng, _noise_sd(config), b[:shown])
        key += probe[:shown]  # both displacements of the disclosed samples
        b[:shown] += st * key
    _draw_scaled(rng, _noise_sd(config, withheld), b[shown:])
    b[shown:] += st * probe[shown:]
    records = ((probe[shown:], b[shown:]), (key, b[:shown]))
    return [SampleSet(m, received) for m, received in records if m.size]


def simulate_transmission(config: TrialConfig, trial_index: int) -> list[SampleSet]:
    """One transmission of a block through the channel.

    Returns one ``SampleSet`` of revealed modulation and received
    quadrature per arm of ``estimation_arms(config.scheme, N - round(r * N),
    round(r * N))``, in that order: the records ``run_trials`` estimates
    from. Deterministic in ``(config.seed, trial_index)``.
    """
    return _simulate(config, trial_index, _buffers(config))


def _weights(variances) -> tuple[float, ...]:
    """Normalised inverse-variance weights; one arm gets weight 1 without
    dividing, so a vanishing variance (T = 0) is fine there."""
    if len(variances) == 1:
        return (1.0,)
    inverse = [1.0 / w for w in variances]
    total = sum(inverse)
    return tuple(w / total for w in inverse)


def _resolve_threads(threads: int | None) -> int:
    """The worker count: ``threads`` (the ``--threads`` flag), else
    ``CVQKD_THREADS``, else the CPUs this process may run on. A count
    that is not a whole number >= 1 is refused under its own name."""
    name = "threads (--threads)"
    if threads is None:
        text = os.environ.get("CVQKD_THREADS", "").strip()
        if not text:
            return len(os.sched_getaffinity(0))
        name = "CVQKD_THREADS"
        try:
            threads = int(text)
        except ValueError:
            threads = text  # refused below, under the variable's name
    if not _whole(threads, 1):
        raise ValueError(f"{name} must be a whole number >= 1, got {threads!r}")
    return threads


def run_trials(config: TrialConfig, threads: int | None = None) -> EmpiricalStats:
    """Simulate, estimate and reduce ``config.trials`` transmissions.

    Thread count (argument, else ``CVQKD_THREADS``, else the number of
    CPUs this process may run on) affects wall time only: every trial owns
    a generator derived from its index, and the reduction runs over the
    index-ordered arrays.
    """
    import numpy as np

    threads = _resolve_threads(threads)
    shown = config.disclosed
    arms = estimation_arms(config.scheme, config.N - shown, shown)
    # the model at the true parameters weights the arms' sub-estimates
    model = variance_model(config.channel, config.source, arms)
    sigmas, noises = zip(*model.per_arm)
    # each arm's revealed variance, and the source its residual fit sees:
    # everything an arm's regression cannot see acts as source noise
    estimators = [(revealed, SourceParams(config.source.v_s + withheld))
                  for _, revealed, withheld in arms]
    t_weights, v_weights = _weights(sigmas), _weights(noises)
    t_hat = np.empty(config.trials, dtype=np.float64)
    v_hat = np.empty(config.trials, dtype=np.float64)

    def worker(index_range) -> None:
        buffers = _buffers(config)
        for k in index_range:
            samples = _simulate(config, k, buffers)
            t_k = sum(estimate_T(s, revealed) * w
                      for s, (revealed, _), w in zip(samples, estimators, t_weights))
            t_hat[k] = t_k
            v_hat[k] = sum(estimate_Veps(s, t_k, source) * u
                           for s, (_, source), u in zip(samples, estimators, v_weights))

    if threads == 1 or config.trials == 1:
        worker(range(config.trials))
    else:
        chunk = max(1, math.ceil(config.trials / threads))
        ranges = [range(lo, min(lo + chunk, config.trials))
                  for lo in range(0, config.trials, chunk)]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            # propagate the first worker exception, if any
            for future in [pool.submit(worker, rg) for rg in ranges]:
                future.result()

    mean_t = float(np.mean(t_hat))
    mean_v = float(np.mean(v_hat))
    if config.trials >= 2:
        std_t = float(np.std(t_hat, ddof=1))
        std_v = float(np.std(v_hat, ddof=1))
        rel_t = abs(std_t - model.sigma) / model.sigma if model.sigma > 0.0 else None
        rel_v = abs(std_v - model.s) / model.s if model.s > 0.0 else None
    else:
        std_t = std_v = rel_t = rel_v = None
    return EmpiricalStats(mean_T=mean_t, std_T=std_t, mean_Veps=mean_v,
                          std_Veps=std_v, model=model,
                          rel_err_T=rel_t, rel_err_Veps=rel_v)


def _row_seed(base_seed: int, scheme_index: int, t_index: int) -> int:
    import numpy as np

    ss = np.random.SeedSequence(base_seed, spawn_key=(scheme_index, t_index))
    lo, hi = (int(w) for w in ss.generate_state(2))
    return (hi << 32) | lo


def validate_variance_models(t_grid, protocols, source: SourceParams, N: int,
                             trials: int, seed: int,
                             fiber: FiberModel = FiberModel(),
                             threads: int | None = None) -> list[ValidationRow]:
    """Run the trial batch for every (protocol, transmittance) pair.

    The channel at each grid point takes its excess noise from the fiber
    model. Row seeds derive from ``seed`` and the row position, so the
    full table is reproducible and rows are independent.
    """
    _require(_whole(trials, 2),
             f"the validation table compares spreads, so trials must be >= 2, got {trials!r}")
    _require(_whole(seed, 0), f"seed must be a non-negative integer, got {seed!r}")
    rows: list[ValidationRow] = []
    for s_idx, protocol in enumerate(protocols):
        for t_idx, T in enumerate(t_grid):
            channel = ChannelParams(float(T), excess_noise_from_fiber(float(T), fiber))
            config = TrialConfig(channel, source, protocol, N, trials,
                                 _row_seed(seed, s_idx, t_idx))
            stats = run_trials(config, threads=threads)
            samples = config.disclosed if protocol.kind == SINGLE else N
            rows.append(ValidationRow(
                scheme=protocol.kind,
                T=channel.T,
                samples=float(samples),
                s_analytic=stats.model.s,
                s_empirical=stats.std_Veps,
                rel_err_s=stats.rel_err_Veps,
                sigma_analytic=stats.model.sigma,
                sigma_empirical=stats.std_T,
                rel_err_sigma=stats.rel_err_T,
                veps_th=theoretical_noise_limit(channel, float(N)),
            ))
    return rows
