"""The sample-level channel simulator: the reference the Monte Carlo layer
is tested against.

``cvqkd.montecarlo`` draws each estimation arm's scatter matrix from its
Wishart law, three variates per arm and trial whatever the block size.
This module draws every sample of a block instead, and estimates from the
records through the public estimators, so the two routes meet only in
the arm model they both claim to follow.

The receiver quadrature of one transmission decomposes into the
modulation displacements, the transmitted source fluctuation, the vacuum
share and the excess noise. The terms no estimator observes individually
(the source fluctuation, the vacuum, the excess noise and a withheld key
displacement) are drawn as their Gaussian sum, which leaves every
observable joint distribution unchanged. Bulk draws are single precision;
every reduction accumulates in double precision.
"""

import math

import numpy as np

from cvqkd import (SINGLE, SampleSet, SourceParams, TrialConfig,
                   aggregated_noise_variance, estimate_T, estimate_Veps,
                   estimation_arms, variance_model)
from cvqkd.montecarlo import _weights

_DTYPE = np.float32


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _draw_scaled(rng: np.random.Generator, sd: float, out: np.ndarray) -> np.ndarray:
    rng.standard_normal(out=out, dtype=_DTYPE)
    out *= np.float32(sd)
    return out


def _noise_sd(config: TrialConfig, v_withheld: float = 0.0) -> float:
    return math.sqrt(aggregated_noise_variance(config.channel, config.source, v_withheld))


def simulate_transmission(config: TrialConfig, trial_index: int) -> list[SampleSet]:
    """One transmission of a block through the channel.

    Returns one ``SampleSet`` of revealed modulation and received
    quadrature per arm of ``estimation_arms(config.scheme, N - round(r * N),
    round(r * N))``, in that order. Deterministic in ``(config.seed,
    trial_index)``. A withheld displacement is folded into the noise draw.
    The draw order is fixed: the probe, the disclosed key displacements,
    the noise of the disclosed prefix, then the noise of the rest.
    """
    p = config.scheme
    # the single scheme's one displacement is its probe; it has no key record
    block, shown = ((config.disclosed, 0) if p.kind == SINGLE
                    else (config.N, config.disclosed))
    probe, key, b = (np.empty(n, dtype=_DTYPE) for n in (block, shown, block))
    rng = _trial_rng(config.seed, trial_index)
    st = np.float32(math.sqrt(config.channel.T))
    # the probe regression never sees the key displacement; it acts as noise
    v_probe, withheld = (p.v, 0.0) if p.kind == SINGLE else (p.v2, p.v)
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


def reference_estimates(config: TrialConfig) -> tuple[np.ndarray, np.ndarray]:
    """The merged ``(T-hat, V_eps-hat)`` of each of ``config.trials``
    simulated blocks, estimated sample by sample: per arm ``estimate_T`` on
    the arm's revealed variance and ``estimate_Veps`` with the withheld
    displacement folded into the source, merged by the inverse-variance
    weights of the arm model at the true parameters."""
    shown = config.disclosed
    arms = estimation_arms(config.scheme, config.N - shown, shown)
    model = variance_model(config.channel, config.source, arms)
    sigmas, noises = zip(*model.per_arm)
    t_weights, v_weights = _weights(sigmas), _weights(noises)
    t_hat, v_hat = np.empty(config.trials), np.empty(config.trials)
    for k in range(config.trials):
        records = simulate_transmission(config, k)
        t_k = sum(estimate_T(s, revealed) * w
                  for s, (_, revealed, _), w in zip(records, arms, t_weights))
        t_hat[k] = t_k
        v_hat[k] = sum(estimate_Veps(s, t_k, SourceParams(config.source.v_s + withheld)) * u
                       for s, (_, _, withheld), u in zip(records, arms, v_weights))
    return t_hat, v_hat
