"""Sampling layer: determinism, distributional checks, estimator statistics."""

import math
import os

import numpy as np
import pytest

from cvqkd import (
    ChannelParams,
    SourceParams,
    Protocol,
    ProtocolParams,
    TrialConfig,
    aggregated_noise_variance,
    confidence_bounds,
    estimation_arms,
    expected_bounds,
    run_trials,
    simulate_transmission,
    validate_variance_models,
    variance_model,
)
from cvqkd.montecarlo import _resolve_threads
from matrix_reference import build_eb_covariance


def _single_cfg(T=0.1, veps=0.001, v=3.0, r=1.0, N=100000, trials=1, seed=11):
    return TrialConfig(ChannelParams(T, veps), SourceParams(1.0),
                       Protocol("single", v, r=r), N, trials, seed)


def _double_cfg(T=0.2, veps=0.002, N=100000, trials=400, seed=22):
    return TrialConfig(ChannelParams(T, veps), SourceParams(1.0),
                       Protocol("double", 3.0, 10.0), N, trials, seed)


def _modified_cfg(T=0.2, veps=0.002, r=0.5, N=100000, trials=400, seed=23):
    return TrialConfig(ChannelParams(T, veps), SourceParams(1.0),
                       Protocol("modified", 3.0, 10.0, r), N, trials, seed)


# --------------------------------------------------------------------------
# determinism


def test_run_trials_reproducible():
    cfg = _single_cfg(r=0.5, N=10000, trials=50, seed=77)
    a = run_trials(cfg, threads=1)
    b = run_trials(cfg, threads=1)
    assert a == b


def test_run_trials_thread_count_invisible():
    cfg = _modified_cfg(N=20000, trials=30, seed=78)
    a = run_trials(cfg, threads=1)
    b = run_trials(cfg, threads=3)
    assert a == b


@pytest.mark.parametrize("protocol, N, expected", [
    (Protocol("single", 3.0, r=0.5), 2000,
     ("0x1.935a347092b72p-3", "0x1.7a0465c03aa3dp-6",
      "0x1.36a7498836436p-6", "0x1.0e0e5e1474cd5p-5")),
    (Protocol("double", 3.0, 10.0), 2000,
     ("0x1.a4a6a497a4033p-3", "0x1.a9bdda5fc008fp-7",
      "-0x1.2f6f0224bf942p-6", "0x1.1197a82f97b6bp-4")),
    (Protocol("modified", 3.0, 10.0, 0.5), 2000,
     ("0x1.9f98b584769fap-3", "0x1.9c663a8e6e2a6p-7",
      "-0x1.3e185f647d1c7p-7", "0x1.fa78c907c70cfp-6")),
    # r * N = 1000.25: the sampler discloses round(r * N) samples
    (Protocol("modified", 3.0, 10.0, 0.25), 4001,
     ("0x1.9e78196607ae0p-3", "0x1.5f1f8723d907dp-7",
      "-0x1.0cc9c78809ea2p-8", "0x1.d2af31d9c078ep-6")),
])
def test_trial_statistics_are_pinned(protocol, N, expected):
    # the exact bits of every scheme's reduction; a change of draw order
    # or of the sampler's arithmetic moves them
    cfg = TrialConfig(ChannelParams(0.2, 0.002), SourceParams(1.0), protocol,
                      N, 20, 2014)
    stats = run_trials(cfg, threads=1)
    assert tuple(x.hex() for x in (stats.mean_T, stats.std_T,
                                   stats.mean_Veps, stats.std_Veps)) == expected


def test_simulate_transmission_deterministic_per_trial():
    cfg = _double_cfg(trials=1, seed=79)
    a, b = simulate_transmission(cfg, 0), simulate_transmission(cfg, 0)
    [other] = simulate_transmission(cfg, 1)
    assert len(a) == len(b) == 1
    assert all(np.array_equal(x.M, y.M) and np.array_equal(x.B, y.B)
               for x, y in zip(a, b))
    assert not np.array_equal(a[0].B, other.B)


# --------------------------------------------------------------------------
# the simulated channel has the right distribution


def test_received_variance_matches_model():
    cfg = _single_cfg()  # T=0.1, veps=0.001, v=3: Var(B) = 1.301
    [samples] = simulate_transmission(cfg, 0)
    var_b = float(np.var(samples.B, dtype=np.float64))
    se = 1.301 * math.sqrt(2.0 / cfg.N)
    assert abs(var_b - 1.301) < 3.0 * se


def test_opaque_channel_decorrelates():
    cfg = _single_cfg(T=0.0, veps=0.0, seed=12)
    [samples] = simulate_transmission(cfg, 0)
    corr = float(np.corrcoef(samples.M.astype(np.float64),
                             samples.B.astype(np.float64))[0, 1])
    assert abs(corr) < 3.0 / math.sqrt(cfg.N)


def test_received_record_is_gaussian():
    cfg = _single_cfg(T=1.0, veps=0.0, v=0.0, N=1000000, seed=13)
    [samples] = simulate_transmission(cfg, 0)
    b = samples.B.astype(np.float64)
    b = (b - b.mean()) / b.std()
    assert abs(float(np.mean(b**3))) < 0.05
    assert abs(float(np.mean(b**4)) - 3.0) < 0.1


def test_silent_source_produces_silence():
    cfg = TrialConfig(ChannelParams(1.0, 0.0), SourceParams(1e-30),
                      Protocol("single", 0.0, r=1.0), 1000, 1, 14)
    [samples] = simulate_transmission(cfg, 0)
    assert float(np.max(np.abs(samples.B))) < 1e-6


def test_received_variance_matches_eb_picture():
    # the prepare-and-measure simulation and the entanglement-based matrix
    # must give the same channel-output variance
    cfg = _single_cfg(T=0.2, veps=0.002, v=3.0, r=0.5, seed=21)
    [samples] = simulate_transmission(cfg, 0)
    gamma = build_eb_covariance(cfg.channel, cfg.source, 3.0, 3.0)
    b_x = gamma.entries[2, 2]
    var_b = float(np.var(samples.B, dtype=np.float64))
    assert abs(var_b - b_x) < 3.0 * b_x * math.sqrt(2.0 / samples.B.size)


def test_displacement_output_covariance():
    cfg = _single_cfg(T=0.2, veps=0.002, v=3.0, r=0.5, seed=21)
    [samples] = simulate_transmission(cfg, 0)
    prod = samples.M.astype(np.float64) * samples.B.astype(np.float64)
    expected = math.sqrt(cfg.channel.T) * 3.0
    se = math.sqrt(float(np.var(prod)) / prod.size)
    assert abs(float(np.mean(prod)) - expected) < 3.0 * se


@pytest.mark.parametrize("cfg", [
    _single_cfg(r=0.5, N=20000, seed=25),
    _double_cfg(N=20000, trials=1, seed=26),
    _modified_cfg(r=0.25, N=20001, trials=1, seed=27),   # r * N fractional
])
def test_sampler_matches_the_arm_model(cfg):
    # one record per estimation arm, with the arm's size, and per arm the
    # moments of the arm model: Var(M) = revealed, E[MB] = sqrt(T) revealed,
    # Var(B) = T revealed + the noise of everything withheld
    shown = round(cfg.scheme.r * cfg.N)
    arms = estimation_arms(cfg.scheme, cfg.N - shown, shown)
    records = simulate_transmission(cfg, 0)
    assert [s.M.size for s in records] == [m for m, _, _ in arms]
    for s, (m, revealed, withheld) in zip(records, arms):
        M, B = s.M.astype(np.float64), s.B.astype(np.float64)
        noise = aggregated_noise_variance(cfg.channel, cfg.source, withheld)
        var_b = cfg.channel.T * revealed + noise
        cov = math.sqrt(cfg.channel.T) * revealed
        for value, expected, se in (
                (np.var(M), revealed, revealed * math.sqrt(2.0 / m)),
                (np.mean(M * B), cov, math.sqrt((revealed * var_b + cov**2) / m)),
                (np.var(B), var_b, var_b * math.sqrt(2.0 / m))):
            assert abs(float(value) - expected) < 4.0 * se


# --------------------------------------------------------------------------
# estimator statistics over many trials


def test_estimators_unbiased_each_scheme():
    for cfg in (_single_cfg(T=0.2, veps=0.002, r=0.5, trials=400, seed=21),
                _double_cfg(), _modified_cfg()):
        stats = run_trials(cfg, threads=1)
        se_t = stats.model.sigma / math.sqrt(cfg.trials)
        se_v = stats.model.s / math.sqrt(cfg.trials)
        assert abs(stats.mean_T - cfg.channel.T) < 3.0 * se_t
        assert abs(stats.mean_Veps - cfg.channel.v_eps) < 3.0 * se_v


def test_empirical_spread_matches_analytic_model():
    for cfg in (_single_cfg(T=0.2, veps=0.002, r=0.5, trials=400, seed=21),
                _double_cfg(), _modified_cfg()):
        stats = run_trials(cfg, threads=1)
        assert stats.rel_err_T < 0.10
        assert stats.rel_err_Veps < 0.10


@pytest.mark.parametrize("protocol", [Protocol("single", 3.0, r=0.25),
                                      Protocol("double", 3.0, 10.0),
                                      Protocol("modified", 3.0, 10.0, 0.25)])
def test_trial_model_is_the_planning_model(protocol):
    # r * N is whole here, so the sampler's counts are the planned ones
    ch, src, N = ChannelParams(0.2, 0.002), SourceParams(1.0), 4000
    stats = run_trials(TrialConfig(ch, src, protocol, N, 2, 5), threads=1)
    planned = expected_bounds(ch, ProtocolParams(src, protocol, N))
    assert confidence_bounds(ch.T, ch.v_eps, stats.model, 1e-10) == planned


def test_double_trials_run_at_zero_transmittance():
    # one arm takes weight 1 without dividing by its vanishing variance
    stats = run_trials(_double_cfg(T=0.0, veps=0.0, N=2000, trials=20, seed=24),
                       threads=1)
    assert stats.model.sigma_sq == 0.0 and stats.rel_err_T is None
    assert stats.rel_err_Veps < 0.5
    assert abs(stats.mean_T) < 1e-2


def test_trial_spread_shrinks_with_more_trials():
    few = run_trials(_single_cfg(r=0.5, N=10000, trials=100, seed=15), threads=1)
    many = run_trials(_single_cfg(r=0.5, N=10000, trials=10000, seed=15), threads=1)
    assert many.rel_err_Veps < few.rel_err_Veps


def test_single_trial_has_no_spread_fields():
    stats = run_trials(_single_cfg(trials=1), threads=1)
    assert stats.std_T is None and stats.std_Veps is None
    assert stats.rel_err_T is None and stats.rel_err_Veps is None
    assert isinstance(stats.model.sigma_sq, float)


# --------------------------------------------------------------------------
# configuration validation


def test_trial_config_validation():
    ch, src = ChannelParams(0.1, 0.001), SourceParams(1.0)
    single = Protocol("single", 3.0, r=0.5)
    with pytest.raises(ValueError):
        TrialConfig(ch, src, single, 100.5, 1, 0)  # N not an integer
    with pytest.raises(ValueError):
        TrialConfig(ch, src, single, 100, 0, 0)    # no trials
    with pytest.raises(ValueError):
        TrialConfig(ch, src, single, 100, 1, -1)   # negative seed
    for n, trials, seed, name in ((True, 1, 0, "block size"),
                                  (100, True, 0, "trial count"),
                                  (100, 1, False, "seed")):
        with pytest.raises(ValueError, match=name):
            TrialConfig(ch, src, single, n, trials, seed)   # a bool is no count
    with pytest.raises(ValueError):
        TrialConfig(ch, src, Protocol("single", 3.0, r=0.001),
                    100, 1, 0)    # discloses zero samples
    with pytest.raises(ValueError):
        TrialConfig(ChannelParams(0.0, 0.0), src,
                    Protocol("modified", 3.0, 10.0, 0.5), 100, 1, 0)


def test_default_thread_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("CVQKD_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _resolve_threads(None) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 3})
    assert _resolve_threads(None) == 3


def test_thread_counts_below_one_are_refused(monkeypatch):
    monkeypatch.delenv("CVQKD_THREADS", raising=False)
    for threads in (0, -3, 2.0, True):
        with pytest.raises(ValueError, match="--threads"):
            _resolve_threads(threads)
    for text in ("abc", "0", "-3", "2.5"):
        monkeypatch.setenv("CVQKD_THREADS", text)
        with pytest.raises(ValueError, match="CVQKD_THREADS"):
            _resolve_threads(None)
    monkeypatch.setenv("CVQKD_THREADS", " 3 ")
    assert _resolve_threads(None) == 3
    assert _resolve_threads(2) == 2   # the argument wins over the variable


# --------------------------------------------------------------------------
# validation-grid plumbing

_GRID_PROTOCOLS = (Protocol("single", 3.0, r=0.5),
                   Protocol("double", 3.0, 10.0),
                   Protocol("modified", 3.0, 10.0, 0.5))


def test_validation_grid_structure():
    src, N = SourceParams(1.0), 5000
    t_grid = [0.05, 0.2, 0.8]
    rows = validate_variance_models(t_grid, _GRID_PROTOCOLS, src, N, 60, 31,
                                    threads=1)
    assert len(rows) == 9
    assert [row.scheme for row in rows[:3]] == ["single"] * 3
    assert [row.T for row in rows[:3]] == t_grid

    for row in rows:
        assert row.s_analytic > 0.0 and row.sigma_analytic > 0.0
        assert row.s_empirical > 0.0 and row.sigma_empirical > 0.0
        assert row.rel_err_s == pytest.approx(
            abs(row.s_empirical - row.s_analytic) / row.s_analytic, rel=1e-12)
        assert row.veps_th > 0.0
        if row.scheme == "single":
            assert row.samples == pytest.approx(0.5 * N)
            ch = ChannelParams(row.T, 0.01 * row.T)
            ref = variance_model(ch, src, ((row.samples, 3.0, 0.0),))
            assert row.s_analytic == pytest.approx(ref.s, rel=1e-12)
        else:
            assert row.samples == N


def test_validation_grid_deterministic():
    src = SourceParams(1.0)
    a = validate_variance_models([0.1, 0.9], _GRID_PROTOCOLS, src, 2000, 25, 32,
                                 threads=1)
    b = validate_variance_models([0.1, 0.9], _GRID_PROTOCOLS, src, 2000, 25, 32,
                                 threads=2)
    assert a == b


@pytest.mark.parametrize("seed", [-1, 2.0, True, "7"])
def test_validation_grid_refuses_a_bad_seed(seed):
    # refused under its own name before any row seed is derived from it
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        validate_variance_models([0.1], _GRID_PROTOCOLS, SourceParams(1.0), 2000, 2,
                                 seed, threads=1)
