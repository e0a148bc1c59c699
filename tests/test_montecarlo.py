"""Sampling layer: determinism, distributional checks, estimator statistics.

The per-arm Wishart draw of ``cvqkd.montecarlo`` is checked against the
arm model and against the sample-level simulator of ``sample_reference``.
"""

import math

import numpy as np
import pytest

from cvqkd import (
    ChannelParams,
    FiberModel,
    SourceParams,
    Protocol,
    ProtocolParams,
    TrialConfig,
    aggregated_noise_variance,
    confidence_bounds,
    estimation_arms,
    expected_bounds,
    estimate_T,
    estimate_Veps,
    run_trials,
    theoretical_noise_limit,
    validate_variance_models,
    variance_model,
    excess_noise_from_fiber,
    ValidationRow,
)
from cvqkd.estimation import _t_estimate, _veps_estimate
from cvqkd.montecarlo import _BATCH_TRIALS, _arm_means, _row_seed, _run_rows, _weights
from matrix_reference import build_eb_covariance
from sample_reference import reference_estimates, simulate_transmission


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
    a = run_trials(cfg)
    b = run_trials(cfg)
    assert a == b


@pytest.mark.parametrize("protocol, N, expected", [
    (Protocol("single", 3.0, r=0.5), 2000,
     ("0x1.a3e3948349952p-3", "0x1.57b803e376327p-6",
      "-0x1.72b1b9b89e9d3p-8", "0x1.886ba7645999fp-5")),
    (Protocol("double", 3.0, 10.0), 2000,
     ("0x1.9ff153d1ecef6p-3", "0x1.9a2a88600ef45p-7",
      "-0x1.f18a91f9c9320p-7", "0x1.e4dc37182a821p-5")),
    (Protocol("modified", 3.0, 10.0, 0.5), 2000,
     ("0x1.98b04b8f3a7f2p-3", "0x1.06b5e66551c18p-6",
      "0x1.cd4cd48eb91a0p-7", "0x1.d95532a64015dp-6")),
    # r * N = 1000.25: the draw discloses round(r * N) samples
    (Protocol("modified", 3.0, 10.0, 0.25), 4001,
     ("0x1.9aa08bf14b08bp-3", "0x1.64a4f881851ccp-7",
      "0x1.03cd5b618a708p-7", "0x1.9553e33f1fc57p-6")),
])
def test_trial_statistics_are_pinned(protocol, N, expected):
    # the exact bits of every scheme's reduction; a change of draw order
    # or of the draw's arithmetic moves them
    cfg = TrialConfig(ChannelParams(0.2, 0.002), SourceParams(1.0), protocol,
                      N, 20, 2014)
    stats = run_trials(cfg)
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


def _arm_law(cfg, m, revealed, withheld):
    """The mean and covariance of an arm's ``(mean M^2, mean MB, mean B^2)``
    under its Wishart law: ``Sigma`` and ``(S_ik S_jl + S_il S_jk) / m``."""
    noise = aggregated_noise_variance(cfg.channel, cfg.source, withheld)
    cov = math.sqrt(cfg.channel.T) * revealed
    sigma = np.array([[revealed, cov], [cov, cfg.channel.T * revealed + noise]])
    pairs = ((0, 0), (0, 1), (1, 1))
    spread = np.array([[(sigma[i, k] * sigma[j, l] + sigma[i, l] * sigma[j, k]) / m
                        for k, l in pairs] for i, j in pairs])
    return np.array([sigma[i, j] for i, j in pairs]), spread


def _row_means(rng, cfg, trials, arm):
    # one row's Wishart draw: per trial (mean M^2, mean MB, mean B^2) in a row
    means = _arm_means([rng], [cfg.channel], cfg.source, trials, *arm)
    return np.column_stack([row for [row] in means])


def _mean_agrees(draws, mean, spread):
    # per trial (mean M^2, mean MB, mean B^2) in the rows of ``draws``: the
    # sample mean within 4 standard errors of ``mean``
    se = np.sqrt(np.diag(spread) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.0 * se)


def _agrees_with_law(draws, mean, spread):
    # and each sample covariance within 4 standard errors (Gaussian
    # approximation, fair at the thousands of samples per arm used here)
    _mean_agrees(draws, mean, spread)
    k, d = draws.shape[0], np.sqrt(np.diag(spread))
    se_cov = np.sqrt((np.outer(d, d) ** 2 + spread ** 2) / k)
    assert np.all(np.abs(np.cov(draws, rowvar=False) - spread) < 4.0 * se_cov)


@pytest.mark.parametrize("cfg", [
    _single_cfg(r=0.5, N=20000, seed=25),
    _double_cfg(N=20000, trials=1, seed=26),
    _modified_cfg(r=0.25, N=20001, trials=1, seed=27),   # r * N fractional
])
def test_sampler_matches_the_arm_model(cfg):
    # the sample-level simulator: one record per estimation arm, with the
    # arm's size, and per arm the moments of the arm model: Var(M) =
    # revealed, E[MB] = sqrt(T) revealed, Var(B) = T revealed + the noise of
    # everything withheld
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
        # the estimators' cores on the record's three means are the public
        # estimators, and the V_eps core is the residual fit it expands
        means = [float(np.mean(x * y)) for x, y in ((M, M), (M, B), (B, B))]
        t_hat = estimate_T(s, revealed)
        assert _t_estimate(means[1], revealed) == pytest.approx(t_hat, rel=1e-12)
        v_s = cfg.source.v_s + withheld
        residual = float(np.mean((B - math.sqrt(t_hat) * M) ** 2))
        for v_hat in (_veps_estimate(*means, t_hat, v_s),
                      estimate_Veps(s, t_hat, SourceParams(v_s))):
            assert v_hat == pytest.approx(residual + t_hat * (1.0 - v_s) - 1.0, rel=1e-12)

    # the Wishart draw over many trials, and the sample-level simulator over
    # a few hundred blocks, per arm against the same law
    rng = np.random.default_rng(cfg.seed)
    drawn = [_row_means(rng, cfg, 20000, arm) for arm in arms]
    simulated = [[] for _ in arms]
    for k in range(300):
        for rows, s in zip(simulated, simulate_transmission(cfg, k)):
            M, B = s.M.astype(np.float64), s.B.astype(np.float64)
            rows.append([np.mean(M * M), np.mean(M * B), np.mean(B * B)])
    for arm, draws, rows in zip(arms, drawn, simulated):
        mean, spread = _arm_law(cfg, *arm)
        _agrees_with_law(draws, mean, spread)
        _agrees_with_law(np.array(rows), mean, spread)


# --------------------------------------------------------------------------
# estimator statistics over many trials


def test_estimators_unbiased_each_scheme():
    for cfg in (_single_cfg(T=0.2, veps=0.002, r=0.5, trials=400, seed=21),
                _double_cfg(), _modified_cfg()):
        stats = run_trials(cfg)
        se_t = stats.model.sigma / math.sqrt(cfg.trials)
        se_v = stats.model.s / math.sqrt(cfg.trials)
        assert abs(stats.mean_T - cfg.channel.T) < 3.0 * se_t
        assert abs(stats.mean_Veps - cfg.channel.v_eps) < 3.0 * se_v


def test_empirical_spread_matches_analytic_model():
    for cfg in (_single_cfg(T=0.2, veps=0.002, r=0.5, trials=400, seed=21),
                _double_cfg(), _modified_cfg()):
        stats = run_trials(cfg)
        assert stats.rel_err_T < 0.10
        assert stats.rel_err_Veps < 0.10


@pytest.mark.parametrize("protocol", [Protocol("single", 3.0, r=0.25),
                                      Protocol("double", 3.0, 10.0),
                                      Protocol("modified", 3.0, 10.0, 0.25)])
def test_trial_model_is_the_planning_model(protocol):
    # r * N is whole here, so the sampler's counts are the planned ones
    ch, src, N = ChannelParams(0.2, 0.002), SourceParams(1.0), 4000
    stats = run_trials(TrialConfig(ch, src, protocol, N, 2, 5))
    planned = expected_bounds(ch, ProtocolParams(src, protocol, N))
    assert confidence_bounds(ch.T, ch.v_eps, stats.model, 1e-10) == planned


@pytest.mark.parametrize("T", [0.2, 0.0])
def test_modified_trials_disclosing_nothing_are_double_trials(T):
    # round(r N) = 0 leaves out the disclosed arm, so the one probe-only arm
    # is drawn with the double scheme's generator state; at T = 0 no weight
    # divides by its vanishing variance
    ch, src, N = ChannelParams(T, 0.01 * T), SourceParams(1.0), 20000
    modified = TrialConfig(ch, src, Protocol("modified", 3.0, 10.0, 0.0), N, 50, 25)
    double = TrialConfig(ch, src, Protocol("double", 3.0, 10.0), N, 50, 25)
    assert modified.disclosed == 0
    assert run_trials(modified) == run_trials(double)


def test_double_trials_run_at_zero_transmittance():
    # one arm takes weight 1 without dividing by its vanishing variance
    stats = run_trials(_double_cfg(T=0.0, veps=0.0, N=2000, trials=20, seed=24))
    assert stats.model.sigma_sq == 0.0 and stats.rel_err_T is None
    assert stats.rel_err_Veps < 0.5
    assert abs(stats.mean_T) < 1e-2


@pytest.mark.parametrize("protocol, N", [
    (Protocol("single", 3.0, r=0.5), 2),           # the one arm has one sample
    (Protocol("modified", 3.0, 10.0, 0.75), 4),    # the probe-only arm has one
])
def test_arms_of_one_sample_match_the_sample_level_simulator(protocol, N):
    # chi^2_0 is 0, not a draw: the second Bartlett variate of a one-sample
    # arm vanishes, and the mean T-hat still follows the simulated blocks;
    # at these few samples per arm each draw's means resolve its 1/m terms
    cfg = TrialConfig(ChannelParams(0.2, 0.002), SourceParams(1.0), protocol, N,
                      20000, 41)
    arms = estimation_arms(protocol, N - cfg.disclosed, cfg.disclosed)
    assert min(m for m, _, _ in arms) == 1
    rng = np.random.default_rng(cfg.seed)
    for arm in arms:
        _mean_agrees(_row_means(rng, cfg, cfg.trials, arm), *_arm_law(cfg, *arm))
    stats = run_trials(cfg)
    t_ref, _ = reference_estimates(cfg)
    se = math.sqrt((stats.std_T ** 2 + float(np.var(t_ref, ddof=1))) / cfg.trials)
    assert abs(stats.mean_T - float(np.mean(t_ref))) < 4.0 * se


def test_trials_at_the_papers_block_size():
    # N = 1e10, where a sample-level draw would need tens of GB per record:
    # the spreads match the model, and the mean T-hat is T plus its 1/m bias
    T, v, v2, N = 0.01, 3.0, 10.0, 10**10
    cfg = TrialConfig(ChannelParams(T, 0.01 * T), SourceParams(1.0),
                      Protocol("double", v, v2), N, 100000, 43)
    stats = run_trials(cfg)
    assert stats.rel_err_T < 0.03 and stats.rel_err_Veps < 0.03
    noise = aggregated_noise_variance(cfg.channel, cfg.source, v)
    bias = (2.0 * T + noise / v2) / N
    assert abs(stats.mean_T - (T + bias)) < 4.0 * stats.model.sigma / math.sqrt(cfg.trials)


def test_trial_spread_shrinks_with_more_trials():
    few = run_trials(_single_cfg(r=0.5, N=10000, trials=100, seed=15))
    many = run_trials(_single_cfg(r=0.5, N=10000, trials=10000, seed=15))
    assert many.rel_err_Veps < few.rel_err_Veps


def test_single_trial_has_no_spread_fields():
    stats = run_trials(_single_cfg(trials=1))
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
    # refused by name, in ProtocolParams' wording, before round(r * N) overflows
    for protocol in (single, Protocol("double", 3.0, 10.0), Protocol("modified", 3.0, 10.0, 0.5)):
        for n, trials, name in ((10**400, 1, "block size N"), (100, 10**400, "trial count")):
            with pytest.raises(ValueError, match=f"^{name} must lie in the float range, got 1000"):
                TrialConfig(ch, src, protocol, n, trials, 0)
    with pytest.raises(ValueError):
        TrialConfig(ch, src, Protocol("single", 3.0, r=0.001),
                    100, 1, 0)    # discloses zero samples
    with pytest.raises(ValueError):
        TrialConfig(ChannelParams(0.0, 0.0), src,
                    Protocol("modified", 3.0, 10.0, 0.5), 100, 1, 0)


@pytest.mark.parametrize("t_grid", [[0.0, 0.5], [0.5, 0.0], [0.0, 1.5]],
                         ids=["first-row", "later-row", "before-a-later-bad-T"])
def test_modified_trials_need_a_transmittance_to_weight_two_arms(t_grid):
    # two arms are weighted by inverse variances, which vanish at T = 0; the
    # table checks its scheme once but this on every row, in row order
    message = "^modified-scheme trials need T > 0 to weight the sub-estimates$"
    modified, src = Protocol("modified", 3.0, 10.0, 0.5), SourceParams(1.0)
    with pytest.raises(ValueError, match=message):
        TrialConfig(ChannelParams(0.0, 0.0), src, modified, 100, 2, 0)
    with pytest.raises(ValueError, match=message):
        validate_variance_models(t_grid, (modified,), src, 2000, 2, 0)


# --------------------------------------------------------------------------
# validation-grid plumbing

_GRID_PROTOCOLS = (Protocol("single", 3.0, r=0.5),
                   Protocol("double", 3.0, 10.0),
                   Protocol("modified", 3.0, 10.0, 0.5))


def test_validation_grid_structure():
    src, N = SourceParams(1.0), 5000
    t_grid = [0.05, 0.2, 0.8]
    rows = validate_variance_models(t_grid, _GRID_PROTOCOLS, src, N, 60, 31)
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
    a = validate_variance_models([0.1, 0.9], _GRID_PROTOCOLS, src, 2000, 25, 32)
    b = validate_variance_models([0.1, 0.9], _GRID_PROTOCOLS, src, 2000, 25, 32)
    assert a == b


def test_validation_grid_reads_a_one_shot_grid_once():
    # every protocol walks the grid, so an iterator must give the list's rows
    src, t_grid = SourceParams(1.0), [0.1, 0.5]
    rows = validate_variance_models(t_grid, _GRID_PROTOCOLS, src, 2000, 5, 1)
    assert len(rows) == 6
    for one_shot in (iter(t_grid), map(float, t_grid)):
        assert validate_variance_models(one_shot, _GRID_PROTOCOLS, src, 2000, 5, 1) == rows


# a modified scheme with round(r N) = 0 at N = 2000 draws the double
# scheme's one arm
_BATCH_PROTOCOLS = _GRID_PROTOCOLS + (Protocol("modified", 3.0, 10.0, 1e-4),)


@pytest.mark.parametrize("trials", [2, 35, _BATCH_TRIALS // 2, _BATCH_TRIALS + 1],
                         ids=["2", "35", "two-rows-a-batch", "a-row-a-batch"])
def test_validation_rows_equal_lone_runs(trials):
    # the stacked batches against the one-row reference: each row is what
    # run_trials gives on the row's own configuration and seed; at N = 2 the
    # single and modified arms hold one sample each, so chi^2_0 = 0 is stacked
    src, seed, t_grid = SourceParams(1.0), 33, [0.05, 0.3, 0.9]
    for N, protocols, count in ((2000, _BATCH_PROTOCOLS, 12), (2, _GRID_PROTOCOLS, 9)):
        rows = validate_variance_models(t_grid, protocols, src, N, trials, seed)
        expected = []
        for s_idx, protocol in enumerate(protocols):
            for t_idx, T in enumerate(t_grid):
                channel = ChannelParams(T, excess_noise_from_fiber(T, FiberModel()))
                config = TrialConfig(channel, src, protocol, N, trials,
                                     _row_seed(seed, s_idx, t_idx))
                stats = run_trials(config)
                expected.append(ValidationRow(
                    protocol.kind, T, float(config.disclosed if protocol.kind == "single" else N),
                    stats.model.s, stats.std_Veps, stats.rel_err_Veps, stats.model.sigma,
                    stats.std_T, stats.rel_err_T, theoretical_noise_limit(channel, float(N))))
        assert len(rows) == len(expected) == count
        for row, reference in zip(rows, expected):
            assert row == reference
        assert validate_variance_models([], protocols, src, N, trials, seed) == []


def _row_reference(rng, channel, source, trials, m, revealed, withheld):
    # the draw of one row, as the sampler computed it row by row
    T = channel.T
    noise = aggregated_noise_variance(channel, source, withheld)
    a11 = np.sqrt(rng.chisquare(m, trials))
    a22_sq = rng.chisquare(m - 1, trials) if m > 1 else np.zeros(trials)
    a21 = rng.standard_normal(trials)
    x11 = math.sqrt(revealed) * a11
    x21 = math.sqrt(T * revealed) * a11 + math.sqrt(noise) * a21
    return x11 * x11 / m, x11 * x21 / m, (x21 * x21 + noise * a22_sq) / m


@pytest.mark.parametrize("protocol, N", [
    (Protocol("single", 3.0, r=0.5), 2000),
    (Protocol("double", 3.0, 10.0), 2000),
    (Protocol("modified", 3.0, 10.0, 0.5), 2000),
    (Protocol("single", 3.0, r=0.5), 2),           # the one arm has one sample
    (Protocol("modified", 3.0, 10.0, 0.75), 4),    # the probe-only arm has one
])
def test_stacked_rows_equal_the_row_by_row_arithmetic(protocol, N):
    # bit for bit: each row of the stacked draw against the row drawn alone,
    # and each row's statistics against its estimators and reductions alone;
    # run_trials shares the stacked path, so the lone-run comparison above
    # cannot see a reassociation
    src, trials, seeds = SourceParams(1.0), 35, [101, 202, 303]
    channels = [ChannelParams(T, 0.01 * T) for T in (0.05, 0.3, 0.9)]
    config = TrialConfig(channels[0], src, protocol, N, trials, 0)
    arms = estimation_arms(protocol, N - config.disclosed, config.disclosed)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    stacked = [_arm_means(rngs, channels, src, trials, *arm) for arm in arms]
    stats = _run_rows(config, channels, seeds)
    for row, (channel, seed) in enumerate(zip(channels, seeds)):
        rng = np.random.default_rng(seed)
        means = [_row_reference(rng, channel, src, trials, *arm) for arm in arms]
        for drawn, alone in zip(stacked, means):
            assert [x[row].tobytes() for x in drawn] == [x.tobytes() for x in alone]
        model = variance_model(channel, src, arms)
        t_weights, v_weights = (_weights(v) for v in zip(*model.per_arm))
        t_hat = sum(_t_estimate(mb, revealed) * w
                    for (_, mb, _), (_, revealed, _), w in zip(means, arms, t_weights))
        v_hat = sum(_veps_estimate(mm, mb, bb, t_hat, src.v_s + withheld) * u
                    for (mm, mb, bb), (_, _, withheld), u in zip(means, arms, v_weights))
        expected = [float(f(x)) for x in (t_hat, v_hat)
                    for f in (np.mean, lambda a: np.std(a, ddof=1))]
        got = stats[row]
        assert [x.hex() for x in (got.mean_T, got.std_T, got.mean_Veps, got.std_Veps)] == \
            [x.hex() for x in expected]


@pytest.mark.parametrize("seed", [-1, 2.0, True, "7"])
def test_validation_grid_refuses_a_bad_seed(seed):
    # refused under its own name before any row seed is derived from it
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        validate_variance_models([0.1], _GRID_PROTOCOLS, SourceParams(1.0), 2000, 2,
                                 seed)
