"""Command-line interface: exit codes, file formats, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cvqkd import (ChannelParams, ExponentialFit, FiberModel, OptimizationProblem,
                   Protocol, ProtocolParams, SourceParams, cli, fit_exponential_keyrate,
                   max_distance, optimize_key_rate, optimizer)
from cvqkd.model import KINDS
from cvqkd.cli import (main_entry, scenario_digest, preset_names, load_preset,
                       run_sweep)

_SWEEP_HEADER = ("axis_value,K,K_inf,I_AB,chi,Delta,T_low,Veps_up,"
                 "V_opt,r_opt,K_th,K_legacy")
_MC_HEADER = ("scheme,T,samples,s_analytic,s_empirical,rel_err_s,"
              "sigma_analytic,sigma_empirical,rel_err_sigma,veps_th")


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


# --------------------------------------------------------------------------
# basics


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main_entry(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "cvqkd 0.1.0"


def test_presets_listing(capsys):
    assert main_entry(["presets"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [line.split(":")[0] for line in lines]
    assert names == sorted(names)
    assert names == ["blocksize_sweep", "distance_sweep", "large_block_sweep",
                     "noise_sweep", "reconciliation_sweep",
                     "variance_validation"]
    assert preset_names() == names


def test_scenario_digest_ignores_key_order():
    a = {"name": "x", "trials": 3, "nested": {"p": 1, "q": 2}}
    b = {"nested": {"q": 2, "p": 1}, "trials": 3, "name": "x"}
    assert scenario_digest(a) == scenario_digest(b)
    assert scenario_digest(a) != scenario_digest({**a, "trials": 4})


# --------------------------------------------------------------------------
# keyrate command


def test_keyrate_ideal_lossless(capsys):
    rc = main_entry(["keyrate", "--T", "1", "--veps", "0", "--vs", "1",
                     "--v", "3", "--beta", "1", "--ideal-bounds"])
    payload = _json_out(capsys)
    assert rc == 0
    assert payload["report"]["K_inf"] == pytest.approx(1.0, abs=1e-9)
    assert payload["report"]["K"] == pytest.approx(1.0, abs=1e-9)
    assert payload["report"]["Delta_n"] == 0.0


def test_keyrate_optimizes_unpinned_flags(capsys, tmp_path):
    out = tmp_path / "report.json"
    rc = main_entry(["keyrate", "--T", "0.5", "--N", "1e6",
                     "--out", str(out)])
    payload = _json_out(capsys)
    assert rc == 0
    assert set(payload) == {"manifest", "inputs", "report", "optimum"}
    assert payload["optimum"]["status"] == "ok"
    assert {"v", "r"} <= set(payload["optimum"]["point"])
    assert payload["report"]["K"] > 0.0
    assert json.loads(out.read_text()) == payload


def test_keyrate_pinned_point_is_direct(capsys):
    rc = main_entry(["keyrate", "--T", "0.5", "--v", "3", "--r", "0.25",
                     "--N", "1e6"])
    payload = _json_out(capsys)
    assert rc == 0
    assert "optimum" not in payload
    assert payload["report"]["n"] == 0.75e6


def test_optimize_with_every_flag_pinned_reports_the_pinned_point(capsys):
    flags = ["--T", "0.3", "--v", "3", "--r", "0.3", "--N", "1e6"]
    rc = main_entry(["optimize"] + flags)
    payload = _json_out(capsys)
    assert rc == 0
    assert payload["optimum"]["point"] == {}
    assert payload["optimum"]["evaluations"] == 1
    assert payload["report"]["n"] == 0.7e6
    assert main_entry(["keyrate"] + flags) == 0
    assert payload["optimum"]["K"] == _json_out(capsys)["report"]["K"]


def test_optimize_with_every_flag_pinned_names_why_the_point_fails(capsys):
    rc = main_entry(["optimize", "--T", "0.3", "--v", "3", "--r", "0", "--N", "1e6"])
    assert rc == 1
    assert "sample count must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("flags, reason", [
    (["--T", "0.3", "--r", "0"], "sample count must be > 0, got 0.0 (13 of 13 points)"),
    (["--T", "0"],
     "estimation that reveals every displacement is degenerate at T = 0 (157 of 157 points)"),
], ids=["r-zero", "T-zero"])
def test_optimize_names_why_every_grid_point_fails(capsys, flags, reason):
    assert main_entry(["optimize", "--scheme", "single", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == ("error: every grid point was infeasible; check the "
                                    f"channel and block size: {reason}")


def test_keyrate_refuses_an_overflowing_modulation_variance(capsys):
    rc = main_entry(["keyrate", "--T", "0.5", "--v", "1e308", "--r", "0.5"])
    assert rc == 1
    assert "modulation variance" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", [["--scheme", "double"],
                                    ["--scheme", "modified", "--r", "0.3"]])
def test_keyrate_refuses_an_overflowing_key_variance(capsys, scheme):
    rc = main_entry(["keyrate", "--T", "0.5", "--v1", "1e308", *scheme])
    assert rc == 1
    err = capsys.readouterr().err
    assert "key variance too large" in err and "v=1e+308" in err


@pytest.mark.parametrize("command", ["keyrate", "optimize"])
@pytest.mark.parametrize("flags, message", [
    (["--scheme", "double", "--v", "3"],
     "--v is the single-scheme variance; the double scheme takes --v1"),
    (["--scheme", "modified", "--v", "3", "--r", "0.3"],
     "--v is the single-scheme variance; the modified scheme takes --v1"),
    (["--scheme", "single", "--v1", "7", "--r", "0.3"],
     "--v1 is the double/modified-scheme variance; the single scheme takes --v"),
    (["--scheme", "single", "--v2", "5"],
     "--v2 is the double/modified-scheme probe variance; the single scheme sends no probe"),
], ids=["double-v", "modified-v", "single-v1", "single-v2"])
def test_other_schemes_key_variance_flag_is_refused(capsys, command, flags, message):
    assert main_entry([command, "--T", "0.5", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--beta", "2"], "reconciliation efficiency must lie in (0, 1], got 2.0"),
    (["optimize", "--delta", "0"], "confidence budget delta must lie in (0, 1), got 0.0"),
    (["optimize", "--delta-star", "1.5"],
     "penalty budget delta_star must lie in (0, 1), got 1.5"),
    (["keyrate", "--beta", "2"], "reconciliation efficiency must lie in (0, 1], got 2.0"),
    # z(delta) would be infinite: not a fault of the channel or of the point
    (["keyrate", "--delta", "5e-324"], "delta = 5e-324 is too small"),
    (["keyrate", "--delta", "5e-324", "--v", "3", "--r", "0.5"],
     "delta = 5e-324 is too small"),
], ids=["optimize-beta", "optimize-delta", "optimize-delta_star", "keyrate-beta",
        "keyrate-delta-underflow", "keyrate-pinned-delta-underflow"])
def test_out_of_range_budgets_are_refused_by_name(capsys, argv, message):
    assert main_entry([*argv, "--T", "0.3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("count", ["inf", "nan", "1", "abc", "2.5", "1000000.5"])
def test_block_size_flag_refuses_a_non_count(capsys, count):
    for argv in (["keyrate", "--T", "0.3", "--N", count], ["maxdist", "--N", "1e6", count]):
        assert main_entry(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"block size must be a count >= 2, got {count!r}" in captured.err


@pytest.mark.parametrize("flag, label, argv", [
    ("--trials", "trial count", ["montecarlo", "--preset", "variance_validation"]),
    ("--seed", "seed", ["montecarlo", "--preset", "variance_validation"]),
])
def test_count_flags_read_any_float_spelling_of_a_whole_number(capsys, flag, label, argv):
    parser = cli.build_parser()
    for text, value in (("1e2", 100), ("100", 100), ("100.0", 100), ("1E1", 10), ("-3", -3)):
        parsed = getattr(parser.parse_args([*argv, flag, text]), flag[2:])
        assert parsed == value and type(parsed) is int
    for text in ("2.5", "1e-1", "inf", "nan", "ten"):
        assert main_entry([*argv, flag, text]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: {label} must be a whole number, got {text!r}" \
            in captured.err


def test_count_flags_in_scientific_notation_run_as_their_integers(capsys, tmp_path):
    scenario = tmp_path / "mc.json"
    scenario.write_text(json.dumps({**load_preset("variance_validation"),
                                    "t_grid": {"min": 0.1, "max": 0.5, "points": 2},
                                    "template": {**load_preset("variance_validation")[
                                        "template"], "N": 1000}}))
    outputs = []
    for trials, seed in (("2e0", "1e3"), ("2", "1000")):
        assert main_entry(["montecarlo", "--scenario", str(scenario), "--trials", trials,
                           "--seed", seed, "--out", str(tmp_path / trials)]) == 0
        capsys.readouterr()
        outputs.append((tmp_path / trials / "variance_validation.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [["optimize", "--T", "0.3", "--N", "2"],
                                  ["keyrate", "--T", "0.3", "--N", "2"]])
def test_block_too_small_to_search_r_asks_to_pin_it(capsys, argv):
    # the r grid would start at 2/N = 1, above the search box
    assert main_entry(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "block size N = 2" in captured.err and "pin r" in captured.err


def test_smallest_block_still_optimizes_the_double_scheme(capsys):
    rc = main_entry(["optimize", "--T", "0.3", "--scheme", "double", "--N", "2"])
    payload = _json_out(capsys)
    assert rc == 2 and payload["optimum"]["status"] == "no_positive_rate"
    assert payload["report"]["N"] == 2


_IMPORT_PROBE = """
import contextlib, io, json, os, sys
import cvqkd.cli
os.sched_getaffinity = lambda pid: {0, 1}  # the sweep forks a child
report = {
    "loaded": [m for m in ("scipy", "numpy", "concurrent", "multiprocessing",
                           "dataclasses", "inspect") if m in sys.modules],
    "missing": [layer for layer in ("model", "estimation", "keyrate", "montecarlo",
                                    "optimizer", "cli")
                if f"cvqkd.{layer}" not in sys.modules],
    "queries": [],
}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cvqkd.cli.main_entry(argv)
    report["queries"].append([argv[0], code, "numpy" in sys.modules])
report["loaded_after"] = [m for m in ("concurrent", "multiprocessing") if m in sys.modules]
print(json.dumps(report))
"""


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # only the sampling code loads numpy, so a planning query (a maxdist
    # fit and a log axis included) never pays for it, and the records
    # need neither dataclasses nor the inspect it imports; every layer
    # module is still imported eagerly, which the bench's tracer reads
    # from sys.modules; a sweep on 2 CPUs forks its child without loading
    # multiprocessing or concurrent.futures
    scenario = tmp_path / "linear.json"
    scenario.write_text(json.dumps({
        "command": "sweep", "name": "linear", "N": 1000000,
        "sweep": {"variable": "d", "min": 5.0, "max": 20.0, "points": 2},
        "schemes": [{"kind": "single"}]}))
    log_n = tmp_path / "log_n.json"
    log_n.write_text(json.dumps({
        "command": "sweep", "name": "log_n", "channel": {"T": 0.3},
        "sweep": {"variable": "N", "min": 1e6, "max": 1e8, "points": 3, "spacing": "log"},
        "schemes": [{"kind": "double"}]}))
    queries = [
        ["keyrate", "--T", "0.3"],
        ["keyrate", "--T", "0.5", "--v", "3", "--r", "0.5", "--N", "1e7",
         "--corner-search"],
        ["optimize", "--T", "0.1", "--scheme", "double", "--N", "1e8"],
        ["sweep", "--scenario", str(scenario), "--out", str(tmp_path)],
        ["maxdist", "--N", "1e6", "1e8"],
        ["sweep", "--scenario", str(log_n), "--out", str(tmp_path)],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(queries)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "loaded": [], "missing": [],
        "queries": [[argv[0], 0, False] for argv in queries], "loaded_after": []}


def test_keyrate_insecure_exit_code(capsys):
    rc = main_entry(["keyrate", "--T", "0.03", "--veps", "0.1", "--v", "3",
                     "--r", "0.5", "--N", "1e4"])
    payload = _json_out(capsys)
    assert rc == 2
    assert payload["report"]["K"] <= 0.0


def test_keyrate_needs_a_channel(capsys):
    assert main_entry(["keyrate", "--vs", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_keyrate_ideal_bounds_needs_variance(capsys):
    rc = main_entry(["keyrate", "--T", "0.5", "--ideal-bounds"])
    assert rc == 1


def test_keyrate_unknown_flag(capsys):
    assert main_entry(["keyrate", "--T", "0.5", "--wat", "1"]) == 1


# --------------------------------------------------------------------------
# scenario-driven commands


def test_sweep_rejects_unknown_preset(capsys):
    assert main_entry(["sweep", "--preset", "nope"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_sweep_rejects_wrong_command_kind(tmp_path):
    assert main_entry(["sweep", "--preset", "variance_validation",
                       "--out", str(tmp_path)]) == 1


def test_montecarlo_rejects_malformed_scenario(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main_entry(["montecarlo", "--scenario", str(bad),
                       "--out", str(tmp_path)]) == 1


def test_sweep_custom_scenario(capsys, tmp_path):
    scenario = {
        "name": "tiny",
        "command": "sweep",
        "fiber": {"attenuation_db_per_km": 0.2, "eps_ratio": 0.01},
        "sweep": {"variable": "d", "min": 10.0, "max": 30.0, "points": 3},
        "N": 1e6,
        "schemes": [{"kind": "single", "v_s": 1.0}],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(scenario))
    rc = main_entry(["sweep", "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == 0
    out = tmp_path / "tiny_single_vs1.csv"
    assert str(out) in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == f"# cvqkd 0.1.0 scenario={scenario_digest(scenario)} seed=none"
    assert lines[1] == _SWEEP_HEADER
    assert len(lines) == 5
    first = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert float(first["axis_value"]) == 10.0
    assert float(first["K"]) > 0.0
    assert float(first["K_th"]) >= float(first["K"]) - 1e-9
    # 12 significant digits, byte-stable re-rendering
    for cell in lines[2].split(","):
        assert "%.12g" % float(cell) == cell


_TINY_SWEEP = {
    "name": "typo",
    "command": "sweep",
    "sweep": {"variable": "d", "min": 10.0, "max": 30.0, "points": 2},
    "N": 1e6,
    "schemes": [{"kind": "single", "v_s": 1.0}],
}


def _sweep_argv(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return ["sweep", "--scenario", str(path), "--out", str(tmp_path)]


def test_sweep_rejects_unknown_scheme_key(capsys, tmp_path):
    scenario = {**_TINY_SWEEP, "schemes": [{"kind": "single", "vs": 0.1}]}
    assert main_entry(_sweep_argv(tmp_path, scenario)) == 1
    assert "'vs'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_without_block_size_names_it(capsys, tmp_path):
    scenario = {key: x for key, x in _TINY_SWEEP.items() if key != "N"}
    assert main_entry(_sweep_argv(tmp_path, scenario)) == 1
    assert "block size 'N'" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, message", [
    ({**_TINY_SWEEP, "channel": {"T": 0.5}},
     "a sweep over d or T takes its channel from the axis; remove the fixed 'channel' entry"),
    ({**_TINY_SWEEP, "sweep": {**_TINY_SWEEP["sweep"], "variable": "T", "min": 0.1,
                               "max": 0.5},
      "channel": {"T": 0.5, "v_eps": 0.001}},
     "a sweep over d or T takes its channel from the axis; remove the fixed 'channel' entry"),
    ({**_TINY_SWEEP, "channel": {"T": 0.5},
      "sweep": {"variable": "N", "min": 1e5, "max": 1e6, "points": 2}},
     "an N-axis sweep takes its block sizes from the axis; remove the block size 'N'"),
], ids=["d-axis-channel", "T-axis-channel", "N-axis-N"])
def test_sweep_refuses_the_key_its_axis_does_not_use(capsys, tmp_path, scenario, message):
    assert main_entry(_sweep_argv(tmp_path, scenario)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_rejects_unknown_top_level_key(capsys, tmp_path):
    # a trailing space would otherwise run at the default beta
    scenario = {**_TINY_SWEEP, "beta ": 0.5}
    assert main_entry(_sweep_argv(tmp_path, scenario)) == 1
    assert "unknown key 'beta '" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_refuses_an_out_of_range_budget_before_writing(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**_TINY_SWEEP, "beta": 1.5}))
    out = tmp_path / "out"
    assert main_entry(["sweep", "--scenario", str(path), "--out", str(out)]) == 1
    assert ("reconciliation efficiency must lie in (0, 1], got 1.5"
            in capsys.readouterr().err)
    assert not out.exists()


def test_sweep_rejects_unknown_fiber_key(capsys, tmp_path):
    scenario = {**_TINY_SWEEP, "fiber": {"attenuation": 0.2}}
    assert main_entry(_sweep_argv(tmp_path, scenario)) == 1
    assert "unknown key 'attenuation' in 'fiber'" in capsys.readouterr().err


def test_n_axis_sweep_from_two_samples_runs_a_scheme_without_r(tmp_path):
    # the legacy column evaluates its fixed point; nothing searches r there
    scenario = {"command": "sweep", "name": "n2", "channel": {"T": 0.5},
                "sweep": {"variable": "N", "min": 2, "max": 1000, "points": 3,
                          "spacing": "log"},
                "schemes": [{"kind": "double"}]}
    assert main_entry(_sweep_argv(tmp_path, scenario)) == 0
    assert len((tmp_path / "n2_double_vs1.csv").read_text().splitlines()) == 2 + 3


def test_sweep_refused_mid_list_writes_no_csv(capsys, tmp_path):
    # the double entry runs from N = 2; the single one cannot search r there
    scenario = {"command": "sweep", "name": "n2", "channel": {"T": 0.5},
                "sweep": {"variable": "N", "min": 2, "max": 1000, "points": 3,
                          "spacing": "log"},
                "schemes": [{"kind": "double"}, {"kind": "single"}]}
    assert main_entry(_sweep_argv(tmp_path, scenario)) == 1
    assert ("block size N = 2 is too small to search the disclosed fraction r"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("v_s", [0.1, 0.1000000001], ids=["same", "same-at-%g"])
def test_sweep_refuses_two_entries_that_write_one_csv(capsys, monkeypatch, tmp_path, v_s):
    # the second file would overwrite the first entry's rows
    monkeypatch.setattr(cli, "optimize_each", lambda problems: pytest.fail("optimised"))
    scenario = {**_TINY_SWEEP, "schemes": [{"kind": "single", "v_s": 0.1},
                                           {"kind": "single", "v_s": v_s}]}
    assert main_entry(_sweep_argv(tmp_path, scenario)) == 1
    assert capsys.readouterr().err == ("error: two scheme entries would both write "
                                       f"{tmp_path / 'typo_single_vs0.1.csv'}\n")
    assert not list(tmp_path.glob("*.csv"))


_THREE_KINDS = {"command": "sweep", "name": "kinds", "N": 10**7,
                "sweep": {"variable": "d", "min": 10.0, "max": 60.0, "points": 3},
                "schemes": [{"kind": "single"}, {"kind": "double", "v_s": 0.5},
                            {"kind": "modified", "v_s": 0.1}]}


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _childless():
    """Whether this process has no child left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_sweep_on_worker_processes_matches_one_cpu(monkeypatch, tmp_path):
    runs = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        paths = run_sweep(_THREE_KINDS, str(tmp_path / f"cpus{cpus}"))
        assert _childless()
        runs.append([(Path(path).name, Path(path).read_bytes()) for path in paths])
    assert len(runs[0]) == 3 and runs[0] == runs[1]


def test_sweep_joins_its_workers_when_a_row_fails(monkeypatch, tmp_path):
    def refusing(problem):
        def rate(v, v2, r):
            raise ValueError("refused")
        return rate

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(optimizer, "_planning_rate", refusing)
    with pytest.raises(ValueError) as refused:
        run_sweep(_THREE_KINDS, str(tmp_path))
    assert str(refused.value) == ("every grid point was infeasible; check the channel "
                                  "and block size: refused (157 of 157 points)")
    assert _childless()
    assert not list(tmp_path.glob("*.csv"))


def test_t_axis_sweep_rows_are_the_optimum_at_each_transmittance(tmp_path):
    scenario = {"command": "sweep", "name": "t_axis", "N": 10**6,
                "sweep": {"variable": "T", "min": 0.1, "max": 0.6, "points": 2},
                "schemes": [{"kind": "single"}, {"kind": "modified", "v_s": 0.5}]}
    paths = run_sweep(scenario, str(tmp_path))
    eps_ratio = FiberModel().eps_ratio
    for path, (kind, v_s) in zip(paths, [("single", 1.0), ("modified", 0.5)], strict=True):
        lines = Path(path).read_text().splitlines()
        rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
        assert [row["axis_value"] for row in rows] == ["0.1", "0.6"]
        for row in rows:
            T = float(row["axis_value"])
            params = ProtocolParams(SourceParams(v_s), Protocol(kind, 0.0), 10**6)
            result = optimize_key_rate(OptimizationProblem(
                ChannelParams(T, eps_ratio * T), params))
            expected = (result.K, result.point["v"], result.point["r"])
            assert [row["K"], row["V_opt"], row["r_opt"]] == ["%.12g" % x for x in expected]


def test_n_axis_sweep_channel_without_transmittance_names_it(capsys, tmp_path):
    scenario = {**_TINY_SWEEP, "channel": {"v_eps": 0.001},
                "sweep": {"variable": "N", "min": 1e5, "max": 1e6, "points": 2}}
    assert main_entry(_sweep_argv(tmp_path, scenario)) == 1
    assert "transmittance 'T'" in capsys.readouterr().err


def _without(scenario, key):
    return {name: x for name, x in scenario.items() if name != key}


_MC = load_preset("variance_validation")
_AXIS = _TINY_SWEEP["sweep"]
_HUGE = 10**400  # an integer beyond the float range


@pytest.mark.parametrize("scenario, message", [
    (_without(_TINY_SWEEP, "schemes"), "a sweep scenario needs the scheme list 'schemes'"),
    (_without(_MC, "trials"), "a montecarlo scenario needs the trial count 'trials'"),
    (_without(_MC, "seed"), "a montecarlo scenario needs the seed 'seed'"),
    (_without(_MC, "template"), "a montecarlo scenario needs the template 'template'"),
    ({**_TINY_SWEEP, "sweep": {**_AXIS, "points": "two"}},
     "the point count 'points' in 'sweep' must be a whole number, got 'two'"),
    ({**_TINY_SWEEP, "sweep": {**_AXIS, "points": "2"}},
     "the point count 'points' in 'sweep' must be a whole number, got '2'"),
    ({**_TINY_SWEEP, "sweep": {**_AXIS, "points": 2.5}},
     "the point count 'points' in 'sweep' must be a whole number, got 2.5"),
    ({**_TINY_SWEEP, "beta": True},
     "the reconciliation efficiency 'beta' in a sweep scenario must be a number, got True"),
    ({**_TINY_SWEEP, "N": "1e6"},
     "the block size 'N' in a sweep scenario must be a whole number, got '1e6'"),
    ({**_TINY_SWEEP, "schemes": {"kind": "single"}},
     "the scheme list 'schemes' in a sweep scenario must be a list"),
    ({**_TINY_SWEEP, "schemes": []}, "the scheme list 'schemes' in a sweep scenario "
                                     "must be a list of at least one scheme, got []"),
    ({**_MC, "schemes": []}, "the scheme list 'schemes' in a montecarlo scenario must be "
                             "a list of at least one of 'single' or 'double' or "
                             "'modified', got []"),
    ({**_TINY_SWEEP, "sweep": [10.0, 30.0]}, "'sweep' must be a JSON object"),
    ({**_TINY_SWEEP, "sweep": {**_AXIS, "min": 0}},
     "'sweep' must run from min > 0 up to max > min, got min=0.0, max=30.0"),
    ({**_TINY_SWEEP, "sweep": {**_AXIS, "points": 1}},
     "'sweep' needs at least 2 points, got points=1"),
    ({**_MC, "t_grid": {"min": 0, "max": 0.5, "points": 2, "spacing": "linear"}},
     "'t_grid' must run from min > 0 up to max > min, got min=0.0, max=0.5"),
    ({**_MC, "t_grid": {**_MC["t_grid"], "points": 1}},
     "'t_grid' needs at least 2 points, got points=1"),
    # a number is one a float can hold: NaN, Infinity and an int beyond the
    # float range are refused under their key, seeds included
    ({**_TINY_SWEEP, "sweep": {**_AXIS, "max": _HUGE}},
     f"the upper end 'max' in 'sweep' must be a number, got {_HUGE}"),
    ({**_TINY_SWEEP, "beta": _HUGE},
     f"the reconciliation efficiency 'beta' in a sweep scenario must be a number, got {_HUGE}"),
    ({**_TINY_SWEEP, "fiber": {"eps_ratio": _HUGE}},
     f"the excess-noise ratio 'eps_ratio' in 'fiber' must be a number, got {_HUGE}"),
    ({**_TINY_SWEEP, "sweep": {**_AXIS, "points": _HUGE}},
     f"the point count 'points' in 'sweep' must be a whole number, got {_HUGE}"),
    ({**_MC, "t_grid": {**_MC["t_grid"], "points": _HUGE}},
     f"the point count 'points' in 't_grid' must be a whole number, got {_HUGE}"),
    ({**_MC, "template": {**_MC["template"], "N": _HUGE}},
     f"the block size 'N' in 'template' must be a whole number, got {_HUGE}"),
    ({**_TINY_SWEEP, "N": _HUGE},
     f"the block size 'N' in a sweep scenario must be a whole number, got {_HUGE}"),
    ({**_MC, "trials": _HUGE},
     f"the trial count 'trials' in a montecarlo scenario must be a whole number, got {_HUGE}"),
    ({**_MC, "seed": _HUGE},
     f"the seed 'seed' in a montecarlo scenario must be a whole number, got {_HUGE}"),
    ({**_TINY_SWEEP, "beta": math.nan},
     "the reconciliation efficiency 'beta' in a sweep scenario must be a number, got nan"),
    ({**_TINY_SWEEP, "beta": math.inf},
     "the reconciliation efficiency 'beta' in a sweep scenario must be a number, got inf"),
], ids=["no-schemes", "no-trials", "no-seed", "no-template", "points-word",
        "points-string", "points-fraction", "beta-bool", "N-string",
        "schemes-object", "sweep-schemes-empty", "mc-schemes-empty", "axis-list",
        "axis-from-zero", "axis-one-point", "t-grid-from-zero", "t-grid-one-point",
        "max-huge", "beta-huge", "eps-ratio-huge", "points-huge", "t-grid-points-huge",
        "template-N-huge", "sweep-N-huge", "trials-huge", "seed-huge", "beta-nan",
        "beta-infinity"])
def test_scenario_reader_names_the_bad_key(capsys, tmp_path, scenario, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert main_entry([scenario["command"], "--scenario", str(path),
                       "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert not out.exists()


@pytest.mark.parametrize("scenario", [_TINY_SWEEP, {**_MC, "trials": 2}],
                         ids=["sweep", "montecarlo"])
@pytest.mark.parametrize("name", ["", ".", "..", "../x", "sub/x", "a\0b", os.sep + "x"],
                         ids=["empty", "dot", "dot-dot", "parent", "subdirectory", "nul",
                              "absolute"])
def test_scenario_name_stays_a_file_name_inside_out(capsys, monkeypatch, tmp_path,
                                                    scenario, name):
    # the name starts each output file's name: it is refused by its key
    # before any row runs, and nothing is written inside or beside --out
    for work in ("optimize_each", "validate_variance_models"):
        monkeypatch.setattr(cli, work, lambda *args, **kwargs: pytest.fail("rows ran"))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**scenario, "name": name}))
    out = tmp_path / "out"
    assert main_entry([scenario["command"], "--scenario", str(path), "--out", str(out)]) == 1
    assert (f"the name 'name' in a {scenario['command']} scenario must be a file name, "
            f"not '', '.' or '..', without a NUL or a path separator, got {name!r}"
            in capsys.readouterr().err)
    assert not out.exists() and not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command, preset", [("sweep", "blocksize_sweep"),
                                             ("montecarlo", "variance_validation")])
@pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
def test_scenario_source_is_exactly_one_of_preset_and_scenario(capsys, tmp_path,
                                                               command, preset, both):
    # a runnable scenario, so that reading only one of the two flags writes output
    scenario = _TINY_SWEEP if command == "sweep" else {
        **_MC, "trials": 2, "t_grid": {**_MC["t_grid"], "points": 2},
        "template": {**_MC["template"], "N": 1000}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    flags = ["--preset", preset, "--scenario", str(path)] if both else []
    out = tmp_path / "out"
    assert main_entry([command, *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert len([line for line in captured.err.splitlines()
                if line.startswith("error:")]) == 1


def test_montecarlo_preset_reads_whole_counts_and_defaults():
    read = cli._read(_MC, cli._MONTECARLO, "a montecarlo scenario")
    assert (read["trials"], read["seed"], read["template"]["N"]) == (1000, 20140902, 100000)
    assert all(type(n) is int for n in (read["trials"], read["template"]["N"]))
    assert read["schemes"] == ["single", "double", "modified"]
    assert read["fiber"] == FiberModel() and read["t_grid"]["spacing"] == "log"
    default = cli._read(_without(_without(_MC, "schemes"), "fiber"), cli._MONTECARLO, "")
    assert tuple(default["schemes"]) == KINDS and default["fiber"] == FiberModel()


def test_shipped_sweep_presets_pass_the_key_checks(tmp_path):
    for name in preset_names():
        scenario = load_preset(name)
        if scenario["command"] != "sweep":
            continue
        short = {**scenario, "sweep": {**scenario["sweep"], "points": 2},
                 "schemes": scenario["schemes"][:1]}
        assert len(run_sweep(short, str(tmp_path))) == 1


def test_readme_scenario_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Scenario files"):]
    scenario = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    paths = run_sweep(scenario, str(tmp_path))
    assert [os.path.basename(p) for p in paths] == [
        "short_distance_single_vs1.csv", "short_distance_modified_vs0.1.csv"]
    for path in paths:
        assert len(Path(path).read_text().splitlines()) == 2 + 3


def test_readme_python_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Python API"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(code, {})
    quoted = re.search(r"# (K = .*)", code).group(1)
    assert capsys.readouterr().out.strip() == quoted


def test_sweep_presets_have_expected_geometry():
    points = {"distance_sweep": 12, "blocksize_sweep": 11,
              "large_block_sweep": 11, "noise_sweep": 10,
              "reconciliation_sweep": 10}
    for name, expected in points.items():
        scenario = load_preset(name)
        assert scenario["command"] == "sweep"
        assert scenario["sweep"]["points"] == expected
        assert len(scenario["schemes"]) == 6


def test_preset_axes_are_numeric_grids():
    # a linear axis is numpy's linspace bit for bit; a log axis is
    # numeric.log_grid with exact endpoints, within 2e-15 relative of
    # numpy's geomspace (5 ulps on these presets)
    import numpy as np

    from cvqkd import numeric

    for name in preset_names():
        scenario = load_preset(name)
        if scenario["command"] == "sweep":
            axis = cli._read(scenario, cli._SWEEP, name)["sweep"]
        else:
            axis = cli._read(scenario, cli._MONTECARLO, name)["t_grid"]
        lo, hi, points = axis["min"], axis["max"], axis["points"]
        values = cli._axis_values(axis, name)
        if axis["spacing"] != "log":
            assert ([float.hex(x) for x in values]
                    == [float.hex(float(x)) for x in np.linspace(lo, hi, points)]), name
            continue
        assert values == numeric.log_grid(lo, hi, points), name
        assert (values[0], values[-1]) == (lo, hi), name
        assert values == pytest.approx(np.geomspace(lo, hi, points).tolist(),
                                       rel=2e-15, abs=0.0), name


def test_montecarlo_preset_small_run(capsys, tmp_path):
    args = ["montecarlo", "--preset", "variance_validation",
            "--trials", "10", "--seed", "42", "--threads", "1",
            "--out", str(tmp_path)]
    assert main_entry(args) == 0
    out = tmp_path / "variance_validation.csv"
    first = out.read_bytes()
    stdout = capsys.readouterr().out
    assert str(out) in stdout
    assert "rows=60" in stdout

    lines = first.decode().splitlines()
    merged = {**load_preset("variance_validation"), "trials": 10, "seed": 42}
    assert lines[0] == f"# cvqkd 0.1.0 scenario={scenario_digest(merged)} seed=42"
    assert lines[1] == _MC_HEADER
    assert len(lines) == 62
    assert lines[2].split(",")[0] == "single"
    assert lines[-1].split(",")[0] == "modified"

    # rerunning with a different thread count reproduces the bytes
    assert main_entry(args[:-4] + ["--threads", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_montecarlo_rejects_single_trial(capsys, tmp_path):
    # one trial has no spread to compare; refused before any row runs
    rc = main_entry(["montecarlo", "--preset", "variance_validation",
                     "--trials", "1", "--out", str(tmp_path)])
    assert rc == 1
    assert "trials" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_montecarlo_rejects_unknown_keys(capsys, tmp_path):
    preset = load_preset("variance_validation")
    for scenario, key in (
            ({**preset, "trails": 5}, "'trails'"),
            ({**preset, "template": {**preset["template"], "vs": 0.5}}, "'vs'")):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main_entry(["montecarlo", "--scenario", str(path),
                           "--trials", "2", "--out", str(tmp_path)]) == 1
        assert f"unknown key {key}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_montecarlo_refuses_a_negative_seed(capsys, tmp_path):
    # by flag or by scenario, refused under its own name before any row runs
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**load_preset("variance_validation"), "seed": -1}))
    for source in (["--preset", "variance_validation", "--seed", "-1"],
                   ["--scenario", str(path)]):
        assert main_entry(["montecarlo", *source, "--trials", "2",
                           "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: seed must be a non-negative integer, got -1"]
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_montecarlo_refuses_a_thread_count_below_one(capsys, tmp_path, threads):
    rc = main_entry(["montecarlo", "--preset", "variance_validation",
                     "--trials", "2", "--threads", threads, "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: threads (--threads) must be a whole number >= 1, got {int(threads)}"]
    assert not list(tmp_path.glob("*.csv"))


# --------------------------------------------------------------------------
# maxdist command


def test_maxdist_reports_the_bound_of_its_fit(capsys):
    rc = main_entry(["maxdist", "--N", "1e6", "1e8"])
    payload = _json_out(capsys)
    assert rc == 0
    reported = payload["fit"]
    fit = ExponentialFit(reported["a"], reported["kappa"],
                         tuple(reported["fit_range_km"]), reported["residual"])
    assert fit == fit_exponential_keyrate()
    assert payload["km_per_decade"] == 0.5 / fit.kappa
    assert [(row["N"], row["d_max_km"]) for row in payload["d_max"]] == [
        (n_val, max_distance(fit, n_val)) for n_val in (1e6, 1e8)]
    inputs = payload["inputs"]
    assert (inputs["d_min"], inputs["d_max"], inputs["points"]) == (30.0, 150.0, 13)
    assert inputs["N"] == [1e6, 1e8] and {type(n_val) for n_val in inputs["N"]} == {float}


def test_maxdist_has_no_window_flags(capsys):
    # the fit's window is fixed
    for flag in ("--d-min", "--d-max", "--points"):
        assert main_entry(["maxdist", "--N", "1e6", flag, "40"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 40" in captured.err


@pytest.mark.parametrize("flags, message", [
    (["--delta-star", "0"], "delta_star must lie in (0, 1), got 0.0"),
    (["--delta-star", "2"], "delta_star must lie in (0, 1), got 2.0"),
    (["--beta", "2"], "reconciliation efficiency must lie in (0, 1], got 2.0"),
    # a coherent source with poor reconciliation dies inside the window
    (["--beta", "0.6", "--vs", "1"],
     "error: asymptotic rate is dead at 90.0 km, inside the fixed 30-150 km fit window\n"),
], ids=["delta_star-0", "delta_star-2", "beta-2", "dead-rate"])
def test_maxdist_refuses_out_of_range_budgets(capsys, flags, message):
    assert main_entry(["maxdist", "--N", "1e6", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


# --------------------------------------------------------------------------
# a published operating point that the model does not reproduce


def test_keyrate_76km_double_small_block_reports_secure(capsys):
    # claimed secure at 76 km with N = 1e6; the computed rate is negative,
    # so the tool reports the insecure verdict instead of success
    rc = main_entry(["keyrate", "--d", "76", "--scheme", "double",
                     "--vs", "0.1", "--N", "1e6"])
    capsys.readouterr()
    assert rc == 0
