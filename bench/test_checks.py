"""The output checks reject corrupted results and accept real ones.

Real outputs come from running cvqkd in-process on small inputs; each
test corrupts one of them the way a faulty program could and shows that
the check names the damaged operation. Run from the repository root:

    python -m pytest -q bench/test_checks.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from cvqkd.cli import load_preset, main_entry  # noqa: E402

MC_TRIALS = 200
MC_SCENARIO = {**load_preset("variance_validation"), "trials": MC_TRIALS,
               "t_grid": {"min": 0.01, "max": 1.0, "points": 2,
                          "spacing": "log"}}


def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main_entry(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    scenario_path = root / "scenario.json"
    scenario_path.write_text(json.dumps(workloads.CLI_SCENARIO))
    mc_path = root / "mc.json"
    mc_path.write_text(json.dumps(MC_SCENARIO))
    _cli(["sweep", "--scenario", str(scenario_path), "--out", str(root)])
    _cli(["montecarlo", "--scenario", str(mc_path), "--threads", "1",
          "--out", str(root)])
    sweep = {spec["kind"]: (root / checks.sweep_csv_name(
        workloads.CLI_SCENARIO, spec)).read_text()
        for spec in workloads.CLI_SCENARIO["schemes"]}
    queries = [(argv, *_cli(argv))
               for argv in workloads.cli_queries(5, str(root))[:6]]
    return {"sweep": sweep, "mc": (root / "variance_validation.csv").read_text(),
            "queries": queries}


def _spec(kind):
    return next(s for s in workloads.CLI_SCENARIO["schemes"] if s["kind"] == kind)


def _sweep_verdicts(text, kind):
    return checks.check_sweep_csv(text, workloads.CLI_SCENARIO, _spec(kind))


def _edit_cell(text, row, column, fn):
    lines = text.splitlines()
    header = lines[1].split(",")
    cells = lines[2 + row].split(",")
    col = header.index(column)
    cells[col] = fn(cells[col])
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _drop_row(text, row):
    lines = text.splitlines()
    del lines[2 + row]
    return "\n".join(lines) + "\n"


def _query_verdict(argv, rc, stdout):
    return checks.check_query(argv, rc, stdout, lambda p: None, {})


# --------------------------------------------------------------------------
# real outputs pass


def test_real_outputs_are_accepted(outputs):
    for kind, text in outputs["sweep"].items():
        assert _sweep_verdicts(text, kind) == [None, None, None]
    assert checks.check_mc_csv(outputs["mc"], MC_SCENARIO, MC_TRIALS) == [None] * 6
    for argv, rc, stdout in outputs["queries"]:
        assert _query_verdict(argv, rc, stdout) is None, argv


# --------------------------------------------------------------------------
# sweep rows


@pytest.mark.parametrize("kind", ["single", "modified"])
def test_sweep_rejects_K_perturbed_by_1e_6(outputs, kind):
    text = _edit_cell(outputs["sweep"][kind], 0, "K",
                      lambda c: "%.12g" % (float(c) * (1 + 1e-6)))
    verdicts = _sweep_verdicts(text, kind)
    assert verdicts[0] is not None and "K=" in verdicts[0]
    assert verdicts[1:] == [None, None]


def test_sweep_rejects_a_dropped_row(outputs):
    verdicts = _sweep_verdicts(_drop_row(outputs["sweep"]["single"], 1), "single")
    assert verdicts[0] is None
    assert verdicts[1] is not None and verdicts[2] == "row missing"


def test_sweep_rejects_K_above_K_th(outputs):
    text = _edit_cell(outputs["sweep"]["single"], 0, "K_th", lambda c: "1e-9")
    assert "exceeds K_th" in _sweep_verdicts(text, "single")[0]


def test_sweep_rejects_K_rising_with_distance(outputs):
    text = outputs["sweep"]["modified"]
    lines = text.splitlines()
    # rows 1 and 2 swap places, axis values kept
    row1, row2 = lines[3].split(","), lines[4].split(",")
    row1[1:], row2[1:] = row2[1:], row1[1:]
    lines[3], lines[4] = ",".join(row1), ",".join(row2)
    verdicts = _sweep_verdicts("\n".join(lines) + "\n", "modified")
    assert verdicts[1] is not None and verdicts[2] is not None


def test_sweep_rejects_a_single_row_below_the_legacy_point(outputs):
    text = _edit_cell(outputs["sweep"]["single"], 2, "K_legacy", lambda c: "0.9")
    assert "legacy" in _sweep_verdicts(text, "single")[2]


# --------------------------------------------------------------------------
# Monte Carlo rows


@pytest.mark.parametrize("column", ["s_empirical", "sigma_empirical"])
def test_mc_rejects_a_spread_scaled_by_2(outputs, column):
    text = _edit_cell(outputs["mc"], 3, column, lambda c: "%.12g" % (2 * float(c)))
    verdicts = checks.check_mc_csv(text, MC_SCENARIO, MC_TRIALS)
    assert verdicts[3] is not None and column in verdicts[3]
    assert [v for i, v in enumerate(verdicts) if i != 3] == [None] * 5


def test_mc_rejects_a_dropped_row(outputs):
    verdicts = checks.check_mc_csv(_drop_row(outputs["mc"], 0), MC_SCENARIO,
                                   MC_TRIALS)
    assert verdicts[0] is not None and verdicts[-1] == "row missing"


def test_mc_rejects_a_wrong_analytic_model(outputs):
    text = _edit_cell(outputs["mc"], 5, "s_analytic",
                      lambda c: "%.12g" % (float(c) * (1 + 1e-6)))
    assert "s_analytic" in checks.check_mc_csv(text, MC_SCENARIO, MC_TRIALS)[5]


def test_mc_rejects_double_off_the_floor(outputs):
    text = _edit_cell(outputs["mc"], 2, "veps_th", lambda c: "%.12g" % (2 * float(c)))
    assert "veps_th" in checks.check_mc_csv(text, MC_SCENARIO, MC_TRIALS)[2]


def test_spread_tolerance_follows_the_trial_count():
    assert checks.spread_tolerance(1000) < checks.spread_tolerance(200) < 0.5
    assert checks.spread_tolerance(MC_TRIALS) < 1.0   # a doubled spread fails
    assert checks.spread_tolerance(checks.MC_MIN_TRIALS) < 1.0


def test_mc_rejects_rel_err_off_its_columns(outputs):
    text = _edit_cell(outputs["mc"], 1, "rel_err_s",
                      lambda c: "%.12g" % (float(c) * (1 + 1e-6) + 1e-9))
    assert "rel_err_s" in checks.check_mc_csv(text, MC_SCENARIO, MC_TRIALS)[1]


# --------------------------------------------------------------------------
# cli queries


def test_query_rejects_a_wrong_exit_code(outputs):
    for argv, rc, stdout in outputs["queries"]:
        wrong = {0: 2, 2: 0}[rc]
        assert _query_verdict(argv, wrong, stdout) is not None, argv
        assert _query_verdict(argv, 1, stdout) == "exit code 1"


def test_query_rejects_K_perturbed_by_1e_6(outputs):
    for argv, rc, stdout in outputs["queries"]:
        if argv[0] not in ("keyrate", "optimize"):
            continue
        payload = json.loads(stdout)
        payload["report"]["K"] *= 1 + 1e-6
        if argv[0] == "optimize":
            payload["optimum"]["K"] = payload["report"]["K"]
        assert _query_verdict(argv, rc, json.dumps(payload)) is not None, argv


def test_maxdist_rejects_a_wrong_gain_per_decade(outputs):
    argv, rc, stdout = next(q for q in outputs["queries"] if q[0][0] == "maxdist")
    payload = json.loads(stdout)
    payload["d_max"][2]["d_max_km"] += 1e-6 * payload["d_max"][2]["d_max_km"]
    assert "d_max" in _query_verdict(argv, rc, json.dumps(payload))
    payload = json.loads(stdout)
    payload["fit"]["kappa"] *= 1.01
    payload["km_per_decade"] = 0.5 / payload["fit"]["kappa"]
    assert _query_verdict(argv, rc, json.dumps(payload)) is not None
