import json
import re
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import gllflow
from gllflow import figure_reference
from gllflow import realflow as rf
from gllflow.cli import main
from gllflow.geometry import FlowParams, SpherePoint
from gllflow.errors import DomainError
from gllflow.manifest import MANIFEST_NAME, report_json, write_csv
from gllflow.selfsim import solve_profile, tail_limit


def _run(argv):
    return main(argv)


def _manifest(out_dir):
    return json.loads((Path(out_dir) / MANIFEST_NAME).read_text())


class TestSelfsimCommand:
    def test_run_emits_files_and_assertion(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = _run(["selfsim", "--n", "2", "--alpha", "1", "--beta", "0",
                     "--v1", "1", "--r-max", "30", "--out-dir", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "bound 4n = 8" in text and "ok" in text
        assert (out / "profile.csv").exists()
        assert (out / "tail_report.json").exists()
        doc = _manifest(out)
        assert doc["results"]["max_A"] <= 8.0
        assert doc["results"]["identity_residual"] <= 1e-6
        # deterministic counts: in the payload, not in provenance
        solver = doc["results"]["solver"]
        assert solver["steps_accepted"] == doc["grid"]["nodes"] - 1
        attempts = solver["steps_accepted"] + solver["steps_rejected"]
        assert solver["rhs_evals"] == 2 + 11 * attempts + solver["steps_accepted"]
        assert "solver" not in doc["provenance"]
        assert doc["schema_version"].startswith("gllflow.run_manifest")

    def test_trivial_data_warns(self, tmp_path, capsys):
        out = tmp_path / "trivial"
        code = _run(["selfsim", "--v1", "0", "--v2", "0", "--r-max", "15",
                     "--out-dir", str(out)])
        assert code == 0
        assert "trivial data" in capsys.readouterr().out
        # the constant profile is an ordinary solve: its identity residual
        # and tail gap are exact zeros
        assert _manifest(out)["results"]["identity_residual"] == 0.0
        tail = json.loads((out / "tail_report.json").read_text())
        assert tail["psi_inf"] == [0, 0, 1]
        assert tail["observed_gap"] == 0.0

    def test_deterministic_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["selfsim", "--n", "2", "--alpha", "0", "--beta", "1", "--v1", "1",
                "--r-max", "12", "--tol", "1e-10"]
        assert _run(args + ["--out-dir", str(out1)]) == 0
        assert _run(args + ["--out-dir", str(out2)]) == 0
        assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()
        d1, d2 = _manifest(out1), _manifest(out2)
        d1.pop("provenance")
        d2.pop("provenance")
        assert d1 == d2

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        code = _run(["selfsim", "--r-max", "1e-6", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"]

    def test_bad_params_exit_code(self, tmp_path):
        code = _run(["selfsim", "--alpha", "1", "--beta", "1",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("command", [["selfsim", "--r-max", "5"],
                                         ["realheat", "selfsim", "--beta", "1"]])
    @pytest.mark.parametrize("tol", ["0", "-1", "-1e-10", "nan", "inf"])
    def test_tolerance_outside_zero_to_inf_exits_2(self, tmp_path, capsys, command, tol):
        out = tmp_path / "t"
        assert _run(command + [f"--tol={tol}", "--out-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError" and "rel_tol" in err["message"]
        assert not (out / MANIFEST_NAME).exists()

    def test_gnuplot_flag(self, tmp_path):
        out = tmp_path / "g"
        assert _run(["selfsim", "--r-max", "12", "--out-dir", str(out), "--gnuplot"]) == 0
        assert (out / "plot.gp").exists()


@pytest.mark.parametrize("argv,named", [
    (["selfsim", "--alpha", "nan"], "alpha must be >= 0, got nan"),
    (["selfsim", "--v1", "nan"], "non-finite start state"),
    (["realheat", "selfsim", "--beta", "nan"], "non-finite start state"),
    (["realheat", "selfsim", "--beta", "1", "--r-max", "nan"], "r_max=nan"),
    (["evolve", "--alpha", "nan"], "alpha must be >= 0, got nan"),
    (["evolve", "--T", "nan"], "0 < T < inf, got nan"),
    (["evolve", "--T", "inf"], "0 < T < inf, got inf"),
    (["hasimoto", "run", "--v1", "nan"], "finite v1, v2, got nan"),
    (["hasimoto", "run", "--v2", "inf"], "finite v1, v2, got 1.0, inf"),
    (["evolve", "--preset", "harmonic", "--v1", "nan"], "finite v1, v2, got nan"),
    (["evolve", "--grading", "nan"], "0 < grading < inf, got nan"),
    (["evolve", "--r-max", "nan"], "0 < r_max < inf, got nan"),
    (["evolve", "--amplitude", "inf"], "finite amplitude, got inf")])
def test_non_finite_input_exits_2(tmp_path, capsys, deadline, argv, named):
    # the first three used to run on without end, the fourth to exit 0 with
    # a one-node profile, the fifth to exit 0, the next two to raise, and
    # `hasimoto run` to exit 0 with a NaN, which is not JSON, in its manifest
    out = tmp_path / "nf"
    assert _run(argv + ["--out-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and named in err["message"]
    assert not (out / MANIFEST_NAME).exists()


SMALL_EVOLVE = ["evolve", "--nodes", "41", "--r-max", "8", "--T", "0.01"]


@pytest.mark.parametrize("argv,named", [
    (["realheat", "stationary", "--alpha", "nan"], "need 0 <= alpha < inf, got nan"),
    (["realheat", "stationary", "--r-list", "0.1,nan"], "0 < r < inf, got [0.1, nan]"),
    (["realheat", "stationary", "--alpha", "1e200"], "alpha=1e+200 overflows"),
    (SMALL_EVOLVE + ["--preset", "selfsim", "--t0", "nan"], "need 0 < t0 < inf, got nan"),
    (SMALL_EVOLVE + ["--preset", "selfsim", "--t0", "-1"], "need 0 < t0 < inf, got -1.0"),
    (SMALL_EVOLVE + ["--preset", "selfsim", "--t0", "0"], "need 0 < t0 < inf, got 0.0")])
def test_input_outside_its_domain_exits_2_naming_it(tmp_path, capsys, argv, named):
    # the stationary cases used to exit 0 with max residual 0 (the NaN
    # residuals dropped out of the max); the t0 cases named the profile's
    # r_max, sized from t0, instead of t0
    out = tmp_path / "d"
    assert _run(argv + ["--out-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and named in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--v1", "nan"], ["--preset", "harmonic", "--amplitude", "nan"]])
def test_a_nan_parameter_leaves_no_manifest(tmp_path, capsys, argv):
    # neither value is read by its preset; the manifest used to hold it as
    # the token NaN, which is not JSON.  The frame CSVs are written before it.
    out = tmp_path / "m"
    assert _run(SMALL_EVOLVE + argv + ["--out-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError" and "JSON has no NaN or inf" in err["message"]
    assert not (out / MANIFEST_NAME).exists()
    assert (out / "frame_0000.csv").exists()


class TestRealheatCommands:
    def test_classify_borderline(self, tmp_path, capsys):
        out = tmp_path / "c2"
        assert _run(["realheat", "classify", "--n", "2", "--out-dir", str(out)]) == 0
        assert "borderline" in capsys.readouterr().out
        doc = json.loads((out / "classifier_report.json").read_text())
        assert doc["verdict"] == "borderline"

    def test_classify_unique(self, tmp_path, capsys):
        assert _run(["realheat", "classify", "--n", "3",
                     "--out-dir", str(tmp_path / "c3")]) == 0
        assert "unique" in capsys.readouterr().out

    def test_stationary(self, tmp_path):
        out = tmp_path / "st"
        assert _run(["realheat", "stationary", "--alpha", "1",
                     "--n-list", "2,5", "--out-dir", str(out)]) == 0
        assert _manifest(out)["results"]["max_residual"] <= 1e-10

    def test_selfsim_scalar(self, tmp_path):
        out = tmp_path / "ss"
        assert _run(["realheat", "selfsim", "--beta", "1", "--n", "3",
                     "--r-max", "8", "--out-dir", str(out)]) == 0
        doc = _manifest(out)
        assert doc["results"]["monotone"] and doc["results"]["below_pi"]
        assert doc["parameters"]["slope"] == 2.0
        solver = doc["results"]["solver"]
        prof = gllflow.solve_selfsim_real(2.0, 3, 8.0)
        assert solver == dict(prof.sol.counters(), r0=prof.r[0],
                              start_remainder=prof.start_remainder)
        assert solver["steps_accepted"] == doc["grid"]["nodes"] - 1
        # the start at 1e-2 / slope, its next series term within the tolerance
        assert solver["r0"] == 5e-3
        assert 0.0 < solver["start_remainder"] <= 1e-10 * 2.0

    def test_selfsim_scalar_refuses_a_start_beyond_its_tolerance(self, tmp_path, capsys):
        # at slope 2 the series' next term at r0 is 1.8e-14 of the data
        out = tmp_path / "tight"
        assert _run(["realheat", "selfsim", "--beta", "1", "--tol", "1e-15",
                     "--out-dir", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert err["message"].startswith("series start at r0=0.005: its next term")
        assert not (out / MANIFEST_NAME).exists()

    def test_selfsim_scalar_slope_convention(self, tmp_path):
        out = tmp_path / "ss2"
        assert _run(["realheat", "selfsim", "--beta", "1", "--n", "3",
                     "--r-max", "8", "--convention", "slope",
                     "--out-dir", str(out)]) == 0
        assert _manifest(out)["parameters"]["slope"] == 1.0

    def test_witness_reports_gap_sign(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert _run(["realheat", "witness", "--epsilon", "1e-6",
                     "--out-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "energy gap" in text
        doc = json.loads((out / "witness_report.json").read_text())
        assert doc["hardy_ratio"] > 1.0
        assert doc["taylor_delta_literal"] is None

    @pytest.mark.parametrize("flag, value", [("--n-list", "2,x"), ("--r-list", "0.1,abc")])
    def test_stationary_malformed_list_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "stx"
        with pytest.raises(SystemExit) as exc:
            _run(["realheat", "stationary", flag, value, "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and repr(value) in err
        assert not out.exists()

    def test_stationary_records_the_parsed_lists(self, tmp_path):
        out = tmp_path / "st2"
        assert _run(["realheat", "stationary", "--n-list", "2,5", "--r-list", "0.5,2",
                     "--out-dir", str(out)]) == 0
        params = _manifest(out)["parameters"]
        assert params["n_list"] == [2, 5] and params["r_list"] == [0.5, 2.0]

    def test_witness_bad_epsilon(self, tmp_path):
        assert _run(["realheat", "witness", "--epsilon", "0.9",
                     "--out-dir", str(tmp_path / "wx")]) == 2

    def test_figure(self, tmp_path, capsys):
        out = tmp_path / "fig"
        assert _run(["realheat", "figure", "--out-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "n = 3" in text
        csvs = list(out.glob("curve_beta_*.csv"))
        assert len(csvs) == 8
        doc = _manifest(out)
        assert doc["parameters"]["fitted_slope_factor"] == 2.0
        # the written columns are the fitted convention's curves
        fit = figure_reference.fit_convention()
        assert (fit.n, fit.slope_factor) == (doc["parameters"]["fitted_n"],
                                            doc["parameters"]["fitted_slope_factor"])
        assert doc["tolerances"]["rel_tol"] == figure_reference.FIT_REL_TOL
        for lbl, data in fit.curves.items():
            name = f"curve_beta_{str(lbl).replace('.', 'p')}.csv"
            assert np.array_equal(np.loadtxt(out / name, delimiter=",", skiprows=1), data)

    def test_figure_solves_each_profile_once(self, tmp_path, monkeypatch):
        # the fit scores 12 (slope, n) pairs and the curves need 8 more at
        # n = 3, of which (0.5, 3), (1.0, 3) and (2.0, 3) the fit solved already
        solve = figure_reference.solve_selfsim_real
        calls = []

        def counted(slope, n, *args, **kwargs):
            calls.append((slope, n))
            return solve(slope, n, *args, **kwargs)

        monkeypatch.setattr(figure_reference, "solve_selfsim_real", counted)
        assert _run(["realheat", "figure", "--out-dir", str(tmp_path / "fig")]) == 0
        assert len(calls) == 17
        assert len(set(calls)) == 17


class TestEvolveCommand:
    def test_harmonic_preset(self, tmp_path, capsys):
        out = tmp_path / "ev"
        assert _run(["evolve", "--preset", "harmonic", "--alpha", "1", "--beta", "0",
                     "--r-max", "15", "--nodes", "61", "--T", "0.05",
                     "--store-every", "20", "--out-dir", str(out)]) == 0
        assert "stationarity drift" in capsys.readouterr().out
        frames = sorted(out.glob("frame_*.csv"))
        assert len(frames) >= 2
        doc = _manifest(out)
        assert doc["results"]["max_norm_drift"] <= 1e-6
        assert doc["results"]["stationarity_drift"] <= 0.1
        # dt = 0.1 (15/60)^2 divides T = 0.05 exactly 8 times
        assert doc["results"]["mol_steps"] == 8
        assert doc["results"]["frames"] == 2

    def test_config_file_precedence(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("nodes = 41\nT = 0.02\nr_max = 10\n")
        out = tmp_path / "ev2"
        # flag overrides the config value for nodes; T comes from the file
        assert _run(["evolve", "--preset", "bump", "--nodes", "51",
                     "--config", str(conf), "--out-dir", str(out)]) == 0
        doc = _manifest(out)
        assert doc["grid"]["nodes"] == 51
        assert doc["tolerances"]["T"] == 0.02

    def test_config_file_refuses_unknown_keys(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("nodes = 41\nstore_every = 3\n")
        out = tmp_path / "ev4"
        assert _run(["evolve", "--preset", "bump", "--config", str(conf),
                     "--out-dir", str(out)]) == 2
        assert "'store_every'" in json.loads(capsys.readouterr().err)["message"]
        assert not (out / MANIFEST_NAME).exists()

    def test_config_file_refuses_a_malformed_value(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("nodes = abc\n")
        out = tmp_path / "ev5"
        assert _run(["evolve", "--preset", "bump", "--config", str(conf),
                     "--out-dir", str(out)]) == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert "'nodes'" in message and "'abc'" in message
        assert not (out / MANIFEST_NAME).exists()

    def test_exactly_one_manifest(self, tmp_path):
        out = tmp_path / "ev3"
        assert _run(["evolve", "--preset", "bump", "--nodes", "41", "--r-max", "8",
                     "--T", "0.01", "--out-dir", str(out)]) == 0
        assert len(list(out.glob("run_manifest.json"))) == 1


class TestHasimotoCommands:
    def test_exponents(self, tmp_path, capsys):
        out = tmp_path / "h"
        assert _run(["hasimoto", "exponents", "--p", "2", "--out-dir", str(out)]) == 0
        assert "2.4" in capsys.readouterr().out
        doc = json.loads((out / "exponent_table.json").read_text())
        assert doc["r"]["float"] == 2.4
        assert doc["s"]["s(1,1)"]["float"] == 2.4

    @pytest.mark.parametrize("value", ["abc", "1/0"])
    def test_exponents_malformed_p_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "hx"
        assert _run(["hasimoto", "exponents", "--p", value, "--out-dir", str(out)]) == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith("p ") and repr(value) in message
        assert not (out / MANIFEST_NAME).exists()

    def test_exponents_records_p_as_given(self, tmp_path):
        out = tmp_path / "h15"
        assert _run(["hasimoto", "exponents", "--p", "1.5", "--out-dir", str(out)]) == 0
        assert _manifest(out)["parameters"]["p"] == "1.5"

    def test_run(self, tmp_path):
        out = tmp_path / "hr"
        assert _run(["hasimoto", "run", "--r-max", "8", "--nodes", "801",
                     "--out-dir", str(out)]) == 0
        header = (out / "qfield.csv").read_text().splitlines()[0]
        assert header == "r,re_q,im_q,alpha_g,u_r_norm"

    def test_run_refuses_a_non_positive_r_max(self, tmp_path, capsys, rng):
        for r_max in (0.0, -rng.uniform(0.1, 10.0)):
            out = tmp_path / f"r{r_max}"
            assert _run(["hasimoto", "run", "--r-max", repr(r_max), "--nodes", "201",
                         "--out-dir", str(out)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err == {"error": "GridError", "message": "grid must be strictly increasing"}
            assert not (out / "qfield.csv").exists()

    def test_run_refuses_too_few_nodes(self, tmp_path, capsys, rng):
        # compute_q extrapolates V to the origin from 3 more nodes; fewer than
        # 3 nodes fail the stencil or the quadrature first, as GridErrors too
        for nodes in (3, int(rng.integers(1, 3))):
            out = tmp_path / f"n{nodes}"
            assert _run(["hasimoto", "run", "--r-max", repr(rng.uniform(1.0, 10.0)),
                         "--nodes", str(nodes), "--out-dir", str(out)]) == 2
            assert json.loads(capsys.readouterr().err)["error"] == "GridError"
            assert not (out / "qfield.csv").exists()
        assert _run(["hasimoto", "run", "--nodes", "4", "--out-dir", str(tmp_path / "n4")]) == 0


class TestOutputRoot:
    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GLLFLOW_OUT", str(tmp_path))
        assert _run(["realheat", "classify", "--n", "4"]) == 0
        assert (tmp_path / "out-realheat-classify" / MANIFEST_NAME).exists()


class TestVerifyCommand:
    def test_geom_suite_passes(self, capsys):
        assert _run(["verify", "geom"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_hasimoto_suite_passes(self, capsys):
        assert _run(["verify", "hasimoto"]) == 0

    def test_suite_seconds_on_their_own_line(self, capsys):
        checks = []
        for _ in range(2):
            assert _run(["verify", "realheat"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert sum(re.fullmatch(r"suite realheat: (\d+)/\1 in \d+\.\d\d s", ln)
                       is not None for ln in lines) == 1
            checks.append([ln for ln in lines if ln.startswith(("[PASS]", "[FAIL]"))])
        # check lines carry no timing, so reruns print them byte for byte
        assert checks[0] == checks[1] and len(checks[0]) >= 1

    def test_singular_determinism_runs_the_scalar_solver(self, monkeypatch, capsys):
        # the determinism check solves through the path the commands run
        calls = []
        solve = rf.solve_selfsim_real

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return solve(*args, **kwargs)

        monkeypatch.setattr(rf, "solve_selfsim_real", counted)
        assert _run(["verify", "singular"]) == 0
        assert calls == [((1.0, 2, 5.0), {"rel_tol": 1e-9})] * 2
        assert ("[PASS] singular.deterministic_grids: 50 nodes, bit-identical: True"
                in capsys.readouterr().out.splitlines())

    def test_all_suites_pass(self, capsys):
        assert _run(["verify", "all"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        # one line per check across all six module suites
        assert out.count("[PASS]") >= 20


# one small invocation of every command that writes an output directory
FILE_WRITING_COMMANDS = {
    "selfsim": ["selfsim", "--r-max", "12"],
    "realheat classify": ["realheat", "classify", "--n", "2"],
    "realheat stationary": ["realheat", "stationary", "--n-list", "2,3"],
    "realheat selfsim": ["realheat", "selfsim", "--beta", "1", "--r-max", "4"],
    "realheat witness": ["realheat", "witness", "--epsilon", "1e-3", "--quad-nodes", "600"],
    "realheat figure": ["realheat", "figure"],
    "evolve": ["evolve", "--preset", "bump", "--nodes", "41", "--r-max", "8",
               "--T", "0.01"],
    "hasimoto exponents": ["hasimoto", "exponents", "--p", "2"],
    "hasimoto run": ["hasimoto", "run", "--r-max", "4", "--nodes", "201"],
}


# each report's JSON keys and schema string, as written before the reports
# were serialized from their dataclass fields
REPORT_KEYS = {
    "classifier": ("gllflow.classifier_report/1", {
        "schema", "n", "d", "eta_prime_at_pi", "min_eta_prime", "threshold", "verdict"}),
    "comparison": ("gllflow.comparison_report/1", {
        "schema", "n", "beta_labels", "informational", "checks"}),
    "witness": ("gllflow.witness_report/1", {
        "schema", "epsilon", "delta", "energy_gap", "hardy_ratio", "taylor_delta_literal",
        "taylor_delta_halved", "taylor_C", "quad_nodes", "kink_breakpoints"}),
    "tail": ("gllflow.tail_report/1", {
        "schema", "psi_inf", "r_used", "rate_bound", "observed_gap",
        "empirical_rate_constant", "params", "grid_nodes"}),
}

REPORTS = {
    "classifier": lambda: rf.classify_uniqueness(2),
    "comparison": lambda: rf.comparison_suite([0.5, 1.0], 3, 4.0),
    "witness": lambda: rf.nonuniqueness_witness(1e-3, 0.05, quad_nodes=600),
    "tail": lambda: tail_limit(solve_profile((1.0, 0.0), FlowParams(2, 1.0, 0.0), 12.0)),
}


def _field_as_json(value):
    """A report field as its JSON form: points as [x1, x2, x3], nested
    dataclasses as dicts, tuples as lists."""
    if isinstance(value, SpherePoint):
        return [value.x1, value.x2, value.x3]
    if is_dataclass(value):
        return asdict(value)
    if isinstance(value, tuple):
        return [_field_as_json(v) for v in value]
    return value


class TestManifests:
    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_report_keys_schema_and_fields(self, name):
        rep = REPORTS[name]()
        doc = json.loads(rep.to_json())
        schema, keys = REPORT_KEYS[name]
        assert doc["schema"] == schema
        assert set(doc) == keys
        for f in fields(rep):
            assert doc[f.name] == _field_as_json(getattr(rep, f.name)), f.name
        if name == "comparison":
            assert all(set(c) == {"name", "passed", "detail"} for c in doc["checks"])
        if name == "witness":
            assert doc["taylor_C"] == rf.WITNESS_TAYLOR_C
            assert doc["kink_breakpoints"] == [rep.epsilon, 0.5]
        if name == "tail":
            assert doc["params"] == {"n": 2, "alpha": 1.0, "beta": 0.0}

    @pytest.mark.parametrize("command", sorted(FILE_WRITING_COMMANDS))
    def test_every_manifest_records_its_wall_time(self, command, tmp_path):
        out = tmp_path / "run"
        assert _run(FILE_WRITING_COMMANDS[command] + ["--out-dir", str(out)]) == 0
        doc = _manifest(out)
        assert doc["command"] == command
        assert doc["provenance"]["wall_time_s"] > 0.0

    def test_output_formats_live_in_manifest(self):
        # the CSV writer, its number format and the JSON layout are decided
        # in one module; every other module calls it
        package = Path(gllflow.__file__).parent
        for path in sorted(package.glob("*.py")):
            text = path.read_text()
            # write_csv formats its rows itself: no module calls numpy's writer
            assert "savetxt" not in text, path.name
            for token in ("%.17g", "indent=2"):
                assert (token in text) == (path.name == "manifest.py"), (path.name, token)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_report_json_refuses_what_json_cannot_hold(self, value):
        assert report_json({"b": [1.0, 2], "a": {"c": None}}) == (
            '{\n  "a": {\n    "c": null\n  },\n  "b": [\n    1.0,\n    2\n  ]\n}')
        with pytest.raises(DomainError, match="JSON has no NaN or inf"):
            report_json({"a": {"c": [1.0, value]}})

    def test_write_csv_bytes_equal_savetxt(self, tmp_path):
        # np.savetxt with these arguments is the reference the writer replaced
        cols = (np.array([0.0, -0.0, 1.5, np.nan, np.inf]),
                np.array([[1e308, 5e-324], [-np.inf, 0.1], [1 / 3, -2.5e-17],
                          [np.pi, -1e-300], [12345678901234567.0, np.e]]),
                np.arange(5), np.array([-7, 0, 3, 2**53 + 1, -(2**40)]))
        header = "a,b1,b2,i,j"
        write_csv(tmp_path / "mine.csv", header, *cols)
        np.savetxt(tmp_path / "ref.csv", np.column_stack(cols), delimiter=",", header=header,
                   comments="", fmt="%.17g")
        assert (tmp_path / "mine.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        ints = (np.arange(3), np.array([5, -6, 2**53 + 1]))   # an all-integer table
        write_csv(tmp_path / "mine_int.csv", "i,j", *ints)
        np.savetxt(tmp_path / "ref_int.csv", np.column_stack(ints), delimiter=",", header="i,j",
                   comments="", fmt="%.17g")
        assert (tmp_path / "mine_int.csv").read_bytes() == (tmp_path / "ref_int.csv").read_bytes()
