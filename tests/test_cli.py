"""Tests for the command-line interface and its exit-code contract."""

import csv
import json
import warnings

import numpy as np
import pytest

from specdiff.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERDICT, main


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_missing_config_file_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe{}")
    code = main(["dspec", "--config", str(path)])
    assert code == EXIT_CONFIG
    assert str(path) in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "BirmanKrein", "lamda_grid": [1.0]}))
    code = main(["bk", "--config", str(p)])
    assert code == EXIT_CONFIG
    assert "lamda_grid" in capsys.readouterr().err


# A value that its campaign would not read: a second energy or box that
# ModelSpectrum, BandFilling or BirmanKrein would skip, an energy for
# ModelSpectrum without a potential, or a key SpecfunAudit ignores.
@pytest.mark.parametrize("command, config, keys", [
    ("dspec", {"experiment": "BandFilling", "lambda_grid": [0.5, 1.0]},
     ["lambda_grid"]),
    ("model", {"experiment": "ModelSpectrum", "lambda_grid": [0.25, 0.5]},
     ["lambda_grid"]),
    # with no potential ModelSpectrum reads no energy at all
    ("model", {"experiment": "ModelSpectrum", "potential": None,
               "lambda_grid": [0.7], "grids": {"n": 40}}, ["lambda_grid"]),
    ("specfun", {"experiment": "SpecfunAudit", "lambda_grid": [0.5],
                 "potential": {"kind": "gaussian"}},
     ["lambda_grid", "potential", "SpecfunAudit"]),
    ("bk", {"experiment": "BirmanKrein",
            "box_sequence": [[100, 9999], [200, 19999]]}, ["box_sequence"]),
])
def test_unread_config_value_exits_2(tmp_path, capsys, command, config, keys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    code = main([command, "--config", str(p), "--quiet"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(key in err for key in keys) and "Traceback" not in err


@pytest.mark.parametrize("entry, key", [
    ({"tolerances": {"bk_residual": "abc"}}, "bk_residual"),
    ({"box_sequence": [[200]]}, "box_sequence"),
    ({"lambda_grid": "0.5"}, "lambda_grid"),
    ({"potential": {"kind": "square_well", "depth": "deep"}}, "depth"),
    ({"potential": {"kind": ["square_well"]}}, "kind"),
    # used to exit 2 as a level on the edge of the box spectrum
    ({"potential": {"kind": "gaussian", "width": 0}}, "width"),
])
def test_malformed_config_value_exits_2(tmp_path, capsys, entry, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "BirmanKrein", **entry}))
    code = main(["bk", "--config", str(p)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


# Each of these configs used to crash with a traceback (exit 1) or pass
# vacuously (exit 0).  Python's json reads NaN and Infinity.
@pytest.mark.parametrize("command, config, key", [
    ("dspec", '{"experiment": "BandFilling", "lambda_grid": []}', "lambda_grid"),
    ("bk", '{"experiment": "BirmanKrein", "lambda_grid": []}', "lambda_grid"),
    ("model", '{"experiment": "ModelSpectrum", "lambda_grid": []}', "lambda_grid"),
    ("dspec", '{"experiment": "BandFilling", "box_sequence": []}', "box_sequence"),
    ("bk", '{"experiment": "BirmanKrein", "box_sequence": []}', "box_sequence"),
    ("carleman", '{"experiment": "CarlemanMehler", '
     '"grids": {"mehler_panels": []}}', "mehler_panels"),
    ("carleman", '{"experiment": "CarlemanMehler", "grids": {"window": [0.2]}}',
     "window"),
    ("model", '{"experiment": "ModelSpectrum", '
     '"grids": {"synthetic_phases": []}}', "synthetic_phases"),
    ("specfun", '{"experiment": "SpecfunAudit", "grids": {"seam_t": []}}',
     "seam_t"),
    ("carleman", '{"experiment": "CarlemanMehler", "grids": {"mehler_t": []}}',
     "mehler_t"),
    ("dspec", '{"experiment": "BandFilling", "lambda_grid": [NaN]}',
     "lambda_grid"),
    ("carleman", '{"experiment": "CarlemanMehler", "grids": {"a": NaN}}', "'a'"),
    ("bk", '{"experiment": "BirmanKrein", "box_sequence": [[Infinity, 19999]]}',
     "box_sequence"),
    ("bk", '{"experiment": "BirmanKrein", "seed": 1' + '0' * 400 + '}', "seed"),
])
def test_empty_or_non_finite_config_value_exits_2(tmp_path, capsys, command,
                                                  config, key):
    p = tmp_path / "cfg.json"
    p.write_text(config)
    code = main([command, "--config", str(p), "--quiet"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


# A grid count or window that the campaign cannot use is a config error
# named by its key, caught before the campaign runs; a bound grid on which
# a sup is 0 is caught where the audit divides by it.
@pytest.mark.parametrize("command, config, key", [
    ("carleman", '{"experiment": "CarlemanMehler", "grids": {"n": 405}}', "'n'"),
    ("specfun", '{"experiment": "SpecfunAudit", "grids": {"seam_points": 0}}',
     "seam_points"),
    ("specfun", '{"experiment": "SpecfunAudit", "grids": {"bound_n_t": 0}}',
     "bound_n_t"),
    ("specfun", '{"experiment": "SpecfunAudit", "grids": {"bound_n_t": 1}}',
     "check_conical_bounds"),
    ("carleman", '{"experiment": "CarlemanMehler", '
     '"grids": {"window_points": 0}}', "window_points"),
    ("carleman", '{"experiment": "CarlemanMehler", "grids": {"order": 0}}',
     "'order'"),
    ("carleman", '{"experiment": "CarlemanMehler", '
     '"grids": {"window": [0.0, 0.8]}}', "window"),
    ("specfun", '{"experiment": "SpecfunAudit", "grids": {"seam_points": 2.5}}',
     "seam_points"),
    ("specfun", '{"experiment": "SpecfunAudit", "grids": {"bound_t_max": 0}}',
     "bound_t_max"),
    ("specfun", '{"experiment": "SpecfunAudit", '
     '"grids": {"bound_t_max": 1e-12}}', "bound_t_max"),
    ("specfun", '{"experiment": "SpecfunAudit", "grids": {"bound_x_max": 1}}',
     "bound_x_max"),
    ("specfun", '{"experiment": "SpecfunAudit", "grids": {"bound_samples": 1}}',
     "bound_samples"),
])
def test_unusable_grid_value_exits_2(tmp_path, capsys, command, config, key):
    p = tmp_path / "cfg.json"
    p.write_text(config)
    code = main([command, "--config", str(p), "--quiet"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_non_unitary_scattering_matrix_exits_2(tmp_path, capsys):
    # No computed S is unitary to 1e-20, so gamma_matrix refuses it as a
    # domain error, not a failed verdict.
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "ModelSpectrum",
                             "tolerances": {"unitarity": 1e-20}}))
    code = main(["model", "--config", str(p), "--quiet"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "gamma_matrix" in err and "Traceback" not in err


def test_unwritable_report_path_exits_2(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "x.json"
    code = main(["model", "--out", str(out), "--quiet"])
    assert code == EXIT_CONFIG
    assert str(out) in capsys.readouterr().err


def test_config_for_wrong_campaign_exits_2(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "BirmanKrein"}))
    code = main(["dspec", "--config", str(p)])
    assert code == EXIT_CONFIG


def test_scatter_zero_energy_exits_2(capsys):
    code = main(["scatter", "--energy", "0"])
    assert code == EXIT_CONFIG
    assert "positive" in capsys.readouterr().err


# NaN used to crash with a ValueError and inf with a ZeroDivisionError.
@pytest.mark.parametrize("energy", ["nan", "inf"])
def test_scatter_non_finite_energy_exits_2(capsys, energy):
    code = main(["scatter", "--energy", energy])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "positive and finite" in err and "Traceback" not in err


def test_scatter_square_well(capsys):
    code = main(["scatter", "--energy", "1.0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "band radii" in out
    assert "unitarity defect" in out
    assert "stationary route: 32 nodes, condition number " in out
    assert "refinement (nodes: |dS|) 32: " in out


def test_scatter_leaves_the_print_options_alone(capsys):
    before = np.get_printoptions()
    assert main(["scatter", "--energy", "1"]) == EXIT_OK
    assert np.get_printoptions() == before
    # the matrix and the phases still print with 10 digits
    assert "eigenphases: [1.6908491098 1.3288748489]" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--potential", "square_well", "--depth", "-2", "--half-width", "1"],
    ["--potential", "poschl_teller", "--strength", "1"],
    ["--potential", "gaussian", "--amplitude", "-1", "--width", "1"],
])
def test_scatter_parameter_flags_default_to_the_class(capsys, flags):
    assert main(["scatter", *flags[:2], "--energy", "0.7"]) == EXIT_OK
    bare = capsys.readouterr().out
    assert main(["scatter", *flags, "--energy", "0.7"]) == EXIT_OK
    assert capsys.readouterr().out == bare


# A parameter outside its domain used to read as a numerical failure: a
# singular system after a RuntimeWarning, exit 3.
@pytest.mark.parametrize("flags, name", [
    (["--potential", "gaussian", "--width", "0"], "width"),
    (["--potential", "gaussian", "--width", "-1"], "width"),
    (["--half-width", "-1"], "half_width"),
])
def test_scatter_parameter_outside_its_domain_exits_2(capsys, flags, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["scatter", *flags, "--energy", "1"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


def test_scatter_zero_half_width_is_the_free_case(capsys):
    assert main(["scatter", "--half-width", "0", "--energy", "1"]) == EXIT_OK


def test_scatter_flag_of_another_kind_exits_2(capsys):
    code = main(["scatter", "--potential", "gaussian", "--depth", "-2",
                 "--energy", "1.0"])
    assert code == EXIT_CONFIG
    assert "depth" in capsys.readouterr().err


def test_specfun_campaign_writes_report(tmp_path, capsys):
    out = tmp_path / "audit.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "SpecfunAudit",
        "grids": {"seam_points": 9, "bound_samples": 40, "bound_n_t": 8,
                  "bound_t_max": 1.5},
    }))
    code = main(["specfun", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["experiment"] == "SpecfunAudit"
    assert all(v["passed"] for v in doc["verdicts"])
    assert "PASS" in capsys.readouterr().out


def test_failing_verdict_exits_1(tmp_path, capsys):
    # An unreachable top-eigenvalue demand must flip the exit code to 1 and
    # name the tolerance in the output.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "CarlemanMehler",
        "grids": {"n": 100, "mehler_t": [0.5], "mehler_panels": [10, 20]},
        "tolerances": {"top_eigenvalue_min": 0.9999},
    }))
    code = main(["carleman", "--config", str(cfg)])
    assert code == EXIT_VERDICT
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "top_eigenvalue_min" in out


def test_csv_output(tmp_path):
    out = tmp_path / "audit.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "SpecfunAudit",
        "grids": {"seam_points": 9, "bound_samples": 40, "bound_n_t": 8,
                  "bound_t_max": 1.5},
    }))
    code = main(["specfun", "--config", str(cfg), "--out", str(out),
                 "--format", "csv", "--quiet"])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("case,")


def test_verify_csv_quotes_the_details(tmp_path, monkeypatch):
    # Criterion details hold commas; a quote and a newline must survive too.
    from specdiff import acceptance
    results = [acceptance.CriterionResult(
        index, f"title {index}", index != 2, detail, 0.1)
        for index, detail in enumerate(
            ["a=1 (tol 1e-08, ok); b=0 (tol 0.1, ok)", 'say "hi", twice',
             "two\nlines", "plain"], start=1)]
    monkeypatch.setattr(acceptance, "run_all", lambda seed: results)
    out = tmp_path / "verify.csv"
    code = main(["verify", "--out", str(out), "--format", "csv", "--quiet"])
    assert code == EXIT_VERDICT
    with open(out, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["criterion", "title", "passed", "detail"]
    assert all(len(row) == len(header) for row in rows)
    assert [row[3] for row in rows] == [r.detail for r in results]


def test_usage_error_exits_2():
    assert main(["no-such-subcommand"]) == EXIT_CONFIG


def test_campaign_subcommand_has_no_seed_flag(capsys):
    # The seed only sets the config echo; verify --seed feeds criterion 5.
    assert main(["specfun", "--seed", "1"]) == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
