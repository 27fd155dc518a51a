"""Tests for the command-line interface and its exit-code contract."""

import json

import pytest

from specdiff.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERDICT, main


def test_missing_config_file_exits_2(capsys):
    code = main(["bk", "--config", "/no/such/config.json"])
    assert code == EXIT_CONFIG
    assert "/no/such/config.json" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "BirmanKrein", "lamda_grid": [1.0]}))
    code = main(["bk", "--config", str(p)])
    assert code == EXIT_CONFIG
    assert "lamda_grid" in capsys.readouterr().err


@pytest.mark.parametrize("entry, key", [
    ({"tolerances": {"bk_residual": "abc"}}, "bk_residual"),
    ({"box_sequence": [[200]]}, "box_sequence"),
    ({"lambda_grid": "0.5"}, "lambda_grid"),
    ({"potential": {"kind": "square_well", "depth": "deep"}}, "depth"),
    ({"potential": {"kind": ["square_well"]}}, "kind"),
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
# named by its key, caught before the campaign runs.
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


def test_scatter_square_well(capsys):
    code = main(["scatter", "--energy", "1.0"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "band radii" in out
    assert "unitarity defect" in out


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


def test_usage_error_exits_2():
    assert main(["no-such-subcommand"]) == EXIT_CONFIG
