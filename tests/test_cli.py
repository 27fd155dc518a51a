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
])
def test_malformed_config_value_exits_2(tmp_path, capsys, entry, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "BirmanKrein", **entry}))
    code = main(["bk", "--config", str(p)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


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
