"""Tests for campaign configs, reports, and serialization."""

import csv
import io
import json
import math
import pathlib

import numpy as np
import pytest

from specdiff import carleman, specfun
from specdiff.errors import ConfigError, DomainError, LevelCollisionError
from specdiff.experiments import (
    POTENTIALS,
    ExperimentReport,
    config_from_dict,
    config_from_json,
    default_config,
    emit_report,
    potential_from_dict,
    report_csv,
    report_json,
    run_band_filling,
    run_birman_krein,
    run_experiment,
    run_model_spectrum,
    run_specfun_audit,
    _nudge_level,
    _with_level_nudge,
)
from specdiff.schrodinger1d import BoxDiscretization

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


class TestConfig:
    def test_defaults_exist_for_all_campaigns(self):
        for name in ("SpecfunAudit", "CarlemanMehler", "ModelSpectrum",
                     "BandFilling", "BirmanKrein"):
            cfg = default_config(name)
            assert cfg.experiment == name

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"experiment": "BirmanKrein", "lamda_grid": [1.0]})
        assert "lamda_grid" in str(err.value)

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "CarlemanMehler",
                              "grids": {"mehler_pnaels": [20]}})

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "BirmanKrein",
                              "tolerances": {"bk_residul": 0.05}})

    def test_unknown_potential_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "BandFilling",
                              "potential": {"kind": "square_well", "dpeth": -2.0}})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "BandFillings"})

    def test_box_sequence_must_increase(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "BandFilling",
                              "box_sequence": [[100, 9999], [50, 4999]]})

    def test_tolerances_must_be_positive(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "BirmanKrein",
                              "tolerances": {"bk_residual": 0.0}})

    # An entry that SpecfunAudit does not read names its own campaign.
    @pytest.mark.parametrize("entry, key", [
        ({"experiment": "BirmanKrein", "potential": 3}, "potential"),
        ({"experiment": "BirmanKrein",
          "potential": {"kind": "poschl_teller", "strength": 1.5}}, "strength"),
        ({"grids": [1.0]}, "grids"),
        ({"grids": {"seam_points": "50"}}, "seam_points"),
        ({"grids": {"seam_t": 0.5}}, "seam_t"),
        ({"tolerances": "tight"}, "tolerances"),
        ({"tolerances": {"imag_residual": True}}, "imag_residual"),
        ({"experiment": "BirmanKrein", "lambda_grid": [0.5, "1"]},
         "lambda_grid[1]"),
        ({"experiment": "BirmanKrein", "box_sequence": [[50, "4999"]]},
         "box_sequence n"),
        ({"seed": "0"}, "seed"),
    ])
    def test_wrong_json_type_names_the_key(self, entry, key):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"experiment": "SpecfunAudit", **entry})
        assert key in str(err.value)

    @pytest.mark.parametrize("name", ["BandFillings", ["BandFilling"], None])
    def test_default_config_refuses_a_name_that_is_no_campaign(self, name):
        with pytest.raises(ConfigError) as err:
            default_config(name)
        assert "unknown experiment" in str(err.value)

    @pytest.mark.parametrize("experiment, entry", [
        ("SpecfunAudit", {"potential": {"kind": "gaussian"}}),
        ("CarlemanMehler", {"lambda_grid": [0.5]}),
        ("ModelSpectrum", {"box_sequence": [[50, 4999]]}),
        ("BandFilling", {"grids": {"n": 40}}),
        ("BirmanKrein", {"grids": []}),
    ])
    def test_unread_key_names_the_key_and_the_campaign(self, experiment, entry):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"experiment": experiment, **entry})
        (key,) = entry
        assert key in str(err.value) and experiment in str(err.value)

    def test_unread_key_holding_the_echoed_empty_value_is_accepted(self):
        cfg = config_from_dict({"experiment": "SpecfunAudit", "potential": None,
                                "lambda_grid": [], "box_sequence": []})
        assert cfg == default_config("SpecfunAudit")
        cfg = config_from_dict({"experiment": "BandFilling", "grids": {}})
        assert cfg == default_config("BandFilling")

    def test_null_potential_reads_no_lambda_grid(self):
        # ModelSpectrum without a potential runs its synthetic case only: its
        # echo carries an empty lambda_grid and rebuilds the same config.
        raw = {"experiment": "ModelSpectrum", "potential": None,
               "grids": {"n": 40}}
        cfg = config_from_dict(raw)
        assert cfg.lambda_grid == ()
        report = run_model_spectrum(cfg)
        assert [r["case"] for r in report.records] == ["synthetic"]
        assert config_from_dict(report.config) == cfg

    def test_missing_keys_take_defaults(self):
        cfg = config_from_dict({"experiment": "BirmanKrein", "seed": 9})
        assert cfg.seed == 9
        assert cfg.tolerances["bk_residual"] == 0.05

    def test_potential_construction(self):
        pot = potential_from_dict({"kind": "poschl_teller", "strength": 2})
        assert pot.strength == 2
        with pytest.raises(ConfigError):
            potential_from_dict({"kind": "delta_comb"})

    @pytest.mark.parametrize("kind", sorted(POTENTIALS))
    def test_potential_keys_left_out_take_class_defaults(self, kind):
        assert potential_from_dict({"kind": kind}) == POTENTIALS[kind]()

    def test_config_from_json_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"experiment": "BirmanKrein",
                                 "lambda_grid": [0.7, 1.1]}))
        cfg = config_from_json(p)
        assert cfg.lambda_grid == (0.7, 1.1)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                             ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        cfg = config_from_json(path)
        assert cfg.experiment == json.loads(path.read_text())["experiment"]

    def test_config_from_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            config_from_json(p)


def small_audit_config():
    return config_from_dict({
        "experiment": "SpecfunAudit",
        "grids": {"seam_points": 9, "bound_samples": 40, "bound_n_t": 8,
                  "bound_t_max": 1.5},
    })


class TestReports:
    def test_deterministic_json(self):
        cfg = small_audit_config()
        r1 = run_specfun_audit(cfg)
        r2 = run_specfun_audit(cfg)
        assert report_json(r1, include_timing=False) == \
            report_json(r2, include_timing=False)

    def test_json_round_trip_bit_exact(self, tmp_path):
        cfg = small_audit_config()
        report = run_specfun_audit(cfg)
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        loaded = json.loads(path.read_text())
        assert loaded["format_version"] == 1
        for got, want in zip(loaded["records"], report.records):
            for key, val in want.items():
                if isinstance(val, float):
                    assert got[key] == val     # bit-exact round trip
        assert loaded["config"] == report.config

    def test_json_keeps_float_type(self):
        def check(got, want):
            if isinstance(want, dict):
                assert list(got) == [str(key) for key in want]
                for key, val in want.items():
                    check(got[str(key)], val)
            elif isinstance(want, (list, tuple, np.ndarray)):
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    check(g, w)
            elif isinstance(want, (bool, np.bool_)):
                assert got is bool(want)
            elif isinstance(want, (int, np.integer)):
                assert type(got) is int and got == want
            elif isinstance(want, (float, np.floating)):
                assert type(got) is float and got == float(want)
            else:
                assert got == want

        synthetic = ExperimentReport(
            experiment="x", config={"seed": 0, "scale": 2.0},
            records=[{"one": 1.0, "zero": 0.0, "minus_zero": -0.0,
                      "negative": -3.0, "big": 1e16, "huge": 1e300,
                      "tenth": 0.1, "count": 3, "flag": True,
                      "mixed": [1.0, 2, np.float64(4.0), np.int64(5)]}])
        for report in (synthetic, run_specfun_audit(small_audit_config())):
            doc = json.loads(report_json(report, include_timing=False))
            check(doc["records"], report.records)
            check(doc["verdicts"], report.verdicts)
            check(doc["config"], report.config)

    def test_csv_row_count(self, tmp_path):
        cfg = small_audit_config()
        report = run_specfun_audit(cfg)
        path = tmp_path / "report.csv"
        emit_report(report, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(report.records)

    def test_csv_columns_are_the_union_of_record_keys(self):
        # Seam and bound rows have different keys; each row keeps its own.
        report = run_specfun_audit(small_audit_config())
        header, *rows = csv.reader(io.StringIO(report_csv(report)))
        assert header == ["case", "t", "x_lo", "x_hi", "points",
                          "max_branch_diff", "max_imag_residual", "t_max",
                          "n_x", "n_t", "uniform_sup", "holder_sup"]
        bounds = [dict(zip(header, row)) for row in rows
                  if row[0] == "bounds"]
        assert bounds
        for row, rec in zip(bounds, (r for r in report.records
                                     if r["case"] == "bounds")):
            assert float(row["uniform_sup"]) == rec["uniform_sup"]
            assert float(row["holder_sup"]) == rec["holder_sup"]
            assert row["max_branch_diff"] == ""

    def test_empty_records_still_valid(self):
        report = ExperimentReport(experiment="x", config={"seed": 0})
        doc = json.loads(report_json(report))
        assert doc["records"] == []
        assert report_csv(report) == ""

    def test_write_failure_carries_path(self):
        report = ExperimentReport(experiment="x", config={})
        with pytest.raises(OSError) as err:
            emit_report(report, "json", "/nonexistent-dir/report.json")
        assert "/nonexistent-dir/report.json" in str(err.value)

    def test_unknown_format_rejected(self):
        report = ExperimentReport(experiment="x", config={})
        with pytest.raises(ConfigError):
            emit_report(report, "yaml", "/tmp/r.yaml")


class TestConicalCampaignBatching:
    def test_seam_records_match_per_t_forced_calls(self):
        cfg = config_from_dict({
            "experiment": "SpecfunAudit",
            "grids": {"seam_t": [0.0, 5e-4, 1.0, 16.0], "seam_points": 21,
                      "bound_samples": 20, "bound_n_t": 4},
        })
        g = cfg.grids
        xs = np.linspace(g["seam_x_lo"], g["seam_x_hi"], g["seam_points"])
        want = []
        for t in g["seam_t"]:
            near, near_imag = specfun.conical_p_near_one(t, xs)
            far, far_imag = specfun.conical_p_far_branch(t, xs)
            want.append({
                "case": "seam", "t": float(t), "x_lo": float(g["seam_x_lo"]),
                "x_hi": float(g["seam_x_hi"]), "points": int(g["seam_points"]),
                "max_branch_diff": float(np.max(np.abs(near - far))),
                "max_imag_residual": float(max(np.max(near_imag),
                                               np.max(far_imag))),
            })
        report = run_specfun_audit(cfg)
        assert [r for r in report.records if r["case"] == "seam"] == want

    def test_mehler_records_are_t_major_and_match_scalar_calls(self):
        cfg = config_from_dict({
            "experiment": "CarlemanMehler",
            "grids": {"n": 40, "mehler_t": [0.5, 2.0, 1.0],
                      "mehler_panels": [10, 20], "window_points": 5},
        })
        report = run_experiment(cfg)
        assert len(report.per_case_seconds) == 3
        mehler = [r for r in report.records if r["case"] == "mehler"]
        assert [(r["t"], r["panels"]) for r in mehler] == [
            (0.5, 10), (0.5, 20), (2.0, 10), (2.0, 20), (1.0, 10), (1.0, 20)]
        xs = np.linspace(0.2, 0.8, 5)
        for r in mehler:
            grid = carleman.composite_graded_grid(1.0, panels=r["panels"],
                                                  order=10)
            assert r["nodes"] == grid.n
            assert r["max_rel_residual"] == float(
                carleman.mehler_residual(1.0, r["t"], grid, xs).max())


class TestVerdictTraceability:
    def test_every_verdict_names_a_config_tolerance(self):
        cfg = small_audit_config()
        report = run_specfun_audit(cfg)
        for v in report.verdicts:
            assert v["tolerance_name"] in report.config["tolerances"]
            assert v["tolerance"] > 0

    def test_no_silent_thresholds_in_campaigns(self):
        for experiment, kwargs in (
            ("ModelSpectrum", {"grids": {"n": 40}}),
            ("BandFilling", {"box_sequence": [[15, 749]]}),
            ("BirmanKrein", {"lambda_grid": [0.8], "box_sequence": [[40, 3999]]}),
        ):
            cfg = config_from_dict({"experiment": experiment, **kwargs})
            report = run_experiment(cfg)
            assert report.verdicts
            for v in report.verdicts:
                assert v["tolerance_name"] in report.config["tolerances"]


class TestModelSpectrumCampaign:
    def test_synthetic_bands(self):
        cfg = config_from_dict({"experiment": "ModelSpectrum",
                                "grids": {"n": 60}})
        report = run_model_spectrum(cfg)
        assert report.passed
        synth = [r for r in report.records if r["case"] == "synthetic"][0]
        assert abs(synth["kappa_sq_max"] - 0.5) <= 1e-12
        comp = [r for r in report.records if r["case"] == "computed"][0]
        assert comp["kappa_identity_error"] <= 1e-10

    def test_expected_top_matches_product(self):
        cfg = config_from_dict({"experiment": "ModelSpectrum",
                                "grids": {"n": 40}})
        report = run_model_spectrum(cfg)
        for rec in report.records:
            assert abs(rec["top_eigenvalue"] - rec["expected_top"]) <= 1e-10


class TestBandFillingCampaign:
    def test_record_mechanics_small_boxes(self):
        cfg = config_from_dict({
            "experiment": "BandFilling",
            "box_sequence": [[15, 749], [30, 1499]],
        })
        report = run_band_filling(cfg)
        recs = [r for r in report.records if r["case"] == "box"]
        assert len(recs) == 2
        for rec in recs:
            assert rec["rank_p"] >= rec["rank_p0"] >= 1
            assert rec["max_abs_eig_d"] <= 1.0 + 1e-10
            assert rec["m_plus_max"] <= 1.0 + 1e-10
            assert rec["trace_d"] == rec["rank_p"] - rec["rank_p0"]
        names = [v["name"] for v in report.verdicts]
        assert {"edge_overflow", "edge_deficit",
                "coverage_gap_monotone", "m_pm_top_deficit"} <= set(names)
        # One timing entry per box.
        assert len(report.per_case_seconds) == 2


class TestBandFillingSpecialCases:
    def test_ranks_past_n_run(self):
        # n = 399 with rank P = rank P0 = 232: ran P and ran P0 meet
        report = run_experiment(config_from_dict({
            "experiment": "BandFilling", "lambda_grid": [1000.3],
            "box_sequence": [[10.0, 399]]}))
        (rec,) = [r for r in report.records if r["case"] == "box"]
        assert rec["rank_p"] + rec["rank_p0"] > rec["n"]
        assert rec["max_abs_eig_d"] <= 1.0
        assert report.passed

    def test_zero_potential_is_trivial(self):
        cfg = config_from_dict({
            "experiment": "BandFilling",
            "potential": {"kind": "gaussian", "amplitude": 0.0, "width": 1.0},
            "box_sequence": [[15, 749]],
        })
        report = run_band_filling(cfg)
        assert report.passed
        assert report.records[0]["case"] == "trivial"
        assert report.records[0]["kappa_max"] == 0.0

    def test_band_case_nudges_colliding_level(self):
        from specdiff.schrodinger1d import BoxDiscretization, free_levels
        box = BoxDiscretization(15.0, 749)
        collide = float(free_levels(box)[20])
        cfg = config_from_dict({
            "experiment": "BandFilling",
            "lambda_grid": [collide],
            "box_sequence": [[15, 749]],
        })
        report = run_band_filling(cfg)
        rec = [r for r in report.records if r["case"] == "box"][0]
        assert rec["lambda"] == collide
        assert rec["lambda_effective"] == _nudge_level(box, collide) != collide

    def test_reflectionless_band_is_single_and_symmetric(self):
        from specdiff.scattering import eigenphases, s_matrix_ode
        from specdiff.schrodinger1d import BoxDiscretization, PoschlTeller, band_spectra

        # Both eigenphases coincide: sin(pi/4 + arctan-phase) for t = (k+i)/(k-i)
        phases = eigenphases(s_matrix_ode(PoschlTeller(1), 1.0))
        assert abs(phases.kappas[0] - phases.kappas[1]) <= 1e-8
        kappa = float(phases.kappas[0])

        spectra = band_spectra(BoxDiscretization(20.0, 999), PoschlTeller(1), 1.0)
        ev = spectra.d_full
        # Any spectrum beyond the band consists of eigenvalues pinned at
        # exactly +-1, one per unit of counting mismatch (here the bound
        # state); the bulk stays inside the single symmetric band.
        outside = ev[np.abs(ev) > kappa + 0.02]
        assert outside.size == abs(spectra.trace_d)
        assert np.all(np.abs(np.abs(outside) - 1.0) <= 1e-9)
        inside = ev[np.abs(ev) <= kappa + 0.02]
        assert np.abs(np.sort(inside) - np.sort(-inside)).max() <= 1e-8


def _verdict(report, name):
    return [v for v in report.verdicts if v["name"] == name][0]


class TestBulkConfinement:
    """``bulk_confinement`` counts the out-of-band eigenvalues of D and M+-
    that the index j = rank P - rank P0 does not pin at +-1.  The synthetic
    cases replace the box spectra of the square-well campaign at lambda=1
    (kappa_max = 0.748, so the D band ends at 0.768 and the M+- band at
    0.580 with the default edge margin 0.02)."""

    @staticmethod
    def _run_with(monkeypatch, rank_p, rank_p0, d, m_plus, m_minus):
        from specdiff import schrodinger1d

        def fake_band_spectra(box, potential, level):
            return schrodinger1d.BandSpectra(
                rank_p=rank_p, rank_p0=rank_p0,
                d_nonzero=np.array(d, dtype=float),
                m_plus=np.array(m_plus, dtype=float),
                m_minus=np.array(m_minus, dtype=float), zero_multiplicity=3)

        monkeypatch.setattr(schrodinger1d, "band_spectra", fake_band_spectra)
        cfg = config_from_dict({"experiment": "BandFilling",
                                "box_sequence": [[15, 749]]})
        return run_band_filling(cfg)

    def test_index_pinned_eigenvalues_are_explained(self, monkeypatch):
        report = self._run_with(monkeypatch, 5, 4, [-0.4, 0.4, 1.0],
                                [0.16, 1.0], [0.16])
        assert _verdict(report, "bulk_confinement")["passed"]
        assert _verdict(report, "bulk_confinement")["observed"] == 0
        assert _verdict(report, "edge_overflow")["observed"] == 2
        # The deficits read the largest eigenvalues that are not pinned.
        kappa_max = report.records[0]["kappa_max"]
        assert _verdict(report, "edge_deficit")["observed"] == \
            pytest.approx(kappa_max - 0.4)
        assert _verdict(report, "m_pm_top_deficit")["observed"] == \
            pytest.approx(kappa_max ** 2 - 0.16)

    def test_negative_index_pins_minus_one_and_m_minus(self, monkeypatch):
        report = self._run_with(monkeypatch, 3, 5, [-1.0, -1.0, -0.4, 0.4],
                                [0.16], [0.16, 1.0, 1.0])
        assert _verdict(report, "bulk_confinement")["observed"] == 0

    @pytest.mark.parametrize("d, m_plus, m_minus", [
        # an out-of-band eigenvalue of D that is not at +-1
        ([-0.4, 0.4, 0.9, 1.0], [0.16, 1.0], [0.16]),
        # a pin at +1 beyond |j| = 1
        ([-0.4, 0.4, 1.0, 1.0], [0.16, 1.0], [0.16]),
        # a pinned eigenvalue with the wrong sign
        ([-1.0, -0.4, 0.4], [0.16, 1.0], [0.16]),
        # a pin off +1 by more than PIN_TOL
        ([-0.4, 0.4, 1.0 - 1e-6], [0.16, 1.0], [0.16]),
        # an out-of-band M+ eigenvalue that is not at 1
        ([-0.4, 0.4, 1.0], [0.16, 0.7, 1.0], [0.16]),
        # an eigenvalue 1 of M- while j > 0 pins M+ only
        ([-0.4, 0.4, 1.0], [0.16, 1.0], [0.16, 1.0]),
    ])
    def test_each_unexplained_eigenvalue_is_counted(self, monkeypatch, d,
                                                    m_plus, m_minus):
        report = self._run_with(monkeypatch, 5, 4, d, m_plus, m_minus)
        verdict = _verdict(report, "bulk_confinement")
        assert not verdict["passed"]
        assert verdict["observed"] == 1
        assert verdict["tolerance_name"] == "edge_margin"

    def test_zero_index_allows_no_pins(self, monkeypatch):
        report = self._run_with(monkeypatch, 4, 4, [-1.0, -0.4, 0.4, 1.0],
                                [0.16, 1.0], [0.16, 1.0])
        assert _verdict(report, "bulk_confinement")["observed"] == 4

    def test_poschl_teller_small_box(self):
        # The single symmetric band of the reflectionless well: all that
        # leaves it is pinned by the index, as the reflectionless test of
        # band_spectra finds on the same box.
        cfg = config_from_dict({
            "experiment": "BandFilling",
            "potential": {"kind": "poschl_teller", "strength": 1},
            "box_sequence": [[20, 999]],
        })
        report = run_band_filling(cfg)
        rec = report.records[0]
        assert rec["trace_d"] != 0
        assert rec["edge_overflow_count"] == abs(rec["trace_d"])
        assert rec["m_plus_overflow"] + rec["m_minus_overflow"] == \
            abs(rec["trace_d"])
        assert _verdict(report, "bulk_confinement")["passed"]
        assert _verdict(report, "bulk_confinement")["observed"] == 0


class TestBirmanKreinCampaign:
    def test_small_box_grid(self):
        cfg = config_from_dict({
            "experiment": "BirmanKrein",
            "lambda_grid": [0.6, 0.9, 1.2, 1.5],
            "box_sequence": [[60, 5999]],
        })
        report = run_birman_krein(cfg)
        recs = report.records
        assert len(recs) == 4
        assert all(r["residual"] <= 0.1 for r in recs)
        cont = [v for v in report.verdicts if v["name"] == "bk_continuity"][0]
        assert cont["passed"]
        # One timing entry per energy.
        assert len(report.per_case_seconds) == 4

    def test_runner_dispatch(self):
        cfg = config_from_dict({
            "experiment": "BirmanKrein",
            "lambda_grid": [0.8],
            "box_sequence": [[40, 3999]],
        })
        report = run_experiment(cfg)
        assert report.experiment == "BirmanKrein"
        assert len(report.records) == 1

    def test_level_collision_is_nudged_and_recorded(self):
        from specdiff.schrodinger1d import BoxDiscretization, free_levels
        box = BoxDiscretization(40.0, 3999)
        collide = float(free_levels(box)[40])
        cfg = config_from_dict({
            "experiment": "BirmanKrein",
            "potential": {"kind": "gaussian", "amplitude": 0.0, "width": 1.0},
            "lambda_grid": [collide],
            "box_sequence": [[40, 3999]],
        })
        report = run_birman_krein(cfg)
        rec = report.records[0]
        assert rec["lambda"] == collide
        assert rec["lambda_effective"] == _nudge_level(box, collide) != collide
        assert rec["residual"] <= 1e-9

    def test_top_energy_on_a_free_level_is_nudged_inside_the_window(self):
        # The campaign's one window of box levels must hold the nudged top
        # energy; the value there is the single-energy one.
        from specdiff.scattering import birman_krein_value
        from specdiff.schrodinger1d import SquareWell, free_levels
        box = BoxDiscretization(40.0, 3999)
        levels = free_levels(box)
        top = float(levels[np.searchsorted(levels, 1.2)])
        cfg = config_from_dict({
            "experiment": "BirmanKrein",
            "lambda_grid": [0.6, 0.9, top],
            "box_sequence": [[40, 3999]],
        })
        rec = run_birman_krein(cfg).records[-1]
        assert rec["lambda"] == top
        assert top < rec["lambda_effective"] < levels[levels > top][0]
        want = birman_krein_value(SquareWell(-2.0, 1.0),
                                  rec["lambda_effective"], box)
        assert abs(rec["bk_value"] - want) <= 1e-9


class TestLevelNudge:
    """Only the typed level collision is nudged; the message text of an
    error plays no part."""

    def test_domain_error_mentioning_collision_propagates(self):
        levels = []

        def fails_once(level):
            levels.append(level)
            if len(levels) == 1:
                raise DomainError("level collision; nudge lambda")
            return level

        with pytest.raises(DomainError, match="collision"):
            _with_level_nudge(fails_once, BoxDiscretization(40.0, 3999), 1.0)
        assert levels == [1.0]

    def test_level_collision_error_is_nudged(self):
        levels = []

        def collides_once(level):
            levels.append(level)
            if len(levels) == 1:
                raise LevelCollisionError("on a box eigenvalue")
            return level

        box = BoxDiscretization(40.0, 3999)
        got, level = _with_level_nudge(collides_once, box, 1.0)
        assert len(levels) == 2 and levels[0] == 1.0
        assert got == level == levels[1] == _nudge_level(box, 1.0) != 1.0

