"""The four benchmark workloads: seeded inputs, one pass of program calls,
and the correctness check applied to each case a pass produced.

A pass calls specdiff only through module attributes (``scattering.x``,
``experiments.y``), so the traced run sees every call.  Checks run outside
the timed pass and return, per case, the list of problems found; a case
that raised carries its error as its one problem.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from specdiff import acceptance, experiments, scattering, schrodinger1d

WORKLOADS = ("verify", "scatter", "box-bands", "counting")

# Criteria 6 (27 s) and 10 (17 s) are left out: a full `specdiff verify`
# pass (55 s) does not fit the benchmark's run budget.  Criterion 6's
# stationary Poschl-Teller solve is timed by `scatter`, and criterion 10
# reruns the same five campaigns.
VERIFY_CRITERIA = (1, 2, 3, 4, 5, 7, 8, 9)
# README documents criterion 8 as red with exactly these failing verdicts.
CRITERION_8_RED = frozenset({"edge_overflow", "edge_deficit",
                             "coverage_gap_monotone", "m_pm_top_deficit"})

SQUARE_WELL = {"kind": "square_well", "depth": -2.0, "half_width": 1.0}
POSCHL_TELLER = {"kind": "poschl_teller", "strength": 1}
GAUSSIAN = {"kind": "gaussian", "amplitude": -1.0, "width": 1.0}

# (potential, energies per pass, energy range).  Each range keeps the
# stationary refinement ladder fixed (final n: 400, 800, 3200), so seeds
# change energies but not the amount of work.
SCATTER_CASES = ((SQUARE_WELL, 10, (0.25, 4.0)),
                 (GAUSSIAN, 10, (0.25, 2.0)),
                 (POSCHL_TELLER, 1, (0.25, 2.0)))
COUNTING_CASES = ((SQUARE_WELL, 50, (0.5, 2.0)),
                  (POSCHL_TELLER, 50, (0.5, 2.0)))
BOX_HALF_LENGTHS = (50.0, 100.0, 200.0, 400.0)
BOX_SPACING = 0.02

UNITARITY_ODE_TOL = 1e-8
UNITARITY_STATIONARY_TOL = 1e-6
CROSS_ROUTE_TOL = 1e-3
PT_REFLECTION_TOL = 1e-8
PT_TRANSMISSION_ODE_TOL = 1e-8
BK_RESIDUAL_TOL = 0.05
BK_CONTINUITY_TOL = 0.2
SPECTRUM_TOL = 1e-10
# Box records are eigenvalue statistics of O(1) size; LAPACK builds may
# differ in the last bits, never by this much.
BOX_RECORD_TOL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_box_bands.json")


def _stratified(rng, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of ``count`` equal slices of [lo, hi]."""
    edges = lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count
    return [float(x) for x in edges]


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs; the seed picks every energy."""
    rng = np.random.default_rng(seed)
    if workload == "verify":
        return {"seed": seed, "criteria": VERIFY_CRITERIA}
    if workload == "scatter":
        cases = []
        for spec, count, (lo, hi) in SCATTER_CASES:
            pot = experiments.potential_from_dict(spec)
            cases += [(spec["kind"], pot, lam)
                      for lam in _stratified(rng, count, lo, hi)]
        return {"cases": cases}
    if workload == "box-bands":
        config = experiments.config_from_dict({
            "experiment": "BandFilling", "potential": SQUARE_WELL,
            "lambda_grid": [1.0],
            "box_sequence": [[L, int(round(2 * L / BOX_SPACING)) - 1]
                             for L in BOX_HALF_LENGTHS]})
        return {"config": config, "reference": load_reference()}
    if workload == "counting":
        configs = [experiments.config_from_dict({
            "experiment": "BirmanKrein", "potential": spec,
            "lambda_grid": _stratified(rng, count, lo, hi), "seed": seed})
            for spec, count, (lo, hi) in COUNTING_CASES]
        return {"configs": configs}
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


def load_reference() -> list[dict]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["records"]


def warm_up() -> None:
    """Run each LAPACK path the workloads use once at toy size."""
    well = schrodinger1d.SquareWell()
    box = schrodinger1d.BoxDiscretization(5.0, 99)
    scattering.s_matrix_ode(well, 1.0)
    scattering.s_matrix_stationary(well, 1.0, n_nodes=16)
    schrodinger1d.band_spectra(box, well, 1.01)
    scattering.smeared_spectral_shift(well, 1.01, box)


# --- passes -------------------------------------------------------------------

def run_pass(workload: str, inputs: dict, begin_case) -> list[dict]:
    """One pass of program calls; ``begin_case()`` marks each case start."""
    return _PASSES[workload](inputs, begin_case)


def _verify_pass(inputs, begin_case):
    # acceptance.run_all is what `specdiff verify` calls; criteria are
    # issued one by one only so each gets its own case id.
    out = []
    for index in inputs["criteria"]:
        begin_case()
        try:
            (result,) = acceptance.run_all(inputs["seed"], indices=[index])
        except Exception as exc:
            out.append({"criterion": index, "error": repr(exc)})
            continue
        out.append({"criterion": index, "passed": bool(result.passed),
                    "failed_verdicts": sorted(v["name"] for v in result.verdicts
                                              if not v["passed"]),
                    "elapsed": result.elapsed})
    return out


def _scatter_pass(inputs, begin_case):
    out = []
    for kind, pot, lam in inputs["cases"]:
        begin_case()
        try:
            s_ode = scattering.s_matrix_ode(pot, lam)
            s_stat, ops = scattering.s_matrix_stationary(
                pot, lam, return_operators=True)
            kappas = scattering.eigenphases(s_ode).kappas
        except Exception as exc:
            out.append({"kind": kind, "lambda": lam, "error": repr(exc)})
            continue
        out.append({"kind": kind, "lambda": lam, "s_ode": s_ode.matrix,
                    "s_stat": s_stat.matrix, "final_nodes": int(ops.nodes.size),
                    "kappa_max": float(kappas.max()) if kappas.size else 0.0})
        del ops  # drop the n x n operators before the next case
    return out


def _box_bands_pass(inputs, begin_case):
    begin_case()
    try:
        report = experiments.run_experiment(inputs["config"])
    except Exception as exc:
        return [{"error": repr(exc)}]
    return [{"records": report.records, "verdicts": report.verdicts}]


def _counting_pass(inputs, begin_case):
    out = []
    for config in inputs["configs"]:
        begin_case()
        try:
            report = experiments.run_experiment(config)
        except Exception as exc:
            out.append({"kind": config.potential["kind"],
                        "lambdas": list(config.lambda_grid), "error": repr(exc)})
            continue
        out.append({"kind": config.potential["kind"],
                    "lambdas": list(config.lambda_grid),
                    "records": report.records})
    return out


_PASSES = {"verify": _verify_pass, "scatter": _scatter_pass,
           "box-bands": _box_bands_pass, "counting": _counting_pass}


# --- checks -------------------------------------------------------------------

def _unitarity_defect(s) -> float:
    s = np.asarray(s)
    return float(np.linalg.norm(s.conj().T @ s - np.eye(2)))


def check_scatter_case(case: dict) -> list[str]:
    if "error" in case:
        return [case["error"]]
    problems = []
    s_ode, s_stat = np.asarray(case["s_ode"]), np.asarray(case["s_stat"])
    unit_ode, unit_stat = _unitarity_defect(s_ode), _unitarity_defect(s_stat)
    if not unit_ode <= UNITARITY_ODE_TOL:
        problems.append(f"ODE unitarity defect {unit_ode:.3g}")
    if not unit_stat <= UNITARITY_STATIONARY_TOL:
        problems.append(f"stationary unitarity defect {unit_stat:.3g}")
    cross = float(np.linalg.norm(s_ode - s_stat))
    if not cross <= CROSS_ROUTE_TOL:
        problems.append(f"cross-route error {cross:.3g}")
    if case["kind"] == "poschl_teller":
        # The unit Poschl-Teller well is reflectionless with
        # t(k) = (k + i) / (k - i).
        k = math.sqrt(case["lambda"])
        t_exact = (k + 1j) / (k - 1j)
        reflect = max(abs(s_ode[0, 1]), abs(s_ode[1, 0]))
        if not reflect <= PT_REFLECTION_TOL:
            problems.append(f"Poschl-Teller reflection {reflect:.3g}")
        for route, s, tol in (("ODE", s_ode, PT_TRANSMISSION_ODE_TOL),
                              ("stationary", s_stat, CROSS_ROUTE_TOL)):
            err = max(abs(s[0, 0] - t_exact), abs(s[1, 1] - t_exact))
            if not err <= tol:
                problems.append(f"Poschl-Teller {route} transmission error {err:.3g}")
    return problems


def cross_route_error(cases: list[dict]) -> float:
    errs = [float(np.linalg.norm(np.asarray(c["s_ode"]) - np.asarray(c["s_stat"])))
            for c in cases if "error" not in c]
    return max(errs, default=0.0)


def check_counting_case(case: dict) -> list[list[str]]:
    """Problems per energy of one BirmanKrein campaign."""
    lams = case["lambdas"]
    if "error" in case:
        return [[case["error"]] for _ in lams]
    records = case["records"]
    if [r["lambda"] for r in records] != lams:
        return [["records do not match the energy grid"] for _ in lams]
    out = []
    previous = None
    for rec in records:
        problems = []
        val = float(rec["bk_value"])
        residual = abs(val - round(val))
        if not residual <= BK_RESIDUAL_TOL:
            problems.append(f"lambda={rec['lambda']:.6g}: BK residual {residual:.3g}")
        if previous is not None:
            # Follow the previous value's branch, as the campaign does.
            val += round(previous - val)
            jump = abs(val - previous)
            if not jump <= BK_CONTINUITY_TOL:
                problems.append(f"lambda={rec['lambda']:.6g}: BK jump {jump:.3g}")
        previous = val
        out.append(problems)
    return out


def bk_residual_max(cases: list[dict]) -> float:
    res = [abs(float(r["bk_value"]) - round(float(r["bk_value"])))
           for c in cases if "error" not in c for r in c["records"]]
    return max(res, default=0.0)


def _free_count_below(L: float, n: int, lam: float) -> int:
    """rank P0 from the closed-form Dirichlet Laplacian spectrum."""
    h = 2.0 * L / (n + 1)
    k = np.arange(1, n + 1)
    return int(np.sum((2.0 / h ** 2) * (1.0 - np.cos(k * np.pi / (n + 1))) < lam))


def _record_diff(rec: dict, ref: dict) -> list[str]:
    problems = []
    if list(rec) != list(ref):
        return [f"record keys {list(rec)} differ from the reference"]
    for key, want in ref.items():
        got = rec[key]
        if isinstance(want, float):
            same = abs(float(got) - want) <= BOX_RECORD_TOL
        else:
            same = got == want
        if not same:
            problems.append(f"L={ref['L']:g} {key}: {got!r} != reference {want!r}")
    return problems


def check_box_bands_case(case: dict, reference: list[dict]) -> list[list[str]]:
    """Problems per box record, then one entry for the verdict set."""
    if "error" in case:
        return [[case["error"]] for _ in range(len(reference) + 1)]
    records = case["records"]
    if len(records) != len(reference):
        return [["wrong number of box records"] for _ in range(len(reference) + 1)]
    out = []
    for rec, ref in zip(records, reference):
        problems = _record_diff(rec, ref)
        if rec["trace_d"] != rec["rank_p"] - rec["rank_p0"]:
            problems.append(f"L={rec['L']:g}: trace_d != rank_p - rank_p0")
        free = _free_count_below(rec["L"], rec["n"], rec["lambda_effective"])
        if rec["rank_p0"] != free:
            problems.append(f"L={rec['L']:g}: rank_p0 {rec['rank_p0']} != {free}")
        if not rec["max_abs_eig_d"] <= 1.0 + SPECTRUM_TOL:
            problems.append(f"L={rec['L']:g}: spectrum of D leaves [-1, 1]")
        for key in ("m_plus_max", "m_minus_max"):
            if not -SPECTRUM_TOL <= rec[key] <= 1.0 + SPECTRUM_TOL:
                problems.append(f"L={rec['L']:g}: {key} leaves [0, 1]")
        out.append(problems)
    # README documents every BandFilling verdict as red at these boxes.
    red = {v["name"] for v in case["verdicts"] if not v["passed"]}
    out.append([] if red == CRITERION_8_RED else
               [f"red verdicts {sorted(red)} differ from the documented "
                f"{sorted(CRITERION_8_RED)}"])
    return out


def check_verify_case(case: dict) -> list[str]:
    if "error" in case:
        return [case["error"]]
    if case["criterion"] != 8:
        return [] if case["passed"] else [
            f"criterion {case['criterion']} failed: {case['failed_verdicts']}"]
    if case["passed"] or set(case["failed_verdicts"]) != CRITERION_8_RED:
        return [f"criterion 8 is not red as documented: failing verdicts "
                f"{case['failed_verdicts']}"]
    return []


def check_pass(workload: str, inputs: dict, cases: list[dict]) -> list[list[str]]:
    """Problems per checked case of one pass (an empty list is a pass)."""
    if workload == "verify":
        return [check_verify_case(c) for c in cases]
    if workload == "scatter":
        return [check_scatter_case(c) for c in cases]
    if workload == "box-bands":
        return [p for c in cases
                for p in check_box_bands_case(c, inputs["reference"])]
    return [p for c in cases for p in check_counting_case(c)]


def accuracy(workload: str, cases: list[dict]) -> dict:
    """The workload's accuracy figures, reported next to its timings."""
    if workload == "scatter":
        return {"cross_route_err": cross_route_error(cases),
                "final_nodes": [[c["kind"], c["lambda"], c.get("final_nodes")]
                                for c in cases]}
    if workload == "counting":
        return {"bk_residual_max": bk_residual_max(cases)}
    return {}
