"""Verification campaigns and structured reports.

Each campaign takes an :class:`ExperimentConfig`, runs a set of cases, and
returns an :class:`ExperimentReport` holding a config echo, one flat record
per case, and named verdicts.  Every verdict cites the tolerance entry it was
judged against; there are no silent thresholds.

Report schema (JSON, ``format_version = 1``)::

    {
      "format_version": 1,
      "experiment": "...",
      "config": { ... exact echo ... },
      "records": [ {case fields, scalars only} ... ],
      "verdicts": [ {"name", "tolerance_name", "tolerance", "observed",
                     "passed"} ... ],
      "timing": {"created_at": ISO-8601, "per_case_seconds": [...]}
    }

The ``timing`` block is the only nondeterministic part; reports stripped of
it are byte-identical across runs with equal config and seed.  Numeric
fields are serialized with 17 significant digits, which round-trips IEEE
doubles exactly.  CSV output is one row per record in record order; the
column order is the record key order of the campaign:

    SpecfunAudit    seam rows:  case, t, x_lo, x_hi, points,
                                max_branch_diff, max_imag_residual
                    bound rows: case, t_max, n_x, n_t, uniform_sup, holder_sup
    CarlemanMehler  spectrum:   case, a, n, min_eig, max_eig,
                                scaling_disagreement
                    residuals:  case, t, panels, nodes, max_rel_residual
    ModelSpectrum   case, n, dim, [lambda], kappa_sq_max,
                    [kappa_identity_error], product_error, top_eigenvalue,
                    expected_top, fill_gap
    BandFilling     case, L, n, lambda, lambda_effective, kappa_max, rank_p,
                    rank_p0, trace_d, max_abs_eig_d, max_abs_eig_in_band,
                    band_fill_ratio, edge_overflow_count, coverage_gap,
                    m_plus_max, m_minus_max, m_plus_overflow, m_minus_overflow
    BirmanKrein     case, lambda, lambda_effective, L, n, bk_value, residual
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import carleman, scattering, schrodinger1d, specfun
from .errors import ConfigError, LevelCollisionError

__all__ = [
    "CAMPAIGNS",
    "ExperimentConfig",
    "ExperimentReport",
    "default_config",
    "config_from_dict",
    "config_from_json",
    "potential_from_dict",
    "run_experiment",
    "run_specfun_audit",
    "run_carleman_mehler",
    "run_model_spectrum",
    "run_band_filling",
    "run_birman_krein",
    "emit_report",
    "report_json",
]

CAMPAIGNS = ("SpecfunAudit", "CarlemanMehler", "ModelSpectrum",
             "BandFilling", "BirmanKrein")

FORMAT_VERSION = 1

_CONFIG_KEYS = {"experiment", "potential", "lambda_grid", "box_sequence",
                "grids", "tolerances", "seed"}
_POTENTIAL_KEYS = {
    "square_well": {"kind", "depth", "half_width"},
    "poschl_teller": {"kind", "strength"},
    "gaussian": {"kind", "amplitude", "width"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    potential: dict | None
    lambda_grid: tuple
    box_sequence: tuple          # of (L, n) pairs
    grids: dict
    tolerances: dict
    seed: int

    def __post_init__(self):
        if self.experiment not in CAMPAIGNS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose one of {CAMPAIGNS}")
        for name, tol in self.tolerances.items():
            if not (float(tol) > 0):
                raise ConfigError(f"tolerance {name!r} must be positive, got {tol}")
        ls = [pair[0] for pair in self.box_sequence]
        if any(b <= a for a, b in zip(ls, ls[1:])):
            raise ConfigError("box_sequence must be strictly increasing in L")

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "potential": dict(self.potential) if self.potential else None,
            "lambda_grid": list(self.lambda_grid),
            "box_sequence": [list(p) for p in self.box_sequence],
            "grids": dict(self.grids),
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
        }


def potential_from_dict(d: dict) -> schrodinger1d.Potential:
    if "kind" not in d:
        raise ConfigError("potential config needs a 'kind' field")
    kind = d["kind"]
    if kind not in _POTENTIAL_KEYS:
        raise ConfigError(f"unknown potential kind {kind!r}; "
                          f"choose one of {sorted(_POTENTIAL_KEYS)}")
    unknown = set(d) - _POTENTIAL_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown potential keys {sorted(unknown)} for kind {kind!r}")
    if kind == "square_well":
        return schrodinger1d.SquareWell(depth=float(d.get("depth", -2.0)),
                                        half_width=float(d.get("half_width", 1.0)))
    if kind == "poschl_teller":
        return schrodinger1d.PoschlTeller(strength=int(d.get("strength", 1)))
    return schrodinger1d.GaussianBump(amplitude=float(d.get("amplitude", -1.0)),
                                      width=float(d.get("width", 1.0)))


def _boxes_for(half_lengths, h: float = 0.02):
    return tuple((float(L), int(round(2 * L / h)) - 1) for L in half_lengths)


def default_config(experiment: str) -> ExperimentConfig:
    """The benchmark configuration of each campaign (square well of depth -2
    and half-width 1 wherever a potential is involved)."""
    well = {"kind": "square_well", "depth": -2.0, "half_width": 1.0}
    if experiment == "SpecfunAudit":
        return ExperimentConfig(
            experiment=experiment, potential=None, lambda_grid=(),
            box_sequence=(),
            grids={"seam_t": [0.0, 0.5, 1.0, 2.0], "seam_x_lo": 1.2,
                   "seam_x_hi": 2.8, "seam_points": 50,
                   "bound_t_max": 3.0, "bound_x_max": 1.0e4,
                   "bound_samples": 200, "bound_n_t": 62},
            tolerances={"seam_consistency": 1e-8, "imag_residual": 1e-10,
                        "bound_growth": 0.05},
            seed=0)
    if experiment == "CarlemanMehler":
        return ExperimentConfig(
            experiment=experiment, potential=None, lambda_grid=(),
            box_sequence=(),
            grids={"a": 1.0, "n": 400, "order": 10,
                   "mehler_t": [0.5, 1.0, 2.0], "mehler_panels": [20, 40, 80],
                   "window": [0.2, 0.8], "window_points": 13},
            tolerances={"spectrum_margin": 1e-8, "top_eigenvalue_min": 0.95,
                        "scaling_agreement": 1e-6, "mehler_residual": 1e-3,
                        "refinement_noise": 0.1},
            seed=0)
    if experiment == "ModelSpectrum":
        return ExperimentConfig(
            experiment=experiment, potential=well, lambda_grid=(0.25,),
            box_sequence=(),
            grids={"a": 1.0, "n": 120,
                   "synthetic_phases": [math.pi / 3.0, math.pi / 2.0]},
            tolerances={"product_identity": 1e-10, "unitarity": 1e-8},
            seed=0)
    if experiment == "BandFilling":
        return ExperimentConfig(
            experiment=experiment, potential=well, lambda_grid=(1.0,),
            box_sequence=_boxes_for((50.0, 100.0, 200.0)),
            grids={},
            tolerances={"edge_margin": 0.02, "edge_deficit": 0.1,
                        "gap_noise": 0.1, "coverage_margin": 0.05},
            seed=0)
    if experiment == "BirmanKrein":
        return ExperimentConfig(
            experiment=experiment, potential=well,
            lambda_grid=tuple(np.linspace(0.5, 2.0, 20)),
            box_sequence=_boxes_for((200.0,)),
            grids={},
            tolerances={"bk_residual": 0.05, "bk_continuity": 0.2},
            seed=0)
    raise ConfigError(f"unknown experiment {experiment!r}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a JSON-style dict.  Unknown keys are a hard error
    (misspellings must not silently fall back to defaults); missing keys take
    the campaign defaults."""
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}; "
                          f"allowed: {sorted(_CONFIG_KEYS)}")
    if "experiment" not in raw:
        raise ConfigError("config needs an 'experiment' field")
    base = default_config(raw["experiment"])
    pot = raw.get("potential", base.potential)
    if pot is not None:
        potential_from_dict(pot)  # validate keys eagerly
    grids = dict(base.grids)
    for key, val in raw.get("grids", {}).items():
        if key not in base.grids:
            raise ConfigError(f"unknown grids key {key!r} for {base.experiment}; "
                              f"allowed: {sorted(base.grids)}")
        grids[key] = val
    tolerances = dict(base.tolerances)
    for key, val in raw.get("tolerances", {}).items():
        if key not in base.tolerances:
            raise ConfigError(f"unknown tolerance {key!r} for {base.experiment}; "
                              f"allowed: {sorted(base.tolerances)}")
        tolerances[key] = float(val)
    return ExperimentConfig(
        experiment=raw["experiment"],
        potential=pot,
        lambda_grid=tuple(float(x) for x in raw.get("lambda_grid", base.lambda_grid)),
        box_sequence=tuple((float(L), int(n)) for L, n in
                           raw.get("box_sequence", base.box_sequence)),
        grids=grids,
        tolerances=tolerances,
        seed=int(raw.get("seed", base.seed)),
    )


def config_from_json(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config_from_dict(raw)


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    records: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    per_case_seconds: list = field(default_factory=list)
    created_at: str = ""
    format_version: int = FORMAT_VERSION

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def add_verdict(self, name: str, tolerance_name: str, tolerance: float,
                    observed: float, passed: bool):
        self.verdicts.append({
            "name": name, "tolerance_name": tolerance_name,
            "tolerance": float(tolerance), "observed": float(observed),
            "passed": bool(passed),
        })


def _new_report(config: ExperimentConfig) -> ExperimentReport:
    return ExperimentReport(
        experiment=config.experiment, config=config.as_dict(),
        created_at=datetime.now(timezone.utc).isoformat())


# --- deterministic serialization -------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            raise ValueError("reports must not contain NaN or Inf")
        return "%.17g" % x
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}:{_fmt(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


def report_json(report: ExperimentReport, include_timing: bool = True) -> str:
    doc = {
        "format_version": report.format_version,
        "experiment": report.experiment,
        "config": report.config,
        "records": report.records,
        "verdicts": report.verdicts,
    }
    if include_timing:
        doc["timing"] = {"created_at": report.created_at,
                         "per_case_seconds": report.per_case_seconds}
    return _fmt(doc)


def report_csv(report: ExperimentReport) -> str:
    if not report.records:
        return ""
    columns = list(report.records[0].keys())
    lines = [",".join(columns)]
    for rec in report.records:
        cells = []
        for col in columns:
            v = rec.get(col)
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            elif v is None:
                cells.append("")
            else:
                cells.append("%.17g" % float(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, fmt: str, path) -> None:
    """Write the report as a single JSON document or as CSV rows."""
    fmt = fmt.lower()
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown report format {fmt!r}; use json or csv")
    text = report_json(report) if fmt == "json" else report_csv(report)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


# --- campaigns ---------------------------------------------------------------

def run_specfun_audit(config: ExperimentConfig) -> ExperimentReport:
    """Seam consistency of the two conical representations plus the empirical
    decay/Hoelder bound audit under sample doubling."""
    report = _new_report(config)
    g, tol = config.grids, config.tolerances

    t_start = time.perf_counter()
    xs = np.linspace(g["seam_x_lo"], g["seam_x_hi"], int(g["seam_points"]))
    worst = 0.0
    worst_imag = 0.0
    for t in g["seam_t"]:
        diff_t = 0.0
        imag_t = 0.0
        for x in xs:
            near = specfun.conical_p_near_one(t, x)
            far = specfun.conical_p_far_branch(t, x)
            diff_t = max(diff_t, abs(near.value - far.value))
            imag_t = max(imag_t, near.imag_residual, far.imag_residual)
        worst = max(worst, diff_t)
        worst_imag = max(worst_imag, imag_t)
        report.records.append({
            "case": "seam", "t": float(t), "x_lo": float(g["seam_x_lo"]),
            "x_hi": float(g["seam_x_hi"]), "points": int(g["seam_points"]),
            "max_branch_diff": diff_t, "max_imag_residual": imag_t,
        })
    report.per_case_seconds.append(time.perf_counter() - t_start)
    report.add_verdict("seam_consistency", "seam_consistency",
                       tol["seam_consistency"], worst,
                       worst <= tol["seam_consistency"])
    report.add_verdict("branch_realness", "imag_residual",
                       tol["imag_residual"], worst_imag,
                       worst_imag <= tol["imag_residual"])

    t_start = time.perf_counter()
    n_x = int(g["bound_samples"])
    growth = []
    sups = []
    for factor in (1, 2):
        xs = np.geomspace(1.0, g["bound_x_max"], n_x * factor)
        rep = specfun.check_conical_bounds(g["bound_t_max"], xs,
                                           n_t=int(g["bound_n_t"]) * factor)
        sups.append(rep)
        report.records.append({
            "case": "bounds", "t_max": float(g["bound_t_max"]),
            "n_x": n_x * factor, "n_t": int(g["bound_n_t"]) * factor,
            "uniform_sup": rep.uniform_sup, "holder_sup": rep.holder_sup,
        })
    for name, a, b in (("uniform", sups[0].uniform_sup, sups[1].uniform_sup),
                       ("holder", sups[0].holder_sup, sups[1].holder_sup)):
        growth = abs(b - a) / a
        report.add_verdict(f"bound_stability_{name}", "bound_growth",
                           tol["bound_growth"], growth,
                           growth <= tol["bound_growth"])
    report.per_case_seconds.append(time.perf_counter() - t_start)
    return report


def run_carleman_mehler(config: ExperimentConfig) -> ExperimentReport:
    """Spectrum containment and scaling invariance of the half-Carleman
    discretization, plus the generalized-eigenfunction residual under mesh
    refinement."""
    report = _new_report(config)
    g, tol = config.grids, config.tolerances
    a, n, order = float(g["a"]), int(g["n"]), int(g["order"])

    t_start = time.perf_counter()
    op = carleman.half_carleman(a, n, scheme=carleman.Scheme.COMPOSITE_GRADED,
                                order=order)
    ev = op.eigenvalues()
    op2 = carleman.half_carleman(2.0 * a, n,
                                 scheme=carleman.Scheme.COMPOSITE_GRADED,
                                 order=order)
    ev2 = op2.eigenvalues()
    scaling = float(np.abs(ev - ev2).max())
    report.records.append({
        "case": "spectrum", "a": a, "n": n, "min_eig": float(ev[0]),
        "max_eig": float(ev[-1]), "scaling_disagreement": scaling,
    })
    report.per_case_seconds.append(time.perf_counter() - t_start)
    margin = tol["spectrum_margin"]
    report.add_verdict("spectrum_lower", "spectrum_margin", margin,
                       float(-ev[0]), ev[0] >= -margin)
    report.add_verdict("spectrum_upper", "spectrum_margin", margin,
                       float(ev[-1] - 1.0), ev[-1] <= 1.0 + margin)
    report.add_verdict("top_eigenvalue", "top_eigenvalue_min",
                       tol["top_eigenvalue_min"], float(ev[-1]),
                       ev[-1] >= tol["top_eigenvalue_min"])
    report.add_verdict("scaling_invariance", "scaling_agreement",
                       tol["scaling_agreement"], scaling,
                       scaling <= tol["scaling_agreement"])

    window = g["window"]
    xs = np.linspace(window[0] * a, window[1] * a, int(g["window_points"]))
    all_monotone = True
    worst_final = 0.0
    for t in g["mehler_t"]:
        t_start = time.perf_counter()
        resids = []
        for panels in g["mehler_panels"]:
            grid = carleman.composite_graded_grid(a, panels=int(panels), order=order)
            r = float(carleman.mehler_residual(a, float(t), grid, xs).max())
            resids.append(r)
            report.records.append({
                "case": "mehler", "t": float(t), "panels": int(panels),
                "nodes": grid.n, "max_rel_residual": r,
            })
        noise = 1.0 + tol["refinement_noise"]
        monotone = all(resids[i + 1] <= resids[i] * noise
                       for i in range(len(resids) - 1))
        all_monotone = all_monotone and monotone
        worst_final = max(worst_final, resids[-1])
        report.per_case_seconds.append(time.perf_counter() - t_start)
    report.add_verdict("mehler_residual", "mehler_residual",
                       tol["mehler_residual"], worst_final,
                       worst_final <= tol["mehler_residual"])
    report.add_verdict("mehler_refinement_monotone", "refinement_noise",
                       tol["refinement_noise"], 0.0 if all_monotone else 1.0,
                       all_monotone)
    return report


def _product_spectrum_error(model_op, csq, gamma):
    ev_model = np.sort(model_op.eigenvalues())
    mu = np.linalg.eigvalsh(csq.matrix)
    products = np.sort(np.outer(mu, gamma.kappa_sq).ravel())
    return float(np.abs(ev_model - products).max()), float(ev_model[-1]), \
        float(mu.max() * gamma.kappa_sq.max())


def _fill_gap_statistic(eigenvalues: np.ndarray, top: float) -> float:
    """Largest gap between consecutive model eigenvalues on [0, 0.95 top],
    relative to top: how densely the discretization fills its band (a
    reported diagnostic; the band edge itself fills logarithmically)."""
    if top <= 0:
        return 0.0
    inner = np.sort(eigenvalues[(eigenvalues >= 0.0)
                                & (eigenvalues <= 0.95 * top)])
    if inner.size < 2:
        return 1.0
    return float(np.diff(inner).max() / top)


def run_model_spectrum(config: ExperimentConfig) -> ExperimentReport:
    """Product-spectrum identity for the squared-kernel x scattering-factor
    model, with both a synthetic unitary and one computed from the benchmark
    potential near threshold."""
    report = _new_report(config)
    g, tol = config.grids, config.tolerances
    a, n = float(g["a"]), int(g["n"])
    csq = carleman.carleman_squared(a, n)

    t_start = time.perf_counter()
    phases = [float(p) for p in g["synthetic_phases"]]
    s0 = np.diag(np.exp(1j * np.array(phases)))
    gam = carleman.gamma_matrix(s0)
    model = carleman.model_operator(csq, gam)
    err, top, expected_top = _product_spectrum_error(model, csq, gam)
    report.records.append({
        "case": "synthetic", "n": n, "dim": gam.dim,
        "kappa_sq_max": float(gam.kappa_sq.max()),
        "product_error": err, "top_eigenvalue": top,
        "expected_top": expected_top,
        "fill_gap": _fill_gap_statistic(model.eigenvalues(), top),
    })
    report.per_case_seconds.append(time.perf_counter() - t_start)
    report.add_verdict("product_identity_synthetic", "product_identity",
                       tol["product_identity"], err,
                       err <= tol["product_identity"])

    if config.potential is not None:
        t_start = time.perf_counter()
        pot = potential_from_dict(config.potential)
        lam = float(config.lambda_grid[0])
        s = scattering.s_matrix_ode(pot, lam)
        gam = carleman.gamma_matrix(s.matrix, unitarity_tol=tol["unitarity"])
        phases_set = scattering.eigenphases(s)
        model = carleman.model_operator(csq, gam)
        err, top, expected_top = _product_spectrum_error(model, csq, gam)
        kappa_match = float(np.abs(np.sort(gam.kappa_sq)
                                   - np.sort(phases_set.kappas ** 2)).max())
        report.records.append({
            "case": "computed", "n": n, "dim": gam.dim,
            "lambda": lam, "kappa_sq_max": float(gam.kappa_sq.max()),
            "kappa_identity_error": kappa_match,
            "product_error": err, "top_eigenvalue": top,
            "expected_top": expected_top,
            "fill_gap": _fill_gap_statistic(model.eigenvalues(), top),
        })
        report.per_case_seconds.append(time.perf_counter() - t_start)
        report.add_verdict("product_identity_computed", "product_identity",
                           tol["product_identity"], err,
                           err <= tol["product_identity"])
        report.add_verdict("kappa_sq_identity", "product_identity",
                           tol["product_identity"], kappa_match,
                           kappa_match <= tol["product_identity"])
    return report


def _nudge_level(box, lam: float) -> float:
    """Move the Fermi level by half the local free-level spacing (used when
    it collides with a box eigenvalue)."""
    levels = schrodinger1d.free_levels(box)
    i = int(np.searchsorted(levels, lam))
    i = min(max(i, 1), levels.size - 1)
    return lam + 0.5 * (levels[i] - levels[i - 1])


def _with_level_nudge(fn, box, lam: float, record: dict):
    for _ in range(3):
        try:
            return fn(lam)
        except LevelCollisionError:
            lam = _nudge_level(box, lam)
            record["lambda_nudged_to"] = lam
    return fn(lam)


def _run_cases(fn, cases, jobs: int, seconds: list) -> list:
    """``fn`` over ``cases`` in order, on ``jobs`` threads when jobs > 1;
    appends each case's own wall time to ``seconds`` either way."""
    def timed(case):
        t_case = time.perf_counter()
        out = fn(case)
        return out, time.perf_counter() - t_case
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(timed, cases))
    else:
        done = [timed(case) for case in cases]
    seconds.extend(dt for _, dt in done)
    return [out for out, _ in done]


# An eigenvalue of D or M+- counts as pinned at +-1 within this distance.
PIN_TOL = 1e-9


def _unpin(ev: np.ndarray, target: float, allowance: int) -> np.ndarray:
    """``ev`` without up to ``allowance`` eigenvalues within PIN_TOL of
    ``target``: the eigenvalues the index of the pair explains."""
    pinned = np.flatnonzero(np.abs(ev - target) <= PIN_TOL)[:allowance]
    return np.delete(ev, pinned)


def _confinement(spectra, kappa_max: float, margin: float) -> dict:
    """Index-explained confinement of one box's spectra.

    With j = rank P - rank P0, the pair (P, P0) forces |j| eigenvalues of D
    at sign(j) (Avron-Seiler-Simon) and as many eigenvalues of M+ (j > 0) or
    M- (j < 0) at 1; "at" means within PIN_TOL.  Those are removed, and
    ``unexplained`` counts what is left beyond kappa_max + margin (D) or
    kappa_max**2 + margin (M+-).  The trace identity forces the pins to
    exist, so a pin that drifted from +-1 is counted here too.  ``d_max``
    and ``m_max`` are the largest |eig D| and eig M+- that are not pinned.
    """
    j = spectra.rank_p - spectra.rank_p0
    d = _unpin(spectra.d_full, float(np.sign(j)), abs(j))
    mp = _unpin(spectra.m_plus, 1.0, max(j, 0))
    mm = _unpin(spectra.m_minus, 1.0, max(-j, 0))
    m = np.concatenate([mp, mm])
    return {
        "unexplained": int(np.sum(np.abs(d) > kappa_max + margin)
                           + np.sum(m > kappa_max ** 2 + margin)),
        "d_max": float(np.abs(d).max()) if d.size else 0.0,
        "m_max": float(m.max()) if m.size else 0.0,
    }


def _band_case(pot, lam, L, n, kappas, tol):
    """One box: its record, and its confinement (kept out of the record)."""
    box = schrodinger1d.BoxDiscretization(L, n)
    note = {}
    spectra = _with_level_nudge(
        lambda level: schrodinger1d.band_spectra(box, pot, level),
        box, lam, note)
    kappa_max = float(kappas.max())
    ev = spectra.d_full
    margin = tol["edge_margin"]
    overflow = int(np.sum(np.abs(ev) > kappa_max + margin))
    eps = tol["coverage_margin"] * kappa_max
    inner = np.sort(ev[(ev > -kappa_max + eps) & (ev < kappa_max - eps)])
    gap = float(np.diff(inner).max()) if inner.size > 1 else 2.0 * kappa_max
    mp, mm = spectra.m_plus, spectra.m_minus
    rec = {
        "case": "box", "L": float(L), "n": int(n), "lambda": float(lam),
        "lambda_effective": note.get("lambda_nudged_to", float(lam)),
        "kappa_max": kappa_max,
        "rank_p": spectra.rank_p, "rank_p0": spectra.rank_p0,
        "trace_d": spectra.trace_d,
        "max_abs_eig_d": float(np.abs(ev).max()),
        "max_abs_eig_in_band": float(np.abs(ev[np.abs(ev) <= kappa_max + margin]).max()),
        "band_fill_ratio": float(np.abs(ev).max()) / kappa_max,
        "edge_overflow_count": overflow,
        "coverage_gap": gap,
        "m_plus_max": float(mp.max()) if mp.size else 0.0,
        "m_minus_max": float(mm.max()) if mm.size else 0.0,
        "m_plus_overflow": int(np.sum(mp > kappa_max ** 2 + margin)),
        "m_minus_overflow": int(np.sum(mm > kappa_max ** 2 + margin)),
    }
    return rec, _confinement(spectra, kappa_max, margin)


def run_band_filling(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Band statistics of D(lambda) and of the compressions M+- across a
    growing sequence of boxes, judged against the scattering-matrix bands.

    ``edge_overflow`` counts every eigenvalue beyond the band edge, the ones
    pinned at +-1 by the index rank P - rank P0 included; ``bulk_confinement``
    counts only those the index does not explain (see :func:`_confinement`).
    ``edge_deficit`` and ``m_pm_top_deficit`` compare the largest eigenvalue
    of the last box that is not index-pinned with kappa_max and kappa_max**2.
    """
    report = _new_report(config)
    tol = config.tolerances
    pot = potential_from_dict(config.potential)
    lam = float(config.lambda_grid[0])

    s = scattering.s_matrix_ode(pot, lam)
    kappas = scattering.eigenphases(s).kappas
    if kappas.size == 0:
        report.records.append({"case": "trivial", "lambda": lam,
                               "kappa_max": 0.0})
        report.add_verdict("edge_overflow", "edge_margin", tol["edge_margin"],
                           0.0, True)
        return report
    kappa_max = float(kappas.max())

    boxes = _run_cases(
        lambda Ln: _band_case(pot, lam, Ln[0], Ln[1], kappas, tol),
        config.box_sequence, jobs, report.per_case_seconds)
    recs = [rec for rec, _ in boxes]
    confined = [conf for _, conf in boxes]
    report.records.extend(recs)

    overflow_total = sum(r["edge_overflow_count"] + r["m_plus_overflow"]
                         + r["m_minus_overflow"] for r in recs)
    report.add_verdict("edge_overflow", "edge_margin", tol["edge_margin"],
                       overflow_total, overflow_total == 0)
    deficit = kappa_max - confined[-1]["d_max"]
    report.add_verdict("edge_deficit", "edge_deficit", tol["edge_deficit"],
                       deficit, abs(deficit) <= tol["edge_deficit"])
    noise = 1.0 + tol["gap_noise"]
    gaps = [r["coverage_gap"] for r in recs]
    monotone = all(gaps[i + 1] <= gaps[i] * noise for i in range(len(gaps) - 1))
    report.add_verdict("coverage_gap_monotone", "gap_noise", tol["gap_noise"],
                       0.0 if monotone else 1.0, monotone)
    sq_deficit = kappa_max ** 2 - confined[-1]["m_max"]
    report.add_verdict("m_pm_top_deficit", "edge_deficit", tol["edge_deficit"],
                       sq_deficit, abs(sq_deficit) <= tol["edge_deficit"])
    unexplained = sum(conf["unexplained"] for conf in confined)
    report.add_verdict("bulk_confinement", "edge_margin", tol["edge_margin"],
                       unexplained, unexplained == 0)
    return report


def run_birman_krein(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Scattering-determinant versus smeared-counting comparison over an
    energy grid, with branch tracking for the continuity check."""
    report = _new_report(config)
    tol = config.tolerances
    pot = potential_from_dict(config.potential)
    L, n = config.box_sequence[-1]
    box = schrodinger1d.BoxDiscretization(L, n)
    lams = [float(x) for x in config.lambda_grid]

    nudges = [dict() for _ in lams]

    def one(pair):
        lam, note = pair
        def attempt(level):
            s = scattering.s_matrix_ode(pot, level)
            return scattering.birman_krein_value(pot, level, box, s=s)
        return _with_level_nudge(attempt, box, lam, note)

    vals = _run_cases(one, zip(lams, nudges), jobs, report.per_case_seconds)

    # Branch tracking: shift each value by an integer to follow its
    # predecessor, so jumps measure genuine discontinuity, not mod-1 wraps.
    unwrapped = [vals[0]]
    for v in vals[1:]:
        unwrapped.append(v + round(unwrapped[-1] - v))
    residuals = [abs(v - round(v)) for v in vals]
    jumps = [abs(b - a) for a, b in zip(unwrapped[:-1], unwrapped[1:])]

    for lam, val, res, note in zip(lams, vals, residuals, nudges):
        report.records.append({
            "case": "energy", "lambda": lam,
            "lambda_effective": note.get("lambda_nudged_to", lam),
            "L": float(L), "n": int(n), "bk_value": val, "residual": res,
        })
    worst = max(residuals)
    report.add_verdict("bk_residual", "bk_residual", tol["bk_residual"],
                       worst, worst <= tol["bk_residual"])
    worst_jump = max(jumps) if jumps else 0.0
    report.add_verdict("bk_continuity", "bk_continuity", tol["bk_continuity"],
                       worst_jump, worst_jump <= tol["bk_continuity"])
    return report


_RUNNERS = {
    "SpecfunAudit": run_specfun_audit,
    "CarlemanMehler": run_carleman_mehler,
    "ModelSpectrum": run_model_spectrum,
    "BandFilling": run_band_filling,
    "BirmanKrein": run_birman_krein,
}


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    runner = _RUNNERS[config.experiment]
    if config.experiment in ("BandFilling", "BirmanKrein"):
        return runner(config, jobs=jobs)
    return runner(config)
