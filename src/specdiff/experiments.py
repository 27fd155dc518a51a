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
doubles exactly.  CSV output is one row per record in record order; its
columns are the union of record keys in first-seen order, a cell empty
where its record lacks the key.  The record keys, in order:

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

Each verdict's rule and the tolerance it cites.  ``<=`` is
:meth:`ExperimentReport.at_most`: the verdict passes when its observed
value is at most the very tolerance it cites.  A count (``== 0``) or a
0/1 flag (0 passes) cites the tolerance its observed value is computed
with: ``edge_margin`` places the band edges the counts look beyond, and
``refinement_noise`` and ``gap_noise`` are the growth a monotone sequence
may show from one step to the next.

    SpecfunAudit    seam_consistency            <=      seam_consistency
                    branch_realness             <=      imag_residual
                    bound_stability_uniform     <=      bound_growth
                    bound_stability_holder      <=      bound_growth
    CarlemanMehler  spectrum_lower (-min_eig)   <=      spectrum_margin
                    spectrum_upper (max_eig-1)  max_eig <= 1 + spectrum_margin
                    top_eigenvalue (max_eig)    >=      top_eigenvalue_min
                    scaling_invariance          <=      scaling_agreement
                    mehler_residual             <=      mehler_residual
                    mehler_refinement_monotone  flag    refinement_noise
    ModelSpectrum   product_identity_synthetic  <=      product_identity
                    product_identity_computed   <=      product_identity
                    kappa_sq_identity           <=      product_identity
    BandFilling     edge_overflow               == 0    edge_margin
                    edge_deficit                |.| <=  edge_deficit
                    coverage_gap_monotone       flag    gap_noise
                    m_pm_top_deficit            |.| <=  edge_deficit
                    bulk_confinement            == 0    edge_margin
    BirmanKrein     bk_residual                 <=      bk_residual
                    bk_continuity               <=      bk_continuity
"""

from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import numbers
import sys
import time
import typing
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import carleman, scattering, schrodinger1d, specfun
from .errors import ConfigError, DomainError, LevelCollisionError

__all__ = [
    "CAMPAIGNS",
    "ExperimentConfig",
    "ExperimentReport",
    "default_config",
    "config_from_dict",
    "config_from_json",
    "POTENTIALS",
    "potential_parameters",
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

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """A campaign's inputs.  A field its campaign does not read keeps its
    empty default; :func:`default_config` gives each campaign's defaults."""
    experiment: str
    potential: dict | None = None
    lambda_grid: tuple = ()
    box_sequence: tuple = ()     # of (L, n) pairs
    grids: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

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


def _number(value, key: str) -> float:
    """A finite JSON number (not a boolean; json reads NaN and Infinity) as
    a float, else a ConfigError naming the key.  The range test is exact
    for integers beyond the float range too."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, key: str) -> int:
    if not _number(value, key).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _list(value, key: str, default, entries: str) -> list:
    """A list, empty only where the ``default`` list is (a campaign judged
    over no case would crash or pass vacuously), and of one entry where the
    default holds one (the campaign reads that one only)."""
    if not isinstance(value, (list, tuple)) or (default and not value):
        raise ConfigError(f"{key} must be a list of {entries}"
                          f"{', not empty' if default else ''}, got {value!r}")
    if len(default) == 1 and len(value) != 1:
        raise ConfigError(f"{key} must hold exactly one entry, got {value!r}")
    return value


def _number_list(value, key: str, default) -> list:
    return [_number(v, f"{key}[{i}]")
            for i, v in enumerate(_list(value, key, default, "numbers"))]


def _mapping(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    return value


# The potential kinds of a config.  A kind's keys, their types and their
# defaults are the dataclass fields of its class.
POTENTIALS = {
    "square_well": schrodinger1d.SquareWell,
    "poschl_teller": schrodinger1d.PoschlTeller,
    "gaussian": schrodinger1d.GaussianBump,
}


def potential_parameters(kind: str) -> dict:
    """The parameters of a potential kind, name -> int or float."""
    cls = POTENTIALS[kind]
    types = typing.get_type_hints(cls)
    return {f.name: types[f.name] for f in dataclasses.fields(cls)}


def potential_from_dict(d: dict) -> schrodinger1d.Potential:
    """The potential a config names: its ``kind`` and any of the kind's
    parameters; a parameter left out takes the class default."""
    _mapping(d, "potential")
    if "kind" not in d:
        raise ConfigError("potential config needs a 'kind' field")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in POTENTIALS:
        raise ConfigError(f"unknown potential kind {kind!r}; "
                          f"choose one of {sorted(POTENTIALS)}")
    params = potential_parameters(kind)
    unknown = set(d) - set(params) - {"kind"}
    if unknown:
        raise ConfigError(f"unknown potential keys {sorted(unknown)} for kind {kind!r}")
    return POTENTIALS[kind](**{
        key: (_integer if params[key] is int else _number)(
            value, f"potential {key!r}")
        for key, value in d.items() if key != "kind"})


def default_config(experiment: str) -> ExperimentConfig:
    """The benchmark configuration of a campaign: its row's defaults."""
    if not isinstance(experiment, str) or experiment not in _CAMPAIGNS:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose one of {CAMPAIGNS}")
    return ExperimentConfig(experiment, **copy.deepcopy(_CAMPAIGNS[experiment][1]))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a JSON-style dict.  The campaign's defaults are
    its schema: a key they do not hold is a hard error (misspellings and
    values the campaign would ignore must not pass silently), unless it is
    ``seed`` or holds the empty value of the report's config echo (``null``,
    ``[]`` or ``{}``); a key left out takes its default.  A value of the wrong
    JSON type, a number that is not finite, an empty list where the default
    list is not, a list of other than one entry where the default holds one,
    a grid count (a ``grids`` entry whose default is an integer or a list of
    integers) that is not a positive integer, a ``window`` that is not a
    pair in (0, 1], and a non-empty ``lambda_grid`` with a null ``potential``
    (ModelSpectrum's synthetic-only run reads no energy) are each a
    ConfigError that names the key."""
    if "experiment" not in raw:
        raise ConfigError("config needs an 'experiment' field")
    base = default_config(raw["experiment"])
    reads = {"experiment", "seed", *_CAMPAIGNS[base.experiment][1]}
    empty = ExperimentConfig(base.experiment).as_dict()
    unread = [key for key, val in raw.items()
              if key not in reads and (key not in empty or val != empty[key])]
    if unread:
        raise ConfigError(f"{base.experiment} does not read config keys "
                          f"{unread}; it reads {sorted(reads)}")
    pot = raw.get("potential", base.potential)
    if pot is None:
        # With no potential there is no energy: lambda_grid is read only
        # with a potential, so here it must be empty and is echoed empty.
        if raw.get("lambda_grid", []) != []:
            raise ConfigError(f"lambda_grid is read only with a potential; "
                              f"with potential null it must be empty, got "
                              f"{raw['lambda_grid']!r}")
        lambda_grid = ()
    else:
        potential_from_dict(pot)  # validate keys eagerly
        lambda_grid = tuple(_number_list(raw.get("lambda_grid", base.lambda_grid),
                                         "lambda_grid", base.lambda_grid))
    grids = dict(base.grids)
    for key, val in _mapping(raw.get("grids", {}), "grids").items():
        if key not in base.grids:
            raise ConfigError(f"unknown grids key {key!r} for {base.experiment}; "
                              f"allowed: {sorted(base.grids)}")
        # A grid entry keeps the JSON type of its default: a list of numbers
        # or a number.
        default, name = base.grids[key], f"grids {key!r}"
        if isinstance(default, list):
            values = _number_list(val, name, default)
            if key == "window" and not (
                    len(values) == 2 and all(0.0 < v <= 1.0 for v in values)):
                raise ConfigError(f"grids 'window' must be a pair [lo, hi] "
                                  f"in (0, 1], got {val!r}")
        else:
            default, values = [default], [_number(val, name)]
        # A count: its default is an integer or a list of integers.
        if all(type(d) is int for d in default) and not all(
                v > 0 and v.is_integer() for v in values):
            raise ConfigError(f"{name} must hold positive integers, got {val!r}")
        grids[key] = val
    tolerances = dict(base.tolerances)
    for key, val in _mapping(raw.get("tolerances", {}), "tolerances").items():
        if key not in base.tolerances:
            raise ConfigError(f"unknown tolerance {key!r} for {base.experiment}; "
                              f"allowed: {sorted(base.tolerances)}")
        tolerances[key] = _number(val, f"tolerance {key!r}")
        if not tolerances[key] > 0:
            raise ConfigError(f"tolerance {key!r} must be positive, got {val}")
    boxes = _list(raw.get("box_sequence", base.box_sequence), "box_sequence",
                  base.box_sequence, "[L, n] pairs")
    if not all(isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in boxes):
        raise ConfigError(f"box_sequence must be a list of [L, n] pairs, got {boxes!r}")
    boxes = tuple((_number(L, "box_sequence L"), _integer(n, "box_sequence n"))
                  for L, n in boxes)
    if any(b[0] <= a[0] for a, b in zip(boxes, boxes[1:])):
        raise ConfigError("box_sequence must be strictly increasing in L")
    return ExperimentConfig(
        experiment=base.experiment,
        potential=pot,
        lambda_grid=lambda_grid,
        box_sequence=boxes,
        grids=grids,
        tolerances=tolerances,
        seed=_integer(raw.get("seed", base.seed), "seed"),
    )


def config_from_json(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:   # JSON and UTF-8 decode errors
        raise ConfigError(f"config file {path} cannot be read as JSON: {exc}") from exc
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
    created_at: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat())
    format_version: int = FORMAT_VERSION

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def add_verdict(self, name: str, tolerance_name: str, observed: float,
                    passed: bool):
        """Record a verdict judged against the config's tolerance
        ``tolerance_name``, whose value the verdict cites."""
        self.verdicts.append({
            "name": name, "tolerance_name": tolerance_name,
            "tolerance": float(self.config["tolerances"][tolerance_name]),
            "observed": float(observed), "passed": bool(passed),
        })

    def at_most(self, name: str, tolerance_name: str, observed: float):
        """Record a verdict that passes when ``observed`` is at most the
        config's tolerance ``tolerance_name``: the tolerance it cites is, by
        construction, the one it is judged against."""
        self.add_verdict(name, tolerance_name, observed,
                         observed <= self.config["tolerances"][tolerance_name])

    @contextlib.contextmanager
    def case(self):
        """Time the block as one case: its wall time joins
        ``per_case_seconds``."""
        start = time.perf_counter()
        yield
        self.per_case_seconds.append(time.perf_counter() - start)


def _new_report(config: ExperimentConfig) -> ExperimentReport:
    return ExperimentReport(
        experiment=config.experiment, config=config.as_dict())


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
        text = "%.17g" % x
        # An integral float such as 1.0 must read back as a float, not 1.
        return text if "." in text or "e" in text else text + ".0"
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
    """One row per record, the columns the union of record keys in
    first-seen order, empty where a record lacks the key; a string cell
    holding a comma, a double quote or a newline is quoted (RFC 4180)."""
    if not report.records:
        return ""
    columns = list(dict.fromkeys(key for rec in report.records for key in rec))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
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
        writer.writerow(cells)
    return out.getvalue()


def emit_report(report: ExperimentReport, fmt: str, path) -> None:
    """Write the report as a single JSON document or as CSV rows."""
    fmt = fmt.lower()
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown report format {fmt!r}; use json or csv")
    text = report_json(report) if fmt == "json" else report_csv(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --- campaigns ---------------------------------------------------------------

def run_specfun_audit(config: ExperimentConfig) -> ExperimentReport:
    """Seam consistency of the two conical representations plus the empirical
    decay/Hoelder bound audit under sample doubling.

    ``branch_realness`` takes the larger imaginary residual of the two forms
    on the seam grid.  The two-branch form's residual is 0 by construction
    (it takes twice the real part of one of its two conjugate branches), so
    the verdict only sees the near-one form.
    """
    report = _new_report(config)
    g = config.grids

    with report.case():
        ts = np.asarray(g["seam_t"], dtype=float)
        xs = np.linspace(g["seam_x_lo"], g["seam_x_hi"], int(g["seam_points"]))
        near, near_imag = specfun.conical_p_near_one(ts[:, None], xs)
        far, far_imag = specfun.conical_p_far_branch(ts[:, None], xs)
        diffs = np.max(np.abs(near - far), axis=1)
        imags = np.maximum(np.max(near_imag, axis=1), np.max(far_imag, axis=1))
        for t, diff_t, imag_t in zip(ts, diffs.tolist(), imags.tolist()):
            report.records.append({
                "case": "seam", "t": float(t), "x_lo": float(g["seam_x_lo"]),
                "x_hi": float(g["seam_x_hi"]), "points": int(g["seam_points"]),
                "max_branch_diff": diff_t, "max_imag_residual": imag_t,
            })
    report.at_most("seam_consistency", "seam_consistency", diffs.max())
    report.at_most("branch_realness", "imag_residual", imags.max())

    n_x = int(g["bound_samples"])
    sups = []
    with report.case():
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
        if a == 0.0:
            raise DomainError(
                f"SpecfunAudit: the {name} sup on the bound grid is 0, so its "
                "growth is undefined; widen grids.bound_t_max, bound_x_max, "
                "bound_samples or bound_n_t")
        report.at_most(f"bound_stability_{name}", "bound_growth",
                       abs(b - a) / a)
    return report


def run_carleman_mehler(config: ExperimentConfig) -> ExperimentReport:
    """Spectrum containment and scaling invariance of the half-Carleman
    discretization, plus the generalized-eigenfunction residual under mesh
    refinement."""
    report = _new_report(config)
    g, tol = config.grids, config.tolerances
    a, n, order = float(g["a"]), int(g["n"]), int(g["order"])
    if n % order:
        raise ConfigError(f"grids 'n' = {n} must be a multiple of "
                          f"grids 'order' = {order}")

    with report.case():
        ev, ev2 = (carleman.half_carleman(carleman.composite_graded_grid(
            scale, panels=n // order, order=order)).eigenvalues()
            for scale in (a, 2.0 * a))
        scaling = float(np.abs(ev - ev2).max())
        report.records.append({
            "case": "spectrum", "a": a, "n": n, "min_eig": float(ev[0]),
            "max_eig": float(ev[-1]), "scaling_disagreement": scaling,
        })
    report.at_most("spectrum_lower", "spectrum_margin", -ev[0])
    report.add_verdict("spectrum_upper", "spectrum_margin",
                       ev[-1] - 1.0, ev[-1] <= 1.0 + tol["spectrum_margin"])
    report.add_verdict("top_eigenvalue", "top_eigenvalue_min", ev[-1],
                       ev[-1] >= tol["top_eigenvalue_min"])
    report.at_most("scaling_invariance", "scaling_agreement", scaling)

    window = g["window"]
    xs = np.linspace(window[0] * a, window[1] * a, int(g["window_points"]))
    # One pass over every t per panel count; the records stay t-major.
    ts = np.asarray(g["mehler_t"], dtype=float)
    panel_counts = [int(p) for p in g["mehler_panels"]]
    nodes, by_panels = [], []
    for panels in panel_counts:
        with report.case():
            grid = carleman.composite_graded_grid(a, panels=panels, order=order)
            by_panels.append(carleman.mehler_residual(a, ts, grid, xs).max(axis=1))
            nodes.append(grid.n)
    resids = np.column_stack(by_panels)    # t by panel count
    for t, row in zip(ts, resids.tolist()):
        for panels, n_nodes, r in zip(panel_counts, nodes, row):
            report.records.append({
                "case": "mehler", "t": float(t), "panels": panels,
                "nodes": n_nodes, "max_rel_residual": r,
            })
    monotone = bool(np.all(
        resids[:, 1:] <= resids[:, :-1] * (1.0 + tol["refinement_noise"])))
    report.at_most("mehler_residual", "mehler_residual", resids[:, -1].max())
    report.add_verdict("mehler_refinement_monotone", "refinement_noise",
                       0.0 if monotone else 1.0, monotone)
    return report


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


def _model_tail(csq, mu, gam) -> dict:
    """The last keys of a ModelSpectrum record, for the model operator of
    ``csq`` and ``gam``: the error of the product identity against ``mu``
    times kappa_sq, the top eigenvalue, the top product and the fill gap
    (spectra ascend)."""
    ev = carleman.model_operator(csq, gam).eigenvalues()
    products = np.sort(np.outer(mu, gam.kappa_sq).ravel())
    top = float(ev[-1])
    return {"product_error": float(np.abs(ev - products).max()),
            "top_eigenvalue": top,
            "expected_top": float(mu[-1] * gam.kappa_sq.max()),
            "fill_gap": _fill_gap_statistic(ev, top)}


def run_model_spectrum(config: ExperimentConfig) -> ExperimentReport:
    """Product-spectrum identity for the squared-kernel x scattering-factor
    model, with both a synthetic unitary and one computed from the benchmark
    potential near threshold."""
    report = _new_report(config)
    g = config.grids
    a, n = float(g["a"]), int(g["n"])
    csq = carleman.carleman_squared(carleman.gauss_legendre_grid(a, n))
    mu = csq.eigenvalues()

    with report.case():
        phases = [float(p) for p in g["synthetic_phases"]]
        gam = carleman.gamma_matrix(np.diag(np.exp(1j * np.array(phases))))
        tail = _model_tail(csq, mu, gam)
        report.records.append({
            "case": "synthetic", "n": n, "dim": gam.dim,
            "kappa_sq_max": float(gam.kappa_sq.max()), **tail})
    report.at_most("product_identity_synthetic", "product_identity",
                   tail["product_error"])

    if config.potential is not None:
        with report.case():
            pot = potential_from_dict(config.potential)
            (lam,) = config.lambda_grid
            s = scattering.s_matrix_ode(pot, lam)
            gam = carleman.gamma_matrix(
                s.matrix, unitarity_tol=config.tolerances["unitarity"])
            kappas = scattering.eigenphases(s).kappas
            kappa_match = float(np.abs(np.sort(gam.kappa_sq)
                                       - np.sort(kappas ** 2)).max())
            tail = _model_tail(csq, mu, gam)
            report.records.append({
                "case": "computed", "n": n, "dim": gam.dim,
                "lambda": lam, "kappa_sq_max": float(gam.kappa_sq.max()),
                "kappa_identity_error": kappa_match, **tail})
        report.at_most("product_identity_computed", "product_identity",
                       tail["product_error"])
        report.at_most("kappa_sq_identity", "product_identity", kappa_match)
    return report


def _nudge_level(box, lam: float) -> float:
    """Move the Fermi level by half the local free-level spacing (used when
    it collides with a box eigenvalue)."""
    levels = schrodinger1d.free_levels(box)
    i = int(np.searchsorted(levels, lam))
    i = min(max(i, 1), levels.size - 1)
    return lam + 0.5 * (levels[i] - levels[i - 1])


MAX_NUDGES = 3   # times a Fermi level that hits a box eigenvalue is moved


def _nudge_levels(box, lam: float):
    """``lam``, then MAX_NUDGES levels, each the last one moved by
    ``_nudge_level``; lazy, so the free levels wait for a collision."""
    yield lam
    for _ in range(MAX_NUDGES):
        lam = _nudge_level(box, lam)
        yield lam


def _with_level_nudge(fn, box, lam: float):
    """(fn(level), level) at the first of ``_nudge_levels(box, lam)`` where
    fn raises no LevelCollisionError, so a record's ``lambda_effective`` is
    the level its values were computed at.  Any other error propagates at
    once, and so does a collision at the last level."""
    for level in _nudge_levels(box, lam):
        try:
            return fn(level), level
        except LevelCollisionError as exc:
            collision = exc
    raise collision


# An eigenvalue of D or M+- counts as pinned at +-1 within this distance.
PIN_TOL = 1e-9


def _band_case(pot, lam, L, n, kappa_max, tol):
    """One box: its record, and the largest |eig D| and eig M+- that the
    index does not pin, and the count of those beyond the band edge.

    With j = rank P - rank P0, the pair (P, P0) forces |j| eigenvalues of D
    at sign(j) (Avron-Seiler-Simon) and as many eigenvalues of M+ (j > 0) or
    M- (j < 0) at 1; "at" means within PIN_TOL.  The record's overflow
    counts take every eigenvalue beyond kappa_max + margin (D) or
    kappa_max**2 + margin (M+-), pins included; the returned maxima and
    count take what is left once the first |j| eigenvalues at each pin are
    removed.  The trace identity forces the pins to exist, so a pin that
    drifted from +-1 is counted there too.
    """
    box = schrodinger1d.BoxDiscretization(L, n)
    spectra, level = _with_level_nudge(
        lambda level: schrodinger1d.band_spectra(box, pot, level),
        box, float(lam))
    ev, mp, mm = spectra.d_full, spectra.m_plus, spectra.m_minus
    j, abs_ev = spectra.trace_d, np.abs(ev)
    d_edge = kappa_max + tol["edge_margin"]
    m_edge = kappa_max ** 2 + tol["edge_margin"]
    eps = tol["coverage_margin"] * kappa_max
    inner = ev[(ev > -kappa_max + eps) & (ev < kappa_max - eps)]   # ascending
    gap = float(np.diff(inner).max()) if inner.size > 1 else 2.0 * kappa_max
    rec = {
        "case": "box", "L": float(L), "n": int(n), "lambda": float(lam),
        "lambda_effective": level, "kappa_max": kappa_max,
        "rank_p": spectra.rank_p, "rank_p0": spectra.rank_p0,
        "trace_d": j,
        "max_abs_eig_d": float(abs_ev.max()),
        "max_abs_eig_in_band": float(abs_ev[abs_ev <= d_edge].max()),
        "band_fill_ratio": float(abs_ev.max()) / kappa_max,
        "edge_overflow_count": int(np.sum(abs_ev > d_edge)),
        "coverage_gap": gap,
        "m_plus_max": float(mp.max()) if mp.size else 0.0,
        "m_minus_max": float(mm.max()) if mm.size else 0.0,
        "m_plus_overflow": int(np.sum(mp > m_edge)),
        "m_minus_overflow": int(np.sum(mm > m_edge)),
    }
    d, mp, mm = (np.delete(x, np.flatnonzero(np.abs(x - pin) <= PIN_TOL)[:count])
                 for x, pin, count in ((ev, float(np.sign(j)), abs(j)),
                                       (mp, 1.0, max(j, 0)),
                                       (mm, 1.0, max(-j, 0))))
    d, m = np.abs(d), np.concatenate([mp, mm])
    return (rec, float(d.max()) if d.size else 0.0,
            float(m.max()) if m.size else 0.0,
            int(np.sum(d > d_edge) + np.sum(m > m_edge)))


def run_band_filling(config: ExperimentConfig) -> ExperimentReport:
    """Band statistics of D(lambda) and of the compressions M+- across a
    growing sequence of boxes, judged against the scattering-matrix bands.

    ``edge_overflow`` counts every eigenvalue beyond the band edge, the ones
    pinned at +-1 by the index rank P - rank P0 included; ``bulk_confinement``
    counts only those the index does not explain (see :func:`_band_case`).
    ``edge_deficit`` and ``m_pm_top_deficit`` compare the largest eigenvalue
    of the last box that is not index-pinned with kappa_max and kappa_max**2.
    """
    report = _new_report(config)
    tol = config.tolerances
    pot = potential_from_dict(config.potential)
    (lam,) = config.lambda_grid

    s = scattering.s_matrix_ode(pot, lam)
    kappas = scattering.eigenphases(s).kappas
    if kappas.size == 0:
        report.records.append({"case": "trivial", "lambda": lam,
                               "kappa_max": 0.0})
        report.add_verdict("edge_overflow", "edge_margin", 0.0, True)
        return report
    kappa_max = float(kappas.max())

    boxes = []
    for L, n in config.box_sequence:
        with report.case():
            boxes.append(_band_case(pot, lam, L, n, kappa_max, tol))
    recs = [rec for rec, *_ in boxes]
    report.records.extend(recs)
    _, d_max, m_max, _ = boxes[-1]

    overflow_total = sum(r["edge_overflow_count"] + r["m_plus_overflow"]
                         + r["m_minus_overflow"] for r in recs)
    report.add_verdict("edge_overflow", "edge_margin",
                       overflow_total, overflow_total == 0)
    deficit = kappa_max - d_max
    report.add_verdict("edge_deficit", "edge_deficit",
                       deficit, abs(deficit) <= tol["edge_deficit"])
    noise = 1.0 + tol["gap_noise"]
    gaps = [r["coverage_gap"] for r in recs]
    monotone = all(gaps[i + 1] <= gaps[i] * noise for i in range(len(gaps) - 1))
    report.add_verdict("coverage_gap_monotone", "gap_noise",
                       0.0 if monotone else 1.0, monotone)
    sq_deficit = kappa_max ** 2 - m_max
    report.add_verdict("m_pm_top_deficit", "edge_deficit",
                       sq_deficit, abs(sq_deficit) <= tol["edge_deficit"])
    unexplained = sum(count for *_, count in boxes)
    report.add_verdict("bulk_confinement", "edge_margin",
                       unexplained, unexplained == 0)
    return report


def run_birman_krein(config: ExperimentConfig) -> ExperimentReport:
    """Scattering-determinant versus smeared-counting comparison over an
    energy grid, with branch tracking for the continuity check."""
    report = _new_report(config)
    pot = potential_from_dict(config.potential)
    ((L, n),) = config.box_sequence
    box = schrodinger1d.BoxDiscretization(L, n)
    lams = [float(x) for x in config.lambda_grid]

    # One window of box levels serves every energy: its top is the top
    # energy's last nudged level.
    *_, top = _nudge_levels(box, max(lams))
    levels = schrodinger1d.box_levels(box, pot, min(lams), top)

    def attempt(level):
        s = scattering.s_matrix_ode(pot, level)
        return scattering.birman_krein_value(pot, level, box, s=s, levels=levels)

    runs = []
    for lam in lams:
        with report.case():
            runs.append(_with_level_nudge(attempt, box, lam))
    vals = [val for val, _ in runs]

    # Branch tracking: shift each value by an integer to follow its
    # predecessor, so jumps measure genuine discontinuity, not mod-1 wraps.
    unwrapped = [vals[0]]
    for v in vals[1:]:
        unwrapped.append(v + round(unwrapped[-1] - v))
    residuals = [abs(v - round(v)) for v in vals]
    jumps = [abs(b - a) for a, b in zip(unwrapped[:-1], unwrapped[1:])]

    for lam, (val, level), res in zip(lams, runs, residuals):
        report.records.append({
            "case": "energy", "lambda": lam, "lambda_effective": level,
            "L": float(L), "n": int(n), "bk_value": val, "residual": res,
        })
    report.at_most("bk_residual", "bk_residual", max(residuals))
    report.at_most("bk_continuity", "bk_continuity", max(jumps, default=0.0))
    return report


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    return _CAMPAIGNS[config.experiment][0](config)


def _boxes_for(half_lengths):
    """(L, n) of the boxes (-L, L) with grid spacing 0.02."""
    return tuple((float(L), schrodinger1d.BoxDiscretization.from_spacing(
        L, 0.02).n) for L in half_lengths)


_WELL = {"kind": "square_well", **dataclasses.asdict(schrodinger1d.SquareWell())}

# One row per campaign: its runner and the defaults of the config keys it
# reads (the benchmark configuration: a square well of depth -2 and
# half-width 1 wherever a potential is involved).
_CAMPAIGNS = {
    "SpecfunAudit": (run_specfun_audit, {
        "grids": {"seam_t": [0.0, 0.5, 1.0, 2.0], "seam_x_lo": 1.2,
                  "seam_x_hi": 2.8, "seam_points": 50,
                  "bound_t_max": 3.0, "bound_x_max": 1.0e4,
                  "bound_samples": 200, "bound_n_t": 62},
        "tolerances": {"seam_consistency": 1e-8, "imag_residual": 1e-10,
                       "bound_growth": 0.05}}),
    "CarlemanMehler": (run_carleman_mehler, {
        "grids": {"a": 1.0, "n": 400, "order": 10,
                  "mehler_t": [0.5, 1.0, 2.0], "mehler_panels": [20, 40, 80],
                  "window": [0.2, 0.8], "window_points": 13},
        "tolerances": {"spectrum_margin": 1e-8, "top_eigenvalue_min": 0.95,
                       "scaling_agreement": 1e-6, "mehler_residual": 1e-3,
                       "refinement_noise": 0.1}}),
    "ModelSpectrum": (run_model_spectrum, {
        "potential": _WELL, "lambda_grid": (0.25,),
        "grids": {"a": 1.0, "n": 120,
                  "synthetic_phases": [math.pi / 3.0, math.pi / 2.0]},
        "tolerances": {"product_identity": 1e-10, "unitarity": 1e-8}}),
    "BandFilling": (run_band_filling, {
        "potential": _WELL, "lambda_grid": (1.0,),
        "box_sequence": _boxes_for((50.0, 100.0, 200.0)),
        "tolerances": {"edge_margin": 0.02, "edge_deficit": 0.1,
                       "gap_noise": 0.1, "coverage_margin": 0.05}}),
    "BirmanKrein": (run_birman_krein, {
        "potential": _WELL, "lambda_grid": tuple(np.linspace(0.5, 2.0, 20)),
        "box_sequence": _boxes_for((200.0,)),
        "tolerances": {"bk_residual": 0.05, "bk_continuity": 0.2}}),
}

CAMPAIGNS = tuple(_CAMPAIGNS)
