"""Which specdiff functions the traced run wraps, and the per-layer metrics
derived from its spans.  NOTES.md maps each metric to the end-to-end
metric and workload it should move."""

from __future__ import annotations

import numpy as np

from specdiff import (acceptance, carleman, experiments, scattering,
                      schrodinger1d, specfun)
from workloads import VERIFY_CRITERIA

TRACED_MODULES = (specfun, carleman, schrodinger1d, scattering, experiments,
                  acceptance)
# complex_gamma runs about 730k times per verify pass; its time stays in
# the self time of the specfun function that called it.
SKIP = ("specfun.complex_gamma",)
CAMPAIGNS = experiments.CAMPAIGNS


def _campaign_span(args, kwargs) -> str:
    config = args[0] if args else kwargs["config"]
    return f"experiments.{config.experiment}"


def _potential_span(span: str):
    """Names a span after the potential kind, so a duration percentile
    never mixes the cheap square well with the costly Poschl-Teller well."""
    def namer(args, kwargs) -> str:
        potential = args[0] if args else kwargs["potential"]
        return f"{span}.{potential.kind}"
    return namer


def _count_nudges(tracer, args, kwargs, report) -> None:
    levels = [r for r in report.records if "lambda_effective" in r]
    tracer.count("level_cases", len(levels))
    tracer.count("level_nudges", sum(r["lambda_effective"] != r["lambda"]
                                     for r in levels))


def _count_final_nodes(tracer, args, kwargs, result) -> None:
    if isinstance(result, tuple):
        tracer.count("stationary_final_nodes", result[1].nodes.size)


def _count_vectors(tracer, args, kwargs, result) -> None:
    n, r = result[1].shape
    tracer.count("eigenvectors", r)
    tracer.count("eigenvector_mb", n * r * 8 / 1e6)


BY_POTENTIAL = ("scattering.s_matrix_stationary", "scattering.s_matrix_ode",
                "scattering.smeared_spectral_shift",
                "scattering.birman_krein_value")
NAMERS = {"experiments.run_experiment": _campaign_span,
          **{span: _potential_span(span) for span in BY_POTENTIAL}}
OBSERVERS = {"experiments.run_experiment": _count_nudges,
             "scattering.s_matrix_stationary": _count_final_nodes,
             "schrodinger1d.eigenpairs_below": _count_vectors}


def install(tracer) -> None:
    tracer.install(TRACED_MODULES, skip=SKIP, namers=NAMERS,
                   observers=OBSERVERS)
    tracer.install_sequence(acceptance, "CRITERIA", "acceptance.")


# (span, statistics) in report order; a span covers the spans named after
# it and a potential kind.  Statistics are
#   calls   spans per traced pass
#   self_s  self time per traced pass
#   pNN_ms  percentile of the span's duration over all traced passes; listed
#           only for one potential kind and where a workload calls it often
SPAN_METRICS = (
    ("scattering.s_matrix_stationary", ("calls", "self_s")),
    ("scattering.s_matrix_stationary.SquareWell", ("p50_ms",)),
    ("scattering.s_matrix_stationary.GaussianBump", ("p50_ms",)),
    ("scattering.s_matrix_ode", ("calls", "self_s")),
    ("scattering.s_matrix_ode.SquareWell", ("p50_ms", "p90_ms")),
    ("scattering.s_matrix_ode.GaussianBump", ("p50_ms",)),
    ("scattering.s_matrix_ode.PoschlTeller", ("p50_ms", "p90_ms")),
    ("scattering.smeared_spectral_shift", ("calls", "self_s")),
    ("scattering.smeared_spectral_shift.SquareWell", ("p50_ms", "p90_ms")),
    ("scattering.smeared_spectral_shift.PoschlTeller", ("p50_ms", "p90_ms")),
    ("scattering.birman_krein_value", ("calls", "self_s")),
    ("scattering.birman_krein_value.SquareWell", ("p50_ms", "p90_ms")),
    ("scattering.birman_krein_value.PoschlTeller", ("p50_ms", "p90_ms")),
    ("scattering.eigenphases", ("calls",)),
    ("schrodinger1d.eigenpairs_below", ("calls", "self_s")),
    ("schrodinger1d.band_spectra", ("calls", "self_s")),
    ("schrodinger1d.free_vectors", ("self_s",)),
    ("schrodinger1d.count_below", ("calls", "self_s")),
    ("schrodinger1d.eigenvalues_by_index", ("calls", "self_s")),
    ("schrodinger1d.hamiltonian_tridiagonal", ("calls", "self_s")),
    ("schrodinger1d.check_level_clear", ("calls", "self_s")),
    ("specfun.conical_p", ("calls", "self_s")),
    ("specfun.hyp2f1", ("calls", "self_s")),
    ("specfun.check_conical_bounds", ("self_s",)),
    ("specfun.conical_p_near_one", ("calls",)),
    ("specfun.conical_p_far_branch", ("calls",)),
    ("carleman.half_carleman", ("self_s",)),
    ("carleman.carleman_squared", ("self_s",)),
    ("carleman.model_operator", ("self_s",)),
    ("carleman.mehler_residual", ("calls", "self_s")),
) + tuple((f"experiments.{c}", ("runs", "self_s")) for c in CAMPAIGNS)

UNITS = {"calls": "count", "runs": "count", "self_s": "s", "p50_ms": "ms",
         "p90_ms": "ms"}

# Metrics not read off one span: name -> unit.
OTHER_METRICS = {
    "scattering.s_matrix_stationary.final_nodes": "count",
    "scattering.failed": "count",
    "scattering.cross_route_err": "1",
    "scattering.bk_residual_max": "1",
    "schrodinger1d.eigenpairs_below.vectors": "count",
    "schrodinger1d.eigenpairs_below.vector_mb": "MB",
    "schrodinger1d.check_level_clear.rejects": "count",
    "experiments.level_nudges": "1",
    **{f"acceptance.criterion_{i}.s": "s" for i in VERIFY_CRITERIA},
    "acceptance.campaign_runs": "count",
    "trace.overhead_s": "s",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {f"{span}.{stat}": UNITS[stat]
             for span, stats in SPAN_METRICS for stat in stats}
    units.update(OTHER_METRICS)
    return units


def _percentile_ms(durations: np.ndarray, pct: int) -> float:
    # Reported only with at least five samples beyond the percentile (p50
    # from 10 calls, p90 from 50); 0 marks too few samples.
    if durations.size * (100 - pct) < 500:
        return 0.0
    return float(np.percentile(durations, pct) * 1e3)


def derive(tracer, traced_passes: int, overhead_s: float,
           accuracy: dict) -> dict:
    """Per-layer metrics per traced pass, from the tracer's spans."""
    spans = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    per_pass = 1.0 / traced_passes
    values = {}

    def select(span):
        own = [i for name, i in ids.items()
               if name == span or name.startswith(span + ".")]
        return np.isin(spans["name_id"], own)

    for span, stats in SPAN_METRICS:
        mask = select(span)
        for stat in stats:
            if stat in ("calls", "runs"):
                value = int(mask.sum()) * per_pass
            elif stat == "self_s":
                value = float(spans["self_time"][mask].sum()) * per_pass
            else:
                value = _percentile_ms(spans["duration"][mask], int(stat[1:3]))
            values[f"{span}.{stat}"] = value

    def raised(prefix):
        scope = np.array([name.startswith(prefix) for name in tracer.names],
                         dtype=bool)
        return int((scope[spans["name_id"]] & (spans["raised"] == 1)).sum())

    counters = tracer.counters
    level_cases = counters.get("level_cases", 0.0)
    values.update({
        "scattering.s_matrix_stationary.final_nodes":
            counters.get("stationary_final_nodes", 0.0) * per_pass,
        "scattering.failed": raised("scattering.") * per_pass,
        "scattering.cross_route_err": accuracy.get("cross_route_err", 0.0),
        "scattering.bk_residual_max": accuracy.get("bk_residual_max", 0.0),
        "schrodinger1d.eigenpairs_below.vectors":
            counters.get("eigenvectors", 0.0) * per_pass,
        "schrodinger1d.eigenpairs_below.vector_mb":
            counters.get("eigenvector_mb", 0.0) * per_pass,
        "schrodinger1d.check_level_clear.rejects":
            raised("schrodinger1d.check_level_clear") * per_pass,
        "experiments.level_nudges":
            counters.get("level_nudges", 0.0) / level_cases if level_cases else 0.0,
        "acceptance.campaign_runs": _campaign_runs_in_acceptance(tracer, spans)
            * per_pass,
        "trace.overhead_s": overhead_s,
    })
    for i in VERIFY_CRITERIA:
        mask = select(f"acceptance.criterion_{i}")
        values[f"acceptance.criterion_{i}.s"] = \
            float(spans["duration"][mask].sum()) * per_pass
    units = metric_units()
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def _campaign_runs_in_acceptance(tracer, spans) -> int:
    """Campaign spans with an acceptance span among their ancestors."""
    names = tracer.names
    name_id, parent = spans["name_id"], spans["parent"]
    campaign_ids = {i for i, n in enumerate(names)
                    if n in {f"experiments.{c}" for c in CAMPAIGNS}}
    count = 0
    for idx in np.flatnonzero(np.isin(name_id, list(campaign_ids))):
        p = parent[idx]
        while p >= 0 and not names[name_id[p]].startswith("acceptance."):
            p = parent[p]
        count += p >= 0
    return count
