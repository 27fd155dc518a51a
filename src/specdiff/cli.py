"""Command-line entry point.

Subcommands map to the experiment campaigns plus ad-hoc evaluation:

    specfun   special-function audit (seam consistency, bound stability)
    carleman  kernel-operator spectrum and eigenfunction residual campaign
    model     model-operator product-spectrum campaign
    scatter   scattering matrix for one potential and energy (both routes)
    dspec     projection-difference band-filling campaign
    verify    the full acceptance suite, one pass/fail line per criterion
    bk        Birman-Krein identity campaign

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 configuration or
usage error (a report that cannot be written included), 3 numerical failure
(non-convergence, singular system).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import acceptance, experiments, scattering
from .errors import ConfigError, ConvergenceError, DomainError, SingularOperatorError, StepSizeError

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3

_CAMPAIGN_BY_COMMAND = {
    "specfun": "SpecfunAudit",
    "carleman": "CarlemanMehler",
    "model": "ModelSpectrum",
    "dspec": "BandFilling",
    "bk": "BirmanKrein",
}


def _potential_flags() -> dict:
    """Every potential parameter, name -> int or float: one ``scatter``
    flag each, which takes the potential class's default when left out."""
    return {name: typ for kind in experiments.POTENTIALS
            for name, typ in experiments.potential_parameters(kind).items()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdiff",
        description="Numerical experiments on spectral-projection differences")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (campaign defaults if omitted)")
        p.add_argument("--out", help="report output path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--quiet", action="store_true")

    for cmd in _CAMPAIGN_BY_COMMAND:
        common(sub.add_parser(cmd))

    sc = sub.add_parser("scatter", help="ad-hoc scattering matrix evaluation")
    sc.add_argument("--potential", default="square_well",
                    choices=tuple(experiments.POTENTIALS))
    for name, typ in _potential_flags().items():
        sc.add_argument("--" + name.replace("_", "-"), type=typ)
    sc.add_argument("--energy", type=float, required=True)
    sc.add_argument("--quiet", action="store_true")

    ver = sub.add_parser("verify", help="run the full acceptance suite")
    ver.add_argument("--out", help="aggregate report output path")
    ver.add_argument("--format", choices=("json", "csv"), default="json")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--quiet", action="store_true")
    return parser


def _load_config(args, campaign: str) -> experiments.ExperimentConfig:
    if args.config:
        cfg = experiments.config_from_json(args.config)
        if cfg.experiment != campaign:
            raise ConfigError(
                f"config is for {cfg.experiment}, but this subcommand runs {campaign}")
    else:
        cfg = experiments.default_config(campaign)
    return cfg


def _emit(report, args) -> None:
    """Write ``report`` to ``args.out``; a path that cannot be written is a
    usage error (exit 2), not a failed verdict."""
    try:
        experiments.emit_report(report, args.format, args.out)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc


def _run_campaign(args) -> int:
    campaign = _CAMPAIGN_BY_COMMAND[args.command]
    cfg = _load_config(args, campaign)
    report = experiments.run_experiment(cfg)
    if args.out:
        _emit(report, args)
        if not args.quiet:
            print(f"report written to {args.out}")
    if not args.quiet:
        for v in report.verdicts:
            mark = "PASS" if v["passed"] else "FAIL"
            print(f"[{mark}] {v['name']}: observed {v['observed']:.6g} "
                  f"vs {v['tolerance_name']} = {v['tolerance']:.6g}")
    return EXIT_OK if report.passed else EXIT_VERDICT


def _potential_from_args(args) -> dict:
    return {"kind": args.potential,
            **{name: getattr(args, name) for name in _potential_flags()
               if getattr(args, name) is not None}}


def _run_scatter(args) -> int:
    pot = experiments.potential_from_dict(_potential_from_args(args))
    s_ode = scattering.s_matrix_ode(pot, args.energy)
    s_stat, ops = scattering.s_matrix_stationary(pot, args.energy,
                                                 return_operators=True)
    phases = scattering.eigenphases(s_ode)
    if not args.quiet:
        with np.printoptions(precision=10, suppress=False):
            print(f"energy {args.energy}, momentum {s_ode.momentum:.10g}")
            print("S (ODE route):")
            print(s_ode.matrix)
            print(f"unitarity defect: ode {s_ode.unitarity_defect:.3e}, "
                  f"stationary {s_stat.unitarity_defect:.3e}")
            print(f"cross-method |S_ode - S_stationary|: "
                  f"{np.linalg.norm(s_ode.matrix - s_stat.matrix):.3e}")
            trail = ", ".join(f"{n}: {d:.3e}" for n, d in ops.refinement)
            print(f"stationary route: {ops.nodes.size} nodes, condition "
                  f"number {ops.condition_number:.3e}, refinement "
                  f"(nodes: |dS|) {trail}")
            print(f"eigenphases: {phases.thetas}")
            print(f"band radii kappa_n: {phases.kappas}")
    return EXIT_OK


def _run_verify(args) -> int:
    results = acceptance.run_all(seed=args.seed)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] criterion {r.index}: {r.title} "
              f"({r.elapsed:.1f}s): {r.detail}")
    if args.out:
        # Elapsed times live in the timing block so that repeated verify
        # runs with one seed emit byte-identical reports apart from it.
        report = experiments.ExperimentReport(
            experiment="verify",
            config={"seed": args.seed},
            records=[{"criterion": r.index, "title": r.title,
                      "passed": r.passed, "detail": r.detail}
                     for r in results],
            verdicts=[v for r in results for v in r.verdicts],
            per_case_seconds=[r.elapsed for r in results],
        )
        _emit(report, args)
        if not args.quiet:
            print(f"aggregate report written to {args.out}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERDICT


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "scatter":
            return _run_scatter(args)
        return _run_campaign(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, SingularOperatorError, StepSizeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    raise SystemExit(main())
