"""Self-test of the benchmark's own machinery: every workload check must
reject a wrong output, the tracer must restore what it patched, and the
metric names must match BENCHMARK.json.

    PYTHONPATH=src python3 perfbench/selftest.py

Takes a few seconds; exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
import time

import numpy as np

import layers
import run
import workloads
from specdiff import acceptance, experiments, scattering, schrodinger1d
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def failed(problems) -> int:
    """Number of failed cases in a list of per-case problem lists."""
    return sum(1 for p in problems if p)


def scatter_checks() -> None:
    pt = schrodinger1d.PoschlTeller(1)
    well = schrodinger1d.SquareWell()
    s_pt = scattering.s_matrix_ode(pt, 1.0).matrix
    s_well = scattering.s_matrix_ode(well, 1.0).matrix
    s_well_stat = scattering.s_matrix_stationary(well, 1.0).matrix
    good = [{"kind": "poschl_teller", "lambda": 1.0, "s_ode": s_pt, "s_stat": s_pt},
            {"kind": "square_well", "lambda": 1.0, "s_ode": s_well,
             "s_stat": s_well_stat}]
    expect(failed(workloads.check_pass("scatter", {}, good)) == 0,
           "scatter: program outputs pass")

    def broken(index, key, change):
        cases = copy.deepcopy(good)
        cases[index][key] = change(cases[index][key])
        return failed(workloads.check_pass("scatter", {}, cases))

    expect(broken(1, "s_stat", lambda s: s + 2e-3) == 1,
           "scatter: perturbed stationary S fails cross-route and unitarity")
    expect(broken(1, "s_ode", lambda s: s * (1 + 1e-7)) == 1,
           "scatter: ODE S off unitarity by 2e-7 fails")
    rotate = np.array([[math.cos(1e-7), -math.sin(1e-7)],
                       [math.sin(1e-7), math.cos(1e-7)]])
    expect(broken(0, "s_ode", lambda s: s @ rotate) == 1,
           "scatter: unitary Poschl-Teller S with reflection 1e-7 fails")
    expect(broken(0, "s_stat", lambda s: s * np.exp(2e-3j)) == 1,
           "scatter: Poschl-Teller transmission off (k+i)/(k-i) fails")
    expect(failed(workloads.check_pass(
        "scatter", {}, [{"kind": "gaussian", "error": "DomainError()"}])) == 1,
        "scatter: a raising case fails")


def counting_checks() -> None:
    lams = [0.5, 0.6, 0.7, 0.8]
    values = [0.01, 1.012, 0.015, -0.99]  # one branch up to integer wraps
    case = {"kind": "square_well", "lambdas": lams,
            "records": [{"lambda": lam, "bk_value": v}
                        for lam, v in zip(lams, values)]}
    expect(failed(workloads.check_counting_case(case)) == 0,
           "counting: residuals near integers on one branch pass")
    off = copy.deepcopy(case)
    off["records"][2]["bk_value"] = 0.08
    expect(failed(workloads.check_counting_case(off)) == 1,
           "counting: a residual of 0.08 fails its energy")
    jump = copy.deepcopy(case)
    jump["records"][2]["bk_value"] += 0.3
    problems = workloads.check_counting_case(jump)
    expect(len(problems[2]) == 2 and failed(problems) == 2,
           "counting: a value 0.3 off fails its residual and both jumps")
    expect(failed(workloads.check_counting_case({**case, "error": "x"})) == 4,
           "counting: a raising campaign fails every energy")


def box_bands_checks() -> None:
    reference = workloads.load_reference()
    verdicts = [{"name": n, "passed": False}
                for n in sorted(workloads.CRITERION_8_RED)]
    good = {"records": copy.deepcopy(reference), "verdicts": verdicts}
    expect(failed(workloads.check_box_bands_case(good, reference)) == 0,
           "box-bands: the reference records with red verdicts pass")
    changed = copy.deepcopy(good)
    changed["records"][3]["coverage_gap"] += 1e-6
    expect(failed(workloads.check_box_bands_case(changed, reference)) == 1,
           "box-bands: a box record changed by 1e-6 fails")
    changed = copy.deepcopy(good)
    changed["records"][0]["trace_d"] = 0
    expect(failed(workloads.check_box_bands_case(changed, reference)) == 1,
           "box-bands: trace_d != rank_p - rank_p0 fails")
    flipped = copy.deepcopy(good)
    flipped["verdicts"][0]["passed"] = True
    expect(failed(workloads.check_box_bands_case(flipped, reference)) == 1,
           "box-bands: a verdict flipped to green fails")


def verify_checks() -> None:
    good = [{"criterion": i, "passed": i != 8,
             "failed_verdicts": sorted(workloads.CRITERION_8_RED) if i == 8 else []}
            for i in workloads.VERIFY_CRITERIA]
    expect(failed(workloads.check_pass("verify", {}, good)) == 0,
           "verify: criteria green with criterion 8 red as documented pass")
    flipped = copy.deepcopy(good)
    flipped[6].update(passed=True, failed_verdicts=[])
    expect(failed(workloads.check_pass("verify", {}, flipped)) == 1,
           "verify: criterion 8 flipped to green fails")
    red = copy.deepcopy(good)
    red[2].update(passed=False, failed_verdicts=["top_eigenvalue"])
    expect(failed(workloads.check_pass("verify", {}, red)) == 1,
           "verify: a red criterion 3 fails")


def tracer_checks() -> None:
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "specdiff" or name.startswith("specdiff.")]
    before = [(m, dict(vars(m))) for m in modules]
    count_below = schrodinger1d.count_below
    run_experiment = experiments.run_experiment
    criteria = acceptance.CRITERIA
    tracer = Tracer()
    layers.install(tracer)
    expect(scattering.count_below.__wrapped__ is count_below
           and acceptance.run_experiment.__wrapped__ is run_experiment
           and acceptance.CRITERIA[0].__wrapped__ is criteria[0],
           "tracer: names imported into other modules are patched")
    box = schrodinger1d.BoxDiscretization(5.0, 99)
    tracer.case_id = 7
    scattering.smeared_spectral_shift(schrodinger1d.SquareWell(), 1.01, box)
    tracer.restore()
    expect(all(vars(m)[k] is v for m, snapshot in before
               for k, v in snapshot.items()),
           "tracer: every patched attribute is restored")
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    expect(names[0] == "scattering.smeared_spectral_shift.SquareWell"
           and "schrodinger1d.count_below" in names
           and set(spans["case"]) == {7}
           and np.all(spans["parent"][1:] >= 0),
           "tracer: nested spans keep their parent, case id and potential kind")

    toy = Tracer()
    inner = toy.wrap("toy.inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
    outer = toy.wrap("toy.outer", outer_body)
    outer()
    spans = toy.arrays()
    expect(abs(spans["self_time"][0] - (spans["duration"][0]
                                        - spans["duration"][1])) < 1e-12
           and spans["self_time"][0] < spans["duration"][1],
           "tracer: self time is duration minus child spans")


def names_checks() -> None:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(listed == layers.metric_units(),
           "BENCHMARK.json per_layer matches the traced metrics")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
           == list(run.WORKLOADS),
           "BENCHMARK.json workloads match the benchmark's")


def main() -> int:
    scatter_checks()
    counting_checks()
    box_bands_checks()
    verify_checks()
    tracer_checks()
    names_checks()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
