"""The benchmark's self-test passes against this source tree.

``perfbench/selftest.py`` checks what the benchmark reads from the package:
each workload's output checks, the tracer's patching of module globals
(``count_below`` under ``smeared_spectral_shift``, the ``scattering``
re-export of it, ``run_experiment`` in ``acceptance``) and the metric
names.  A refactor that breaks that contract fails here, not only when the
benchmark runs."""

import os
import pathlib
import subprocess
import sys

from specdiff import schrodinger1d

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]


def test_tracer_counts_box_eigenvectors(monkeypatch):
    # A ``--trace 1`` run reads the basis size off each eigenpairs_below
    # result, and the box layer's per-layer metrics off the count_below,
    # eigenvalues_by_index and eigenpairs_below spans; a signature change
    # or a call that leaves the module globals would break them unseen,
    # since the self-test traces only smeared_spectral_shift.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layers
    from tracing import Tracer

    original = schrodinger1d.eigenpairs_below
    box = schrodinger1d.BoxDiscretization.from_spacing(20.0, 0.05)
    tracer = Tracer()
    layers.install(tracer)
    try:
        spectra = schrodinger1d.band_spectra(box, schrodinger1d.SquareWell(),
                                             1.0)
    finally:
        tracer.restore()
    assert schrodinger1d.eigenpairs_below is original
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]

    def ancestors(i):
        while spans["parent"][i] >= 0:
            i = spans["parent"][i]
            yield names[i]
    for layer in ("count_below", "eigenvalues_by_index", "eigenpairs_below"):
        found = [i for i, name in enumerate(names)
                 if name == f"schrodinger1d.{layer}"]
        assert found, layer
        assert all("schrodinger1d.band_spectra" in ancestors(i)
                   for i in found), layer
    # one solve and one basis per parity sector
    assert names.count("schrodinger1d.eigenvalues_by_index") == 2
    assert names.count("schrodinger1d.eigenpairs_below") == 2
    assert tracer.counters["eigenvectors"] == spectra.rank_p > 0


def test_box_bands_pass_matches_reference(monkeypatch):
    # The benchmark checks every box-bands record against the stored
    # reference to 1e-9; the self-test checks only the checker, so a box
    # layer change that moves a record would otherwise pass here unseen.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    inputs = workloads.make_inputs("box-bands", 0)
    cases = workloads.run_pass("box-bands", inputs, lambda: None)
    problems = workloads.check_pass("box-bands", inputs, cases)
    assert len(problems) == len(inputs["reference"]) + 1
    assert not any(problems), problems
