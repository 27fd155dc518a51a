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
    # result; a signature change there would break it unseen, since the
    # self-test traces only smeared_spectral_shift.
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
    calls = int((spans["name_id"] == tracer.names.index(
        "schrodinger1d.eigenpairs_below")).sum())
    assert calls == 2                       # one per parity sector
    assert tracer.counters["eigenvectors"] == spectra.rank_p > 0
