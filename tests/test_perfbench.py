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

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
