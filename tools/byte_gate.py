"""Write the deterministic outputs of one specdiff source tree, so that two
trees compare with ``diff -r``.

    python3 tools/byte_gate.py TREE OUTDIR

Runs ``TREE/src``'s command line, one process per output, and writes into
OUTDIR (created if missing):

* ``<command>.json`` and ``<command>.csv``: each campaign subcommand's
  report at the campaign defaults, for specfun, carleman, model, dspec
  and bk;
* ``<command>__<config>.json``: the report of each ``TREE/configs/*.json``
  under the subcommand of the campaign it names;
* ``verify.json`` and ``verify.csv``: ``verify --seed 0``;
* ``scatter__<kind>__<energy>.txt``: ``scatter`` stdout for each potential
  kind at the energies 0.5, 1, 1.3 and 2.7;
* ``exit_codes.txt``: one line per run, its output name and exit code.

A JSON report's ``timing`` block (wall times and creation date) is cut from
its text; every other byte is kept as written.  BLAS runs on one thread, so
that no reduction order depends on the host.  Uses only the standard
library.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = {"specfun": "SpecfunAudit", "carleman": "CarlemanMehler",
            "model": "ModelSpectrum", "dspec": "BandFilling",
            "bk": "BirmanKrein"}
KINDS = ("square_well", "poschl_teller", "gaussian")
ENERGIES = ("0.5", "1", "1.3", "2.7")
TIMING = ',"timing":'


def _run(tree: Path, args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "specdiff.cli", *args],
                          env=env, capture_output=True, text=True)


def _strip_timing(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    cut = text.rfind(TIMING)
    if cut >= 0:
        path.write_text(text[:cut] + "}", encoding="utf-8")


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tree, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    runs = []     # (output name, argv); a .txt output is the run's stdout
    for cmd in COMMANDS:
        for fmt in ("json", "csv"):
            runs.append((f"{cmd}.{fmt}", [cmd, "--format", fmt]))
    for config in sorted((tree / "configs").glob("*.json")):
        campaign = json.loads(config.read_text(encoding="utf-8"))["experiment"]
        cmd = next(c for c, name in COMMANDS.items() if name == campaign)
        runs.append((f"{cmd}__{config.stem}.json",
                     [cmd, "--config", str(config)]))
    for fmt in ("json", "csv"):
        runs.append((f"verify.{fmt}", ["verify", "--seed", "0", "--format", fmt]))
    for kind in KINDS:
        for energy in ENERGIES:
            runs.append((f"scatter__{kind}__{energy}.txt",
                         ["scatter", "--potential", kind, "--energy", energy]))

    codes = []
    for name, args in runs:
        path = out / name
        path.unlink(missing_ok=True)
        if path.suffix == ".txt":
            done = _run(tree, args)
            path.write_text(done.stdout, encoding="utf-8")
        else:
            done = _run(tree, [*args, "--quiet", "--out", str(path)])
            if path.suffix == ".json" and path.exists():
                _strip_timing(path)
        codes.append(f"{name} {done.returncode}\n")
        print(f"{name}: exit {done.returncode}", flush=True)
    (out / "exit_codes.txt").write_text("".join(codes), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
