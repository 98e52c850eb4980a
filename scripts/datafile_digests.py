"""SHA-256 digests of every data file and printed summary of the CLI.

Runs each subcommand at its defaults, plus non-default configurations
that reach anisotropic and Lorentzian emission, an emission map with more
differences than the CSV writer formats at once (so the writer splits
inside one sum row), mirror scattering of a split pair, a Lorentzian
envelope with a detuned input, a resonance 200 times narrower than the
input's sum width (so the quadrature of the resonance weight bisects
deeply), the intensity FWHM convention of the gate
and gate ratios from 1e-2 to 1e6 (at the small ones the quadrature window
is the pulse support, not forty rates), and then every recipe of
``scripts/data_recipes.py``, each into its own directory under a
temporary directory.  Prints one ``<sha256>  <run>/<file>`` line per data
file and one per run for its printed summaries, with the exit status.
The ``.meta.json`` sidecars carry a timestamp and are skipped.

Run it from the root of two checkouts and compare the outputs to check
that a change keeps every output byte-identical:

    PYTHONPATH=src python3 scripts/datafile_digests.py > digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

from data_recipes import RECIPES, run_steps
from quadwg.cli import COMMANDS

# (label, [(subcommand, --set overrides), ...]); the defaults come first,
# the data recipes last.
RUNS = tuple((name, [(name, ())]) for name in COMMANDS) + (
    ("emit-anisotropic-lorentzian", [("emit", (
        "omega0=1.7", "rates=0.001,0.0015,0.0015,0.0005",
        "envelope=lorentzian", "envelope_width=0.01"))]),
    ("emit-wide-delta", [("emit", ("n_omegabar=3", "n_delta=5000"))]),
    ("scatter-mirror-split", [("scatter", (
        "rates=mirror", "channel=+-", "diff_center=0.01"))]),
    ("scatter-lorentzian-detuned", [("scatter", (
        "envelope=lorentzian", "sum_center=1.01"))]),
    ("scatter-narrow-line", [("scatter", ("total_rate=0.0001",))]),
    ("gate-power-fwhm", [("gate", (
        "fwhm_on_power=true", "ratios=1,10,1e3,1e6", "report_ratio=1e6"))]),
    ("gate-wide-ratios", [("gate", (
        "ratios=0.01,0.03,0.1,0.3,1,3,10,100,1e3,1e4,1e5,1e6",
        "report_ratio=0.01"))]),
) + tuple(RECIPES.items())


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args()
    failed = 0
    with tempfile.TemporaryDirectory() as root:
        for label, steps in RUNS:
            outdir = os.path.join(root, label)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run_steps(steps, outdir)
            failed += code != 0
            text = stdout.getvalue().encode()
            print(f"{hashlib.sha256(text).hexdigest()}  {label}/stdout"
                  f"  exit={code}")
            names = sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []
            for name in names:
                if not name.endswith(".meta.json"):
                    path = os.path.join(outdir, name)
                    print(f"{_file_digest(path)}  {label}/{name}")
                    os.remove(path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
