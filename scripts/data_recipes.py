"""Rebuild the published data sets with the quadwg command line.

``RECIPES`` maps each data set to its subcommand runs; the README's "Data
recipes" table says what each one shows.  Run every recipe, or the ones
named, into ``--outdir`` (default ``data``):

    PYTHONPATH=src python3 scripts/data_recipes.py [recipe ...]
"""

import argparse
import math
import sys

from quadwg.cli import run

EMISSION_RATE = 0.004
SCATTER_SIGMA = 0.02
# FWHM over the width parameter of a Gaussian envelope.
GAUSSIAN_FWHM = 2.0 * math.sqrt(2.0 * math.log(2.0))
_SCATTER_INPUT = (f"sum_width={SCATTER_SIGMA}", f"diff_width={SCATTER_SIGMA}")

# recipe -> [(subcommand, --set overrides), ...], run in order.  The
# emission envelopes have a FWHM of 0.2 and 5 total rates.
RECIPES = {
    "emission_maps": [
        ("emit", (f"total_rate={EMISSION_RATE}", f"envelope={kind}",
                  f"envelope_width={ratio * EMISSION_RATE / scale!r}",
                  f"output_stem=emission_{kind}_{label}"))
        for kind, scale in (("gaussian", GAUSSIAN_FWHM), ("lorentzian", 1.0))
        for label, ratio in (("narrow", 0.2), ("wide", 5.0))
    ],
    "scattering_maps": [
        ("scatter", (*_SCATTER_INPUT, f"total_rate={rate}",
                     f"envelope_width={SCATTER_SIGMA}",
                     f"output_stem=scattering_gaussian_rate{rate:g}"))
        for rate in (0.004, 0.012)
    ] + [
        ("scatter", (*_SCATTER_INPUT, "total_rate=0.004", "envelope=lorentzian",
                     f"envelope_width={GAUSSIAN_FWHM * SCATTER_SIGMA!r}",
                     "output_stem=scattering_lorentzian")),
    ],
    "reflection_sweep": [("sweep-reflection", ())],
    "entanglement_sweeps": [("entangle", ())],
    "gate_infidelity": [("gate", ())],
}


def run_steps(steps, outdir: str) -> int:
    """Run ``(subcommand, overrides)`` steps into ``outdir``; the exit
    status of the first that fails, else 0."""
    for command, overrides in steps:
        argv = [command, "--outdir", outdir]
        for item in overrides:
            argv += ["--set", item]
        code = run(argv)
        if code != 0:
            return code
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("recipes", nargs="*", metavar="recipe",
                        help=f"any of {', '.join(RECIPES)} (default: all)")
    parser.add_argument("--outdir", default="data")
    args = parser.parse_args()
    unknown = [name for name in args.recipes if name not in RECIPES]
    if unknown:
        parser.error(f"unknown recipe {unknown[0]!r}")
    for name in args.recipes or RECIPES:
        code = run_steps(RECIPES[name], args.outdir)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
