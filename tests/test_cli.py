"""Command-line interface: configs, outputs, determinism, exit codes."""

import configparser
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadwg import cli, emission, errors, gate, scattering, spectral
from quadwg.spectral import CouplingSpec, DirectionPair, Envelope, FrequencyGrid
from test_emission import coarse_emission_grid, whole_array_spectrum


def run_ok(args, capsys):
    code = cli.run(args)
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


def coarse_emit():
    """The warning of an emit on a grid too coarse for the six printed
    decimals of its total emission probability."""
    return pytest.warns(errors.TruncationWarning,
                        match="emission grid cannot resolve")


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], lines[1:]


def test_print_defaults_is_valid_ini(capsys):
    assert cli.run(["--print-defaults"]) == 0
    text = capsys.readouterr().out
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    assert set(parser.sections()) == set(cli.DEFAULTS)
    for section, entries in cli.DEFAULTS.items():
        for key, (value, _) in entries.items():
            assert parser.get(section, key) == value
    assert cli.run(["scatter", "--print-defaults"]) == 0
    assert capsys.readouterr().out == text


def test_missing_subcommand_is_a_config_error(capsys):
    assert cli.run([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_emit_outputs(tmp_path, capsys):
    with coarse_emit():
        out = run_ok(["emit", "--outdir", str(tmp_path),
                      "--set", "n_omegabar=64", "--set", "n_delta=32"], capsys)
    assert out.startswith("emit:")
    assert "P_total=" in out
    header, rows = read_csv(tmp_path / "emission.csv")
    assert header == "omega,omega_prime,channel,abs2,re,im"
    assert len(rows) == 4 * 64 * 32
    channels = {row.split(",")[2] for row in rows}
    assert channels == {"++", "+-", "-+", "--"}
    payload = json.loads((tmp_path / "emission.json").read_text())
    assert payload["total_probability"]["unit"] == "dimensionless"
    assert payload["total_probability"]["value"] == pytest.approx(1.0,
                                                                  abs=1e-3)
    assert payload["total_rate"]["unit"] == "omega0"
    meta = json.loads((tmp_path / "emission.meta.json").read_text())
    assert meta["command"] == "emit"
    assert meta["config"]["n_omegabar"] == "64"
    assert "created" in meta


def test_emit_data_files_are_deterministic(tmp_path, capsys):
    args = ["--set", "n_omegabar=48", "--set", "n_delta=16"]
    with coarse_emit():
        run_ok(["emit", "--outdir", str(tmp_path / "a")] + args, capsys)
        run_ok(["emit", "--outdir", str(tmp_path / "b")] + args, capsys)
    for name in ("emission.csv", "emission.json"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second
        assert b"\r" not in first


def test_scatter_outputs(tmp_path, capsys):
    out = run_ok(["scatter", "--outdir", str(tmp_path),
                  "--set", "n_omegabar=48", "--set", "n_delta=24"], capsys)
    assert out.startswith("scatter:")
    header, rows = read_csv(tmp_path / "scatter.csv")
    assert header == "omega,omega_prime,channel,abs2,re,im"
    assert len(rows) == 4 * 48 * 24
    payload = json.loads((tmp_path / "scatter.json").read_text())
    assert payload["reflection"]["unit"] == "probability"
    total = payload["total"]["value"]
    assert total == pytest.approx(1.0, abs=1e-6)
    assert "phase" in payload["phase_note"]


def test_config_file_merging(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[common]\ntotal_rate = 0.02\n"
                      "[scatter]\nsum_width = 0.03\n")
    out = run_ok(["scatter", "--config", str(config),
                  "--outdir", str(tmp_path),
                  "--set", "n_omegabar=32", "--set", "n_delta=16"], capsys)
    assert "total_rate=0.02" in out
    payload = json.loads((tmp_path / "scatter.json").read_text())
    assert payload["sum_width"]["value"] == pytest.approx(0.03)
    # Sections belonging to other subcommands are ignored, not rejected.
    config.write_text("[emit]\nn_omegabar = 8\n[scatter]\nsum_width = 0.03\n")
    run_ok(["scatter", "--config", str(config), "--outdir", str(tmp_path),
            "--set", "n_omegabar=32", "--set", "n_delta=16"], capsys)
    # [common] keys a command does not read are skipped and left out of its
    # sidecar, and its own section wins over [common] in either file order.
    own = "[sweep-reflection]\nrates = 0.002\nratios = 1\n"
    for text in ("[common]\nrates = mirror\nenvelope = lorentzian\n" + own,
                 own + "[common]\nrates = 0.001,0.001,0.001,0.001\n"):
        config.write_text(text)
        outdir = tmp_path / "sweep"
        run_ok(["sweep-reflection", "--config", str(config),
                "--outdir", str(outdir)], capsys)
        _, rows = read_csv(outdir / "reflection_sweep.csv")
        assert [row.split(",")[0] for row in rows] == ["0.002"]
        meta = json.loads((outdir / "reflection_sweep.meta.json").read_text())
        assert meta["config"] == {"alpha": "0.002", "ratios": "1",
                                  "rates": "0.002", "omega0": "1.0",
                                  "output_stem": "reflection_sweep"}


def test_unknown_key_reports_file_and_line(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[scatter]\nsum_width = 0.03\nbogus_key = 1\n")
    assert cli.run(["scatter", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'bogus_key'" in err
    assert f"{config}:3:" in err
    # configparser lowercases the key; the line is found in any case.
    mixed = tmp_path / "mixed.ini"
    mixed.write_text("[emit]\nn_delta = 5\n\nFoo = 3\n")
    assert cli.run(["emit", "--config", str(mixed)]) == 1
    assert f"{mixed}:4: unknown key 'foo'" in capsys.readouterr().err
    # The line is the one in the named section, not the first in the file.
    sections = tmp_path / "sec.ini"
    sections.write_text("[scatter]\nbogus = 1\n\n[emit]\nBogus = 2\n")
    assert cli.run(["emit", "--config", str(sections)]) == 1
    assert f"{sections}:5: unknown key 'bogus'" in capsys.readouterr().err
    # configparser gives [DEFAULT]'s keys to every section.
    defaults = tmp_path / "defaults.ini"
    defaults.write_text("[emit]\nn_delta = 5\n[DEFAULT]\nzork = 1\n")
    assert cli.run(["emit", "--config", str(defaults)]) == 1
    assert f"{defaults}:4: unknown key 'zork'" in capsys.readouterr().err


def test_config_error_paths(tmp_path, capsys):
    bad_section = tmp_path / "section.ini"
    bad_section.write_text("[bogus]\nx = 1\n")
    assert cli.run(["scatter", "--config", str(bad_section)]) == 1
    assert "unknown section" in capsys.readouterr().err

    malformed = tmp_path / "malformed.ini"
    malformed.write_text("no section header\n")
    assert cli.run(["scatter", "--config", str(malformed)]) == 1
    assert "malformed" in capsys.readouterr().err

    assert cli.run(["scatter", "--config", str(tmp_path / "absent.ini")]) == 1
    assert "cannot read" in capsys.readouterr().err

    for override in ("nonsense", "unknown_key=1", "total_rate=abc",
                     "envelope=box", "rates=1,2"):
        assert cli.run(["scatter", "--set", override,
                        "--outdir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_runs_in_one_process_share_one_parser_and_no_overrides(tmp_path,
                                                                capsys):
    assert cli._build_parser() is cli._build_parser()
    sweep = ["--set", "width_ratios=0.1", "--set", "detuning_ratios=1"]
    run_ok(["entangle", "--outdir", str(tmp_path / "a"),
            "--set", "point_detuning_ratio=2"] + sweep, capsys)
    run_ok(["entangle", "--outdir", str(tmp_path / "b")] + sweep, capsys)
    config = json.loads(
        (tmp_path / "b" / "entanglement.meta.json").read_text())["config"]
    assert config["point_detuning_ratio"] == "10"
    assert config["width_ratios"] == "0.1"
    # A bad argument after a good run exits 1 with the usage on the
    # stderr of its own call.
    for args, usage, message in (
            (["--bogus"], "usage: quadwg [-h]", "unrecognized arguments"),
            (["--set"], "usage: quadwg entangle", "expected one argument")):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.run(["entangle"] + args) == 1
        assert err.getvalue().startswith(usage)
        assert message in err.getvalue()
    assert capsys.readouterr().err == ""


def test_sweep_reflection_outputs_are_deterministic(tmp_path, capsys):
    args = ["--set", "ratios=0.5,1.0,2.0", "--set", "rates=0.004,0.02"]
    out = run_ok(["sweep-reflection", "--outdir", str(tmp_path / "a")]
                 + args, capsys)
    assert out.startswith("sweep-reflection:")
    run_ok(["sweep-reflection", "--outdir", str(tmp_path / "b")] + args,
           capsys)
    for name in ("reflection_sweep.csv", "reflection_sweep.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    header, rows = read_csv(tmp_path / "a" / "reflection_sweep.csv")
    assert header == "total_rate,width_ratio,reflection"
    assert len(rows) == 2 * 3
    payload = json.loads((tmp_path / "a" / "reflection_sweep.json").read_text())
    for peak in payload["peaks"]:
        assert peak["best_ratio"]["value"] == pytest.approx(1.0)


def test_removed_threads_flag_is_rejected(tmp_path, capsys):
    assert cli.run(["sweep-reflection", "--threads", "2",
                    "--outdir", str(tmp_path)]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, override, message", [
    ("emit", "n_omegabar=1.5",
     "key 'n_omegabar': expected an integer, got '1.5'"),
    ("sweep-reflection", "ratios=1,x",
     "key 'ratios': expected comma-separated numbers"),
    ("gate", "fwhm_on_power=maybe",
     "key 'fwhm_on_power': expected a boolean, got 'maybe'"),
    ("gate", "ratios=", "key 'ratios': expected at least one value"),
    ("sweep-reflection", "ratios=",
     "key 'ratios': expected at least one value"),
    ("sweep-reflection", "rates=", "key 'rates': expected at least one value"),
    ("gate", "shapes=", "key 'shapes': expected at least one value"),
    ("entangle", "width_ratios=",
     "key 'width_ratios': expected at least one value"),
    ("scatter", "total_rate=inf",
     "key 'total_rate': value must be finite, got 'inf'"),
    ("scatter", "omega0=inf", "key 'omega0': value must be finite, got 'inf'"),
    ("scatter", "rates=0.001,0.0015,0.0015,inf",
     "key 'rates': every value must be finite, got 'inf'"),
    ("scatter", "envelope_width=inf",
     "key 'envelope_width': value must be finite, got 'inf'"),
    ("emit", "total_rate=nan",
     "key 'total_rate': value must be finite, got 'nan'"),
    ("gate", "ratios=10,inf",
     "key 'ratios': every value must be finite, got 'inf'"),
    ("gate", "ratios=1e-308",
     "gamma must be finite with 2 / gamma finite, got 1e-308"),
    ("scatter", "sum_width=inf",
     "key 'sum_width': value must be finite, got 'inf'"),
    ("scatter", "sum_width=0",
     "key 'sum_width': value must be positive, got '0'"),
    ("scatter", "diff_width=0",
     "key 'diff_width': value must be positive, got '0'"),
    ("verify", "input_width=inf",
     "key 'input_width': value must be finite, got 'inf'"),
    # Once "verify: FAIL" and exit 2: no relative difference is below these.
    ("verify", "tolerance=0",
     "key 'tolerance': value must be positive, got '0'"),
    ("verify", "tolerance=-1",
     "key 'tolerance': value must be positive, got '-1'"),
    ("sweep-reflection", "alpha=nan",
     "key 'alpha': value must be finite, got 'nan'"),
    ("gate", "envelope=bogus", "override key 'envelope' unknown for gate"),
    ("gate", "total_rate=abc", "override key 'total_rate' unknown for gate"),
    ("entangle", "envelope=gaussian",
     "override key 'envelope' unknown for entangle"),
    ("entangle", "rates=mirror", "override key 'rates' unknown for entangle"),
    ("sweep-reflection", "total_rate=0.01",
     "override key 'total_rate' unknown for sweep-reflection"),
    # Grid sizes below two once named the axis, not the key.
    ("scatter", "n_delta=1", "key 'n_delta': value must be at least 2, got '1'"),
    ("emit", "n_omegabar=1",
     "key 'n_omegabar': value must be at least 2, got '1'"),
    ("verify", "n_omegabar=1",
     "key 'n_omegabar': value must be at least 2, got '1'"),
    # Each once gave the library's text, which named no key or the wrong one.
    ("scatter", "omega0=0", "key 'omega0': value must be positive, got '0'"),
    ("sweep-reflection", "omega0=-1",
     "key 'omega0': value must be positive, got '-1'"),
    ("scatter", "envelope_width=0",
     "key 'envelope_width': value must be positive, got '0'"),
    ("sweep-reflection", "alpha=0",
     "key 'alpha': value must be positive, got '0'"),
    ("gate", "report_ratio=0",
     "key 'report_ratio': value must be positive, got '0'"),
    ("verify", "input_width=0",
     "key 'input_width': value must be positive, got '0'"),
    ("entangle", "point_width_ratio=0",
     "key 'point_width_ratio': value must be positive, got '0'"),
    ("entangle", "total_rate=0",
     "key 'total_rate': value must be positive, got '0'"),
    ("scatter", "total_rate=-0.004",
     "key 'total_rate': value must be positive, got '-0.004'"),
    # Each once exited 1 only after writing its sweep's CSV files.
    ("gate", "report_ratio=abc",
     "key 'report_ratio': expected a number, got 'abc'"),
    ("entangle", "point_width_ratio=nan",
     "key 'point_width_ratio': value must be finite, got 'nan'"),
    # Once wrote the hidden files .csv, .json and .meta.json, or wrote
    # outside the output directory.
    ("sweep-reflection", "output_stem=",
     "key 'output_stem': expected a file name without a path separator,"
     " got ''"),
    ("gate", "output_stem=a/../../x",
     "key 'output_stem': expected a file name without a path separator,"
     " got 'a/../../x'"),
    ("emit", "output_stem=sub/emission",
     "key 'output_stem': expected a file name without a path separator,"
     " got 'sub/emission'"),
    # Each once gave the library's text, which named no key.
    ("scatter", "channel=xx",
     "key 'channel': expected one of ++, +-, -+, --, got 'xx'"),
    ("gate", "ratios=0", "key 'ratios': every value must be positive, got '0'"),
    ("sweep-reflection", "ratios=1,-2",
     "key 'ratios': every value must be positive, got '-2'"),
    ("sweep-reflection", "rates=0",
     "key 'rates': every value must be positive, got '0'"),
    ("entangle", "width_ratios=0",
     "key 'width_ratios': every value must be positive, got '0'"),
    ("entangle", "detuning_ratios=1,-0.5",
     "key 'detuning_ratios': every value must be nonnegative, got '-0.5'"),
])
def test_typed_value_diagnostics(tmp_path, capsys, command, override,
                                 message):
    # A configuration error names its key and writes nothing.
    assert cli.run([command, "--set", override,
                    "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_rates_mirror_and_four_values(tmp_path, capsys):
    small = ["--set", "n_omegabar=16", "--set", "n_delta=8"]
    # The mirror couples only ++ pairs: nothing is reflected or split.
    out = run_ok(["scatter", "--outdir", str(tmp_path / "mirror"),
                  "--set", "rates=mirror"] + small, capsys)
    assert "R=0.0000 S=0.0000 T=1.0000 sum=1.000000" in out
    meta = json.loads((tmp_path / "mirror" / "scatter.meta.json").read_text())
    assert meta["config"]["rates"] == "mirror"

    out = run_ok(["scatter", "--outdir", str(tmp_path / "four"),
                  "--set", "rates=0.001,0.0015,0.0015,0.0005"] + small, capsys)
    assert "total_rate=0.0045" in out
    payload = json.loads((tmp_path / "four" / "scatter.json").read_text())
    assert payload["total"]["value"] == pytest.approx(1.0, abs=1e-6)
    assert payload["reflection"]["value"] > 0

    # Four rates of their own need no total rate.
    out = run_ok(["scatter", "--outdir", str(tmp_path / "untotalled"),
                  "--set", "rates=0.001,0.0015,0.0015,0.0005",
                  "--set", "total_rate=0"] + small, capsys)
    assert "total_rate=0.0045" in out

    assert cli.run(["scatter", "--outdir", str(tmp_path / "unequal"),
                    "--set", "rates=0.001,0.002,0.0015,0.0005"] + small) == 1
    err = capsys.readouterr().err
    assert err == "error: cross-direction rates must be equal\n"


def test_entangle_outputs(tmp_path, capsys):
    out = run_ok(["entangle", "--outdir", str(tmp_path),
                  "--set", "width_ratios=0.1,1.0",
                  "--set", "detuning_ratios=1,2"], capsys)
    assert out.startswith("entangle:")
    header, rows = read_csv(tmp_path / "entanglement.csv")
    assert header == "width_over_rate,detuning_over_rate,entropy"
    assert len(rows) == 4
    payload = json.loads((tmp_path / "entanglement.json").read_text())
    assert payload["entropy"]["unit"] == "bits"
    assert payload["entropy"]["value"] > 0.99
    assert payload["fidelity_psi_minus"]["value"] > 0.99


def test_gate_writes_one_curve_per_shape(tmp_path, capsys):
    out = run_ok(["gate", "--outdir", str(tmp_path),
                  "--set", "ratios=1,10,100"], capsys)
    assert out.startswith("gate:")
    for shape in ("gaussian", "lorentzian"):
        header, rows = read_csv(tmp_path / f"gate_infidelity_{shape}.csv")
        assert header == "gamma_over_fwhm,log10_infidelity"
        assert len(rows) == 3
        values = [float(row.split(",")[1]) for row in rows]
        assert values[0] > values[-1]  # infidelity falls with the ratio
    payload = json.loads((tmp_path / "gate_infidelity.json").read_text())
    assert set(payload["reports"]) == {"gaussian", "lorentzian"}
    report = payload["reports"]["gaussian"]
    assert report["worst_case_fidelity"]["value"] > 0.999
    assert cli.run(["gate", "--outdir", str(tmp_path),
                    "--set", "shapes=box"]) == 1


def test_gate_rate_quad_cannot_resolve_is_a_numerical_failure(tmp_path,
                                                              capsys):
    # QUADPACK refuses to bisect the resonance at this rate; the command
    # once printed its IntegrationWarning and exited 0 with 1-F=1.00e+00.
    assert cli.run(["gate", "--set", "ratios=1.2e-308",
                    "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: gamma 1.2e-308 is too small")


def test_import_and_entangle_load_no_scipy(tmp_path):
    # Neither ``import quadwg`` nor any subcommand at its defaults loads a
    # scipy module: the library integrates with its own QUADPACK port.
    code = "\n".join([
        "import sys",
        "import quadwg",
        "from quadwg import cli",
        "def scipy_loaded():",
        "    return sorted(m for m in sys.modules",
        "                  if m == 'scipy' or m.startswith('scipy.'))",
        "assert not scipy_loaded(), scipy_loaded()",
        "for command in cli.COMMANDS:",
        f"    assert cli.run([command, '--outdir', {str(tmp_path)!r}]) == 0",
        "    assert not scipy_loaded(), (command, scipy_loaded())",
    ])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    for path in tmp_path.iterdir():     # emit alone writes 173 MB
        path.unlink()
    assert done.returncode == 0, done.stderr
    assert [line.split(":")[0] for line in done.stdout.splitlines()] \
        == list(cli.COMMANDS)


def test_subcommands_and_grid_resampling_run_with_scipy_blocked(tmp_path):
    # numpy is the one runtime dependency: with every scipy import made to
    # fail, each subcommand runs and a grid state resamples onto other axes.
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from quadwg import cli",
        "from quadwg.spectral import (DirectionPair, FrequencyGrid,",
        "                             gaussian_biphoton)",
        "small = {'emit': ['n_omegabar=32', 'n_delta=16'],",
        "         'scatter': ['n_omegabar=32', 'n_delta=16'],",
        "         'gate': ['ratios=1,10', 'report_ratio=10'],",
        "         'verify': ['n_omegabar=128', 'n_delta=48']}",
        "for command in cli.COMMANDS:",
        "    sets = [a for s in small.get(command, []) for a in ('--set', s)]",
        f"    assert cli.run([command, *sets, '--outdir', {str(tmp_path)!r}])"
        " == 0, command",
        "state = gaussian_biphoton(DirectionPair.PM, 1.0, 0.02).on_grid(",
        "    FrequencyGrid.regular(1.0, 0.1, 0.2, 64, 32))",
        "moved = state.on_grid(FrequencyGrid.regular(1.01, 0.12, 0.25, 48, 24))",
        "assert moved.data.shape == (4, 48, 24)",
        "assert abs(moved.norm_squared() - 1.0) < 0.01, moved.norm_squared()",
    ])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [line.split(":")[0] for line in done.stdout.splitlines()] \
        == list(cli.COMMANDS)


def test_scatter_deep_in_gaussian_tails_prints_no_warning(tmp_path, capsys):
    # A difference axis ten sum widths long puts nodes so far out in the
    # envelope's and the difference factor's tails that their exponents
    # overflow to -inf; the value, 0, is right, and once came with two
    # "overflow encountered in divide" RuntimeWarnings.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run_ok(["scatter", "--outdir", str(tmp_path),
                      "--set", "sum_width=1e152",
                      "--set", "n_omegabar=64", "--set", "n_delta=32"],
                     capsys)
    assert [str(w.message) for w in caught] == []
    assert "R=0.0000 S=0.0000 T=1.0000 sum=1.000000" in out


def test_gate_at_large_ratio_succeeds(tmp_path, capsys):
    out = run_ok(["gate", "--outdir", str(tmp_path),
                  "--set", "ratios=1e6", "--set", "report_ratio=1e6"], capsys)
    assert out.startswith("gate:")


def test_gate_writes_the_infidelity_of_a_near_ideal_gate(tmp_path, capsys):
    # 1 - F taken from the fidelity rounded to zero here: the curves held
    # the -300 clip and the summary printed 1-F=0.00e+00.
    out = run_ok(["gate", "--outdir", str(tmp_path),
                  "--set", "ratios=1e8"], capsys)
    for shape, expected in (("gaussian", -15.84), ("lorentzian", -15.40)):
        _, rows = read_csv(tmp_path / f"gate_infidelity_{shape}.csv")
        assert float(rows[0].split(",")[1]) == pytest.approx(expected,
                                                             abs=0.01)
    assert "0.00e+00" not in out
    assert "gaussian:1-F=1.44e-16" in out
    assert "lorentzian:1-F=4.00e-16" in out


@pytest.mark.parametrize("command, override", [
    ("sweep-reflection", "alpha=1e-300"),
    ("scatter", "sum_width=1e-300"),
    ("scatter", "diff_width=1e-300"),
    ("emit", "envelope_width=1e-300"),
    ("scatter", "envelope_width=1e-300"),
    ("emit", "envelope=lorentzian envelope_width=1e-300"),
    ("scatter", "envelope=lorentzian envelope_width=1e-300"),
])
def test_underflowing_width_is_a_config_error(tmp_path, capsys, command,
                                              override):
    sets = [arg for item in override.split() for arg in ("--set", item)]
    assert cli.run([command, *sets, "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "underflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, override", [
    ("scatter", "sum_width=6e153"),
    ("scatter", "sum_width=1e160"),
    ("scatter", "diff_width=1e160"),
    ("verify", "input_width=1e160"),
])
def test_overflowing_gaussian_window_is_a_config_error(tmp_path, capsys,
                                                       command, override):
    # Once a numerical failure, an OverflowError traceback, nan written to
    # scatter.csv with exit 0, and a numerical failure.
    assert cli.run([command, "--set", override,
                    "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "too large" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["emit", "scatter"])
def test_overflowing_envelope_density_is_a_config_error(tmp_path, capsys,
                                                        command):
    assert cli.run([command, "--set", "envelope_width=1e-160",
                    "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "peak density overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["emit", "scatter"])
@pytest.mark.parametrize("envelope", ["gaussian", "lorentzian"])
def test_overflowing_envelope_width_is_a_config_error(tmp_path, capsys,
                                                      command, envelope):
    # Once reported as "numerical failure: density carries no weight".
    assert cli.run([command, "--set", f"envelope={envelope}",
                    "--set", "envelope_width=1e200",
                    "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "too large" in err
    assert "Traceback" not in err


def test_narrow_lorentzian_envelope_is_transparent(tmp_path, capsys):
    out = run_ok(["scatter", "--outdir", str(tmp_path),
                  "--set", "envelope=lorentzian",
                  "--set", "envelope_width=1e-160",
                  "--set", "n_omegabar=16", "--set", "n_delta=8"], capsys)
    assert "R=0.0000 S=0.0000 T=1.0000 sum=1.000000" in out


def test_numerical_failure_exits_2(tmp_path, capsys):
    # A sum width float64 cannot resolve at its centre collapses the
    # factor's window to a point, so the state has zero norm: the
    # configuration parses, the computation fails.
    assert cli.run(["scatter", "--outdir", str(tmp_path),
                    "--set", "sum_width=1e-160",
                    "--set", "n_omegabar=16", "--set", "n_delta=8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "zero norm" in err


@pytest.mark.parametrize("args, name", [
    (["scatter", "--set", "total_rate=1e155"], "total rate 1e+155"),
    (["sweep-reflection", "--set", "rates=1e154,1e155"], "total rate 1e+155"),
    (["gate", "--set", "ratios=1e300"], "gamma 1e+300"),
], ids=["scatter", "sweep-reflection", "gate"])
def test_rates_out_of_reach_exit_2(tmp_path, capsys, args, name):
    # The first two printed nan probabilities and exited 0; the gate
    # exited 1 with quad's own complaint about its break points.
    with warnings.catch_warnings():
        # The overflow and flat-band warnings of these rates.
        warnings.simplefilter("ignore")
        assert cli.run([*args, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert name in err


def test_gate_runs_where_the_pair_factor_square_underflows(tmp_path, capsys):
    # Exited 1 with a ZeroDivisionError traceback from the fidelity.
    with warnings.catch_warnings():
        # numpy's overflow warnings of this rate (ROADMAP item 1).
        warnings.simplefilter("ignore", RuntimeWarning)
        out = run_ok(["gate", "--outdir", str(tmp_path),
                      "--set", "ratios=1e170"], capsys)
    assert "gaussian:1-F=1.00e-300 lorentzian:1-F=1.00e-300" in out


def test_entangle_names_a_negative_total_rate(tmp_path, capsys):
    # Once "envelope width must be positive", then the library's "total_rate
    # must be finite and positive".
    assert cli.run(["entangle", "--outdir", str(tmp_path),
                    "--set", "total_rate=-0.004"]) == 1
    assert capsys.readouterr().err \
        == "error: key 'total_rate': value must be positive, got '-0.004'\n"


@pytest.mark.parametrize("error, code", [
    (errors.InvalidStateError, 2),
    (errors.InvalidOverlapError, 2),
    (errors.UndefinedCorrelationError, 2),
    (gate._UnresolvableRateError, 2),
    (errors.EmptyPostselectionError, 2),
    (RuntimeError, 2),
    (errors.InvalidEnvelopeError, 1),
    (errors.UnsupportedConfigurationError, 1),
    (ValueError, 1),
    (cli.ConfigError, 1),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_exit_code_follows_the_failure_class(tmp_path, capsys, error, code):
    def handler(cfg, outdir):
        raise error("boom")

    with mock.patch.dict(cli._HANDLERS, {"entangle": handler}):
        assert cli.run(["entangle", "--outdir", str(tmp_path)]) == code
    prefix = "numerical failure:" if code == 2 else "error:"
    assert capsys.readouterr().err == f"{prefix} boom\n"


def test_emit_runs_on_a_narrow_line(tmp_path, capsys):
    # The omegabar step is 3e-8 of the axis's magnitude, so one float
    # spacing moves a step by 7e-9 of itself: the grid once rejected
    # linspace's own axis as not uniform to 1e-9.
    with coarse_emit():
        out = run_ok(["emit", "--outdir", str(tmp_path),
                      "--set", "total_rate=1e-7",
                      "--set", "n_omegabar=64", "--set", "n_delta=16"], capsys)
    assert out.startswith("emit: total_rate=1e-07")


@pytest.mark.parametrize("diff_center", ["50", "1000"])
def test_scatter_takes_a_far_difference_centre(tmp_path, capsys, diff_center):
    # The difference factor's window holds its peak however far out it
    # sits; such a pair misses the envelope and is transmitted.  Eight
    # differences out to ten centres are 71 and 1429 apart, so the command
    # refuses to write a map of a profile 0.001 wide.
    coupling = CouplingSpec.isotropic(0.004, Envelope.gaussian(0.02))
    f, f_win = spectral.gaussian_sum_spectrum(1.0, 0.02)
    h, h_win = spectral.gaussian_difference_profile(0.001, float(diff_center))
    state = spectral.SeparableState(DirectionPair.PP, f, h, f_win, h_win)
    probs = scattering.channel_probabilities(
        scattering.scatter(coupling, state))
    assert (f"R={probs.reflection:.4f} S={probs.splitting:.4f} "
            f"T={probs.transmission:.4f} sum={probs.total:.6f}") \
        == "R=0.0000 S=0.0000 T=1.0000 sum=1.000000"
    assert cli.run(["scatter", "--outdir", str(tmp_path),
                    "--set", f"diff_center={diff_center}",
                    "--set", "diff_width=0.001",
                    "--set", "n_omegabar=16", "--set", "n_delta=8"]) == 1
    assert "exceeds diff_width=0.001" in capsys.readouterr().err
    assert not (tmp_path / "scatter.csv").exists()


def test_scatter_input_must_reach_the_output_sum_axis(tmp_path, capsys):
    # The default output axis is omega0 +- 20 total rates, [0.92, 1.08];
    # the input's sum window is sum_center +- 12 sum widths.  At 1.5 the
    # two miss each other, and the map would be near-zero amplitudes.
    assert cli.run(["scatter", "--outdir", str(tmp_path),
                    "--set", "sum_center=1.5"]) == 1
    assert capsys.readouterr().err == (
        "error: the input's sum window [1.26, 1.74] at sum_center=1.5"
        " misses the output grid's sum axis [0.92, 1.08], so its map would"
        " be empty; bring sum_center nearer omega0=1\n")
    assert list(tmp_path.iterdir()) == []
    # Below the axis too; a window that reaches into the axis is mapped.
    small = ["--outdir", str(tmp_path), "--set", "n_omegabar=16",
             "--set", "n_delta=8"]
    assert cli.run(["scatter", *small, "--set", "sum_center=0.6"]) == 1
    assert "at sum_center=0.6 misses" in capsys.readouterr().err
    run_ok(["scatter", *small, "--set", "sum_center=1.3"], capsys)


def test_scatter_map_must_resolve_a_difference_profile_clear_of_zero(
        tmp_path, capsys):
    # A centre of 1000 stretches the 128 differences to 10000: a spacing of
    # 78.7 for a profile 0.02 wide, once 131,072 rows of zeros and exit 0.
    assert cli.run(["scatter", "--outdir", str(tmp_path),
                    "--set", "diff_center=1000"]) == 1
    assert capsys.readouterr().err == (
        "error: the output grid's difference spacing 78.7402 exceeds"
        " diff_width=0.02, so its map cannot resolve the difference profile"
        " at diff_center=1000; raise n_delta to at least 500001 or bring"
        " diff_center nearer zero\n")
    assert not (tmp_path / "scatter.csv").exists()
    # At 0.3 the profile is clear of zero and the axis reaches 3: the
    # advised 151 differences are 0.02 apart, one fewer is too coarse.
    small = ["--outdir", str(tmp_path), "--set", "diff_center=0.3",
             "--set", "n_omegabar=16"]
    assert cli.run(["scatter", *small, "--set", "n_delta=150"]) == 1
    assert "raise n_delta to at least 151" in capsys.readouterr().err
    run_ok(["scatter", *small, "--set", "n_delta=151"], capsys)
    # A profile that reaches zero keeps its grid, however coarse: the
    # default 16 x 8 scatter spaces its differences 0.029 apart.
    run_ok(["scatter", "--outdir", str(tmp_path), "--set", "diff_center=0.01",
            "--set", "n_omegabar=16", "--set", "n_delta=8"], capsys)


@pytest.mark.parametrize("width, mass", [("1e-5", "62.83"),
                                         ("5e-4", "1.274")])
def test_scatter_rejects_a_difference_profile_its_axis_cannot_resolve(
        tmp_path, capsys, width, mass):
    # A centred profile far narrower than the 0.0016 spacing: 1e-5 once
    # mapped every amplitude to delta = 0 and exited 0.  The pinned 16 x 8
    # run at diff_center=0.01 gives 1.00002 and the defaults 1.000000.
    assert cli.run(["scatter", "--outdir", str(tmp_path), "--set",
                    f"diff_width={width}"]) == 1
    assert capsys.readouterr().err == (
        "error: the output grid's difference spacing 0.0015748 gives the"
        f" difference profile of diff_width={float(width):g} a trapezoid"
        f" mass of {mass} times its own, so its map cannot resolve it;"
        " raise n_delta or widen the profile\n")
    assert not (tmp_path / "scatter.csv").exists()


@pytest.mark.parametrize("overrides, delta_max", [
    # A sum width of 1e152 once stretched the 32 differences to 1e153,
    # every row past the first a pair 5e152 apart.
    (("sum_width=1e152",), 0.2),
    (("diff_width=0.05",), 0.5),
    # n_delta=256 spaces differences 0.78 diff_widths apart: 32 would map
    # the profile to a trapezoid mass of 0.129 and exit 1.
    (("diff_width=0.001", "diff_center=0.004", "n_delta=256"), 0.2),
])
def test_scatter_sizes_its_difference_axis_from_the_difference_profile(
        tmp_path, capsys, overrides, delta_max):
    # Ten times max(diff_width, |diff_center|), or the envelope's ten
    # widths if more: the sum width plays no part.
    args = ["scatter", "--outdir", str(tmp_path), "--set", "n_omegabar=64",
            "--set", "n_delta=32"]
    for override in overrides:
        args += ["--set", override]
    run_ok(args, capsys)
    _, rows = read_csv(tmp_path / "scatter.csv")
    omega, omega_prime = map(float, rows[-1].split(",")[:2])
    assert omega + omega_prime == pytest.approx(1.08, rel=1e-12)
    assert omega_prime - omega == pytest.approx(delta_max, rel=1e-12)


@pytest.mark.parametrize("shape, error, total", [
    ((32, 16), "-1.58e-02", "0.984239"), ((3, 5000), "+5.59e+00", "6.591720")])
def test_emit_on_a_coarse_grid_warns(tmp_path, capsys, shape, error, total):
    # P_total read 0.984239 at 32 x 16 and 6.591720 at 3 x 5000, exit 0.
    with pytest.warns(errors.TruncationWarning) as record:
        out = run_ok(["emit", "--outdir", str(tmp_path),
                      "--set", f"n_omegabar={shape[0]}",
                      "--set", f"n_delta={shape[1]}"], capsys)
    assert [str(w.message) for w in record] == [
        f"the {shape[0]}x{shape[1]} emission grid cannot resolve the emitted"
        " line and envelope: the total emission probability on it is off"
        f" by {error}; raise n_omegabar or n_delta"]
    assert record[0].filename == __file__
    assert f"P_total={total} " in out


def test_verify_exit_codes(tmp_path, capsys):
    args = ["verify", "--outdir", str(tmp_path),
            "--set", "n_omegabar=128", "--set", "n_delta=48"]
    out = run_ok(args, capsys)
    assert out.startswith("verify: OK")
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["passed"] is True
    assert payload["worst_relative_difference"]["value"] < 0.02
    assert payload["norm_drift"]["value"] < 1e-6

    assert cli.run(args + ["--set", "tolerance=1e-9"]) == 2
    out = capsys.readouterr().out
    assert "verify: FAIL" in out
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["passed"] is False


def test_verify_past_the_recurrence_time_is_a_configuration_error(
        tmp_path, capsys):
    # A 5e-4 input spans 15000 against 2 pi / d_omegabar = 4987 on 128
    # rows; the residual-excitation check used to fail it with exit 2.
    # 300 differences resolve its difference profile (48 cannot).
    assert cli.run(["verify", "--outdir", str(tmp_path),
                    "--set", "n_omegabar=128", "--set", "n_delta=300",
                    "--set", "input_width=5e-4"]) == 1
    err = capsys.readouterr().err
    assert "error: run spans 15000, not less than the grid's recurrence" \
        " time 2*pi/d_omegabar = 4987.28" in err
    assert "n_omegabar" in err


def test_verify_on_a_band_too_coarse_for_its_input_is_a_configuration_error(
        tmp_path, capsys):
    # Once exit 2 with "verify: FAIL worst relative difference 0.3315": four
    # differences give the 0.02 input's profile 1.34 times its own mass.
    assert cli.run(["verify", "--outdir", str(tmp_path),
                    "--set", "n_delta=4"]) == 1
    assert capsys.readouterr().err == (
        "error: the output grid's difference spacing 0.0666667 gives the"
        " difference profile of diff_width=0.02 a trapezoid mass of 1.34"
        " times its own, so its map cannot resolve it; raise n_delta or"
        " widen the profile\n")
    assert not (tmp_path / "verify.json").exists()
    # Eight differences resolve it.
    assert run_ok(["verify", "--outdir", str(tmp_path),
                   "--set", "n_delta=8"], capsys).startswith("verify: OK")


@pytest.mark.parametrize("override, band, kept, width", [
    # Once exit 2 with "FAIL 633.6214": the band is 40,000 times narrower
    # than the input.
    ("total_rate=5e-7", "1e-05", "0.0003989", "0.02"),
    # Once a pass at 0.0189, from an input the band cut to 99.24%.
    ("input_width=0.03", "0.08", "0.9923", "0.03"),
])
def test_verify_input_outside_the_band_is_a_configuration_error(
        tmp_path, capsys, override, band, kept, width):
    assert cli.run(["verify", "--outdir", str(tmp_path),
                    "--set", override]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: the band of half width {band} (20 total rates)"
                   f" keeps only {kept} of the sum intensity of an input of"
                   f" width {width}; use a narrower input or a larger total"
                   " rate\n")
    assert not (tmp_path / "verify.json").exists()


def test_outdir_environment_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path))
    with coarse_emit():
        run_ok(["emit", "--set", "n_omegabar=32", "--set", "n_delta=16"],
               capsys)
    assert (tmp_path / "emission.csv").exists()


# The coupling each --set list configures, as the library builds it.
_EMIT_CASES = {
    "isotropic-gaussian": (
        ("n_omegabar=64", "n_delta=32"),
        CouplingSpec.isotropic(0.004, Envelope.gaussian(0.02)), 64, 32),
    "anisotropic-lorentzian": (
        ("omega0=1.7", "rates=0.001,0.0015,0.0015,0.0005",
         "envelope=lorentzian", "envelope_width=0.01",
         "n_omegabar=40", "n_delta=16"),
        CouplingSpec(1.7, {DirectionPair.PP: 0.001, DirectionPair.PM: 0.0015,
                           DirectionPair.MP: 0.0015, DirectionPair.MM: 0.0005},
                     Envelope.lorentzian(0.01)), 40, 16),
    "mirror": (
        ("rates=mirror", "n_omegabar=48", "n_delta=24"),
        CouplingSpec.mirror(0.004, Envelope.gaussian(0.02)), 48, 24),
    # 64 differences put 32 sum rows in a write chunk: the third is partial.
    "partial-chunk": (
        ("n_omegabar=67", "n_delta=64"),
        CouplingSpec.isotropic(0.004, Envelope.gaussian(0.02)), 67, 64),
}


def _rows_of(data):
    """The chunk callable of ``cli._write_joint_csv`` for a whole
    ``(4, n_omegabar, n_delta)`` array."""
    return lambda pair, rows: data[pair.index, rows]


def _check_emit_is_joint_spectrum(outdir, overrides, coupling, n_omegabar,
                                  n_delta):
    """Run emit with ``overrides``: its JSON values, printed line and CSV
    bytes must be those of the whole-array emission expressions
    (``whole_array_spectrum``) on the same grid, whose whole array the
    writer writes."""
    args = ["emit", "--outdir", str(outdir / "cli")]
    for override in overrides:
        args += ["--set", override]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), coarse_emit():
        assert cli.run(args) == 0
    grid = coarse_emission_grid(coupling, n_omegabar, n_delta)
    data, _, mass, corr = whole_array_spectrum(coupling, grid)
    total = emission._total_probability(coupling, grid, mass)
    payload = json.loads((outdir / "cli" / "emission.json").read_text())
    assert payload["total_probability"]["value"].hex() == total.hex()
    assert payload["spectrum_correlation"]["value"].hex() == corr.hex()
    assert out.getvalue() == (f"emit: total_rate={coupling.total_rate:g} "
                              f"P_total={total:.6f} correlation={corr:+.4f}\n")
    expected = outdir / "expected.csv"
    cli._write_joint_csv(expected, grid, _rows_of(data), coupling.omega0,
                         cli._first_alike(data))
    assert (outdir / "cli" / "emission.csv").read_bytes() \
        == expected.read_bytes()


@pytest.mark.parametrize("name", _EMIT_CASES)
def test_emit_summaries_and_map_are_those_of_joint_spectrum(tmp_path, name):
    _check_emit_is_joint_spectrum(tmp_path, *_EMIT_CASES[name])


def test_emit_walks_the_row_chunks_twice(tmp_path, monkeypatch):
    # Both summaries come from one pair of walks over the row chunks: the
    # moments, then the spread about the mean.  67 rows of 64 differences
    # are three chunks, the last one partial.
    calls = []
    total_density = emission.EmissionSpectrum.total_density

    def counted(self, rows=slice(None)):
        calls.append(rows)
        return total_density(self, rows)

    monkeypatch.setattr(emission.EmissionSpectrum, "total_density", counted)
    with coarse_emit():
        assert cli.run(["emit", "--outdir", str(tmp_path),
                        "--set", "n_omegabar=67", "--set", "n_delta=64"]) == 0
    coupling = CouplingSpec.isotropic(0.004, Envelope.gaussian(0.02))
    chunks = spectral._row_chunks(coarse_emission_grid(coupling, 67, 64))
    assert len(chunks) == 3
    assert calls == chunks + chunks


_WIDE = spectral._CHUNK_POINTS + 3   # more differences than the kernel formats


@settings(max_examples=20)
@given(kind=st.sampled_from(("gaussian", "lorentzian")),
       rates=st.one_of(
           st.sampled_from(("isotropic", "mirror")),
           # ++, the two equal cross rates and --.
           st.tuples(*[st.sampled_from((0.0, 0.0005, 0.001, 0.0025))] * 3)
           .filter(any).map(lambda r: (r[0], r[1], r[1], r[2]))),
       shape=st.one_of(st.tuples(st.integers(2, 70), st.integers(2, 80)),
                       st.tuples(st.integers(2, 3), st.just(_WIDE))))
# A zero rate; 67 rows of 64 differences (a partial last chunk); rows
# wider than the kernel; two sum rows.
@example(kind="gaussian", rates=(0.001, 0.0, 0.0, 0.0025), shape=(67, 64))
@example(kind="lorentzian", rates="mirror", shape=(3, _WIDE))
@example(kind="gaussian", rates="isotropic", shape=(2, 2))
def test_streamed_emit_is_joint_spectrum(kind, rates, shape):
    omega0, width = 1.3, 0.01
    envelope = getattr(Envelope, kind)(width)
    if rates == "isotropic":
        coupling = CouplingSpec.isotropic(0.004, envelope, omega0)
    elif rates == "mirror":
        coupling = CouplingSpec.mirror(0.004, envelope, omega0)
    else:
        coupling = CouplingSpec(omega0, dict(zip(spectral.PAIRS, rates)),
                                envelope)
    overrides = [f"omega0={omega0}", f"envelope={kind}",
                 f"envelope_width={width}", f"n_omegabar={shape[0]}",
                 f"n_delta={shape[1]}",
                 "rates=" + (rates if isinstance(rates, str)
                             else ",".join(map(repr, rates)))]
    with tempfile.TemporaryDirectory() as outdir:
        _check_emit_is_joint_spectrum(pathlib.Path(outdir), overrides,
                                      coupling, *shape)


def _emit_peak(outdir, n_omegabar, n_delta):
    """Traced Python memory peak of one emit run on the given grid."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["emit", "--outdir", str(outdir),
                            "--set", f"n_omegabar={n_omegabar}",
                            "--set", f"n_delta={n_delta}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_emit_holds_no_four_channel_array(tmp_path):
    # Two grids 16 times apart in points: each chunk of the first is one
    # sum row of more differences than the kernel formats at once, each
    # chunk of the second 8 sum rows of 256.  Emit holds one chunk of rows
    # at a time, and of the block that isotropic emission copies a byte a
    # point (0.14 MB here; ``test_joint_csv_keeps_a_byte_a_point_of_each_
    # copied_block`` bounds it); one channel block of the second grid is
    # 2.2 MB, its four-channel array 8.9 MB.
    cli._g12_tables()   # built once per process, not part of the bound
    n_delta = spectral._CHUNK_POINTS + 128
    with coarse_emit():
        small = _emit_peak(tmp_path / "small", 4, n_delta)
    large = _emit_peak(tmp_path / "large", n_delta // 4, 256)
    assert (n_delta // 4) * 256 == 16 * 4 * n_delta
    assert small < 5e6 and large < 5e6
    assert abs(large - small) < 0.5e6


def _writer_peak(path, n_omegabar, first):
    """Traced Python memory peak of ``cli._write_joint_csv`` writing
    ``n_omegabar`` sum rows of 256 differences, whose channels repeat as
    ``first`` says; the amplitudes are made before tracing starts."""
    grid = FrequencyGrid(np.linspace(0.5, 1.5, n_omegabar),
                         np.linspace(0.0, 0.2, 256))
    rng = np.random.default_rng(n_omegabar)
    data = rng.standard_normal((4, n_omegabar, 256, 2)).view(complex)[..., 0]
    data = data[list(first)]
    tracemalloc.start()
    try:
        cli._write_joint_csv(path, grid, _rows_of(data), 1.0, first)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# kept: blocks that a later channel copies.
@pytest.mark.parametrize("first, kept", [
    ((0, 1, 2, 3), 0), ((0, 0, 0, 0), 1), ((0, 1, 1, 1), 1),
    ((0, 1, 1, 3), 1), ((0, 1, 0, 1), 2)])
def test_joint_csv_keeps_a_byte_a_point_of_each_copied_block(tmp_path,
                                                             first, kept):
    # Both grids have chunks of 8 rows of 256 differences, so the kernel's
    # work arrays are alike; the larger has 480 * 256 more points.  Of a
    # block that a later channel copies, the writer keeps the label steps
    # of each piece (one byte a point) with its offset and size; of any
    # other block, nothing.
    # A first write builds what the process keeps between writes.
    _writer_peak(tmp_path / "warm.csv", 32, first)
    points = 480 * 256
    growth = _writer_peak(tmp_path / "large.csv", 512, first) \
        - _writer_peak(tmp_path / "small.csv", 32, first)
    # The chunk list adds about 0.08 bytes a point at these shapes.
    assert kept * points <= growth < (1.25 * kept + 0.25) * points


def _g12(x):
    return format(float(x), ".12g")


def _reference_joint_csv(path, grid, data, omega0):
    """Row-by-row joint-spectrum writer through numpy scalars; the output
    contract that ``cli._write_joint_csv`` must reproduce byte for byte."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("omega,omega_prime,channel,abs2,re,im\n")
        for pair in spectral.PAIRS:
            block = data[pair.index]
            for i, ob in enumerate(grid.omegabar):
                for j, dd in enumerate(grid.delta):
                    w1 = 0.5 * (ob - dd) / omega0
                    w2 = 0.5 * (ob + dd) / omega0
                    amp = block[i, j]
                    fh.write(f"{_g12(w1)},{_g12(w2)},{pair.value},"
                             f"{_g12(abs(amp) ** 2)},{_g12(amp.real)},"
                             f"{_g12(amp.imag)}\n")


def _emission_case():
    coupling = CouplingSpec.isotropic(0.004, Envelope.gaussian(0.02))
    # 64 differences put 32 sum-frequency rows in a write chunk: 67 rows
    # make two full chunks and a partial one.
    grid = coarse_emission_grid(coupling, 67, 64)
    return grid, emission.joint_spectrum(coupling, grid).data, 1.0


def _anisotropic_lorentzian_case():
    coupling = CouplingSpec(1.7, {
        DirectionPair.PP: 0.001, DirectionPair.PM: 0.0015,
        DirectionPair.MP: 0.0015, DirectionPair.MM: 0.0005},
        Envelope.lorentzian(0.01))
    grid = coarse_emission_grid(coupling, 40, 16)
    return grid, emission.joint_spectrum(coupling, grid).data, 1.7


def _scatter_case():
    coupling = CouplingSpec.mirror(0.004, Envelope.gaussian(0.02))
    state = spectral.gaussian_biphoton(DirectionPair.PP, 1.002, 0.02, 0.01)
    grid = FrequencyGrid.for_scattering(coupling, 0.02, 67, 16)
    out = scattering.scatter(coupling, state).output_on(grid)
    return grid, out.data, 1.0


def _special_values_case():
    grid = FrequencyGrid(np.array([-1.0, -0.0, 1.0, 2.0]),
                         np.array([0.0, 0.5, 1.0, 1.5]))
    specials = [-0.0, complex(-0.0, -0.0), 5e-324, complex(1e-310, -2e-320),
                math.nan, complex(math.inf, -math.inf), complex(math.inf,
                                                                math.nan),
                1e200, complex(0.0, -1e200), complex(1e154, 1e154),
                complex(1.5, -2.25), complex(-1e-12, 3e7),
                # numpy's vectorized abs rounds these differently from
                # the scalar hypot, by one unit in the 12th digit of abs2.
                complex(-191130.81865948136, -836141.5845932174),
                complex(-0.0007617009494074662, -0.0002025792426095643),
                complex(372291820.35124075, -53923672.204881),
                complex(2.0207938943229758e-10, 2.8028833685977147e-09)]
    data = np.zeros((4, 4, 4), dtype=complex)
    data[:] = np.reshape(specials, (4, 4))
    data[1] = -data[1]
    return grid, data, 0.5


def _anisotropic_gaussian_case():
    # Only the cross channels are equal; the zero-rate -- block is not
    # equal to them.  67 rows of 64 differences: copies span three write
    # chunks.
    coupling = CouplingSpec(1.0, {
        DirectionPair.PP: 0.003, DirectionPair.PM: 0.0005,
        DirectionPair.MP: 0.0005, DirectionPair.MM: 0.0},
        Envelope.gaussian(0.02))
    grid = coarse_emission_grid(coupling, 67, 64)
    return grid, emission.joint_spectrum(coupling, grid).data, 1.0


def _isotropic_scatter_case():
    # The default scatter configuration: the three channels the input
    # does not occupy are equal, so three of four blocks are.
    coupling = CouplingSpec.isotropic(0.004, Envelope.gaussian(0.02))
    state = spectral.gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
    grid = FrequencyGrid.for_scattering(coupling, 0.02, 67, 16)
    out = scattering.scatter(coupling, state).output_on(grid)
    return grid, out.data, 1.0


def _repeated_specials_case():
    # The special values on every sum row of three write chunks (67 rows of
    # 64 differences), with ++ repeated as -+ and +- as --: rows whose
    # abs2 overflows, and nan and inf rows, are copied rather than
    # formatted.
    _, data, _ = _special_values_case()
    grid = FrequencyGrid.regular(0.5, 0.5, 1.5, 67, 64)
    block = np.resize(data[0], (67, 64))
    return grid, np.stack([block, -block, block, -block]), 0.5


def _signed_zero_case():
    # +- differs from ++ only in the sign of its zero imaginary parts:
    # equal as complex numbers, yet "0" and "-0" in the file.
    grid = FrequencyGrid(np.array([0.5, 1.0, 1.5]), np.array([0.0, 0.25]))
    block = np.array([[0.0, 1.5], [-0.25, 2.0], [3.0, 0.0]], dtype=complex)
    assert np.array_equal(block, np.conj(block))
    return grid, np.stack([block, np.conj(block), block, np.conj(block)]), 1.0


# Values %.12g rounds at or next to a tie (the last two are decimal ties
# that one float64 multiply by a power of ten rounds to the wrong side),
# or with a carry; values at the edges of its fixed notation, subnormals,
# and the values with fixed layouts.
_G12_EDGES = (123456789012.5, 9.9999999999995, 905.9034154725,
              5.557465012795e-05, 999999999999.5, 1e-4,
              9.99999999999949e-5, 1e11, 1e12, 1e16, 5e-324,
              2.225073858507201e-308, 1.7976931348623157e308, 0.0,
              math.inf, math.nan)
_G12_EDGES += tuple(-x for x in _G12_EDGES)


def _g12_edges_case():
    # 80 differences put 25 sum rows in a write chunk: 67 rows take three.
    grid = FrequencyGrid(np.linspace(0.5, 1.5, 67), np.linspace(0.0, 0.2, 80))
    rng = np.random.default_rng(12)
    data = np.empty((4, 67, 80), dtype=complex)
    data.real = rng.choice(_G12_EDGES, data.shape)
    data.imag = rng.choice(_G12_EDGES, data.shape)
    return grid, data, 1.0


def _wide_delta_case():
    # More differences than the kernel formats at once: each write chunk is
    # one sum row, split by the kernel inside the row, and the equal ++,
    # +- and -- blocks are copied across that split.
    n_delta = spectral._CHUNK_POINTS + 4
    grid = FrequencyGrid(np.array([0.5, 1.0, 1.5]),
                         np.linspace(0.0, 0.2, n_delta))
    rng = np.random.default_rng(4100)
    block = rng.normal(size=(3, n_delta)) + 1j * rng.normal(size=(3, n_delta))
    return grid, np.stack([block, block, -block, block]), 1.0


def _last_chunk_differs_case():
    # 67 rows of 64 differences are written in three chunks; -+ and --
    # equal ++ and +- in the first two and differ from them in one value
    # of the last, so all four blocks are formatted.
    grid = FrequencyGrid(np.linspace(0.5, 1.5, 67), np.linspace(0.0, 0.2, 64))
    rng = np.random.default_rng(67)
    block = rng.normal(size=(67, 64)) + 1j * rng.normal(size=(67, 64))
    other = block.copy()
    other[-1, 5] += 1e-9
    return grid, np.stack([block, -block, other, -other]), 1.0


def _last_chunk_signed_zero_case():
    # As above, with the last chunks differing only in the sign of one zero
    # imaginary part: equal as complex numbers, yet "0" and "-0" in the
    # file.
    grid, data, omega0 = _last_chunk_differs_case()
    data[2:] = data[:2]
    data[0, -1, 7] = complex(data[0, -1, 7].real, 0.0)
    data[2, -1, 7] = complex(data[0, -1, 7].real, -0.0)
    return grid, data, omega0


_JOINT_CASES = [
    _emission_case, _anisotropic_lorentzian_case, _scatter_case,
    _special_values_case, _anisotropic_gaussian_case, _isotropic_scatter_case,
    _repeated_specials_case, _signed_zero_case, _g12_edges_case,
    _wide_delta_case, _last_chunk_differs_case, _last_chunk_signed_zero_case]


@pytest.mark.parametrize("case", _JOINT_CASES)
def test_joint_csv_matches_row_by_row_writer(tmp_path, case):
    grid, data, omega0 = case()
    expected, actual = tmp_path / "expected.csv", tmp_path / "actual.csv"
    with np.errstate(over="ignore"):
        _reference_joint_csv(expected, grid, data, omega0)
    cli._write_joint_csv(actual, grid, _rows_of(data), omega0,
                         cli._first_alike(data))
    assert actual.read_bytes() == expected.read_bytes()


def test_joint_csv_writes_overflowing_abs2_as_inf(tmp_path):
    grid, data, omega0 = _special_values_case()
    path = tmp_path / "special.csv"
    cli._write_joint_csv(path, grid, _rows_of(data), omega0,
                         cli._first_alike(data))
    rows = path.read_text().splitlines()[1:]
    assert rows[0] == "-1,-1,++,0,-0,0"
    assert rows[4] == "-0,0,++,nan,nan,0"
    assert rows[7] == "-1.5,1.5,++,inf,1e+200,0"
    assert rows[8] == "1,1,++,inf,0,-1e+200"
    assert rows[9] == "0.5,1.5,++,inf,1e+154,1e+154"
    assert rows[16 + 7] == "-1.5,1.5,+-,inf,-1e+200,-0"


# distinct: channel blocks that differ bitwise from every earlier block.
@pytest.mark.parametrize("case, distinct", [
    (_emission_case, 1), (_anisotropic_lorentzian_case, 3),
    (_scatter_case, 2), (_special_values_case, 2),
    (_anisotropic_gaussian_case, 3), (_isotropic_scatter_case, 2),
    (_repeated_specials_case, 2), (_signed_zero_case, 2),
    (_g12_edges_case, 4), (_wide_delta_case, 2),
    (_last_chunk_differs_case, 4), (_last_chunk_signed_zero_case, 3)])
def test_joint_csv_formats_each_distinct_block_once(tmp_path, monkeypatch,
                                                     case, distinct):
    # Isotropic emission formats 67 * 64 rows, not 4 * 67 * 64; the other
    # blocks are copied from the file and never asked for.  Each chunk of
    # rows is asked for once per channel formatted.  A formatted block is
    # written in one run: each chunk is asked for and formatted, in order,
    # with nothing between.
    grid, data, omega0 = case()
    first = cli._first_alike(data)
    assert len(set(first)) == distinct
    chunks = [rows.start for rows in spectral._row_chunks(grid)]
    formatted = []
    events = []   # channel labels of formatted chunks, (pair, row) calls
    joint_lines = cli._joint_lines

    def counted(template, w1, w2, amps, buf):
        text = joint_lines(template, w1, w2, amps, buf)
        formatted.append(len(w1))
        events.append(template)
        return text

    def block(pair, rows):
        events.append((pair, rows.start))
        return data[pair.index, rows]

    monkeypatch.setattr(cli, "_joint_lines", counted)
    cli._write_joint_csv(tmp_path / "joint.csv", grid, block, omega0, first)
    assert sum(formatted) == distinct * data[0].size
    calls = [e for e in events if isinstance(e, tuple)]
    sources = [spectral.PAIRS[i] for i in sorted(set(first))]
    assert calls == [(pair, start) for pair in sources for start in chunks]
    for pair in sources:
        start = events.index(pair.value) - 1
        run = events[start:start + 2 * len(chunks)]
        assert run == [event for start in chunks
                       for event in ((pair, start), pair.value)]


_float_bits = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.uint64(bits).view(np.float64)))
_g12_values = st.one_of(_float_bits, st.sampled_from(_G12_EDGES))


@given(st.lists(st.tuples(_g12_values, _g12_values, _g12_values, _g12_values),
                min_size=1, max_size=40))
@example([(x, -x, x, -x) for x in _G12_EDGES])
def test_joint_lines_write_each_value_as_g12(rows):
    w1, w2, re, im = np.array(rows).T
    amps = np.empty(len(rows), dtype=complex)
    amps.real, amps.imag = re, im
    with np.errstate(over="ignore"):
        lines = [f"{x:.12g},{y:.12g},-+,{abs(amp) ** 2:.12g},{amp.real:.12g},"
                 f"{amp.imag:.12g}\n" for x, y, amp in zip(w1, w2, amps)]
    (text, steps), = cli._joint_lines("-+", w1, w2, amps)
    assert text == "".join(lines).encode()
    # The steps sum to where each row's ",-+," begins.
    starts = np.cumsum([0] + [len(line) for line in lines[:-1]])
    assert np.cumsum(steps).tolist() == [
        start + len(x) + len(y) + 1 for start, (x, y, _) in zip(
            starts.tolist(), (line.split(",", 2) for line in lines))]
    assert steps.dtype == np.uint8


# A value of each length class: a leading "-", "e-05" and "e+100"
# exponents, signed zeros, nan and both infinities.
_COPY_VALUES = (-1.5, 0.25, -2.5e-05, 3.0000000000125e-05, 1e100,
                -7.123456789012e+100, -0.0, 0.0, math.nan, math.inf,
                -math.inf, -123.456)


@pytest.mark.parametrize("wide", [False, True], ids=["chunks", "wide-row"])
@pytest.mark.parametrize("earlier, later", [
    (a, b) for i, a in enumerate(spectral.PAIRS)
    for b in spectral.PAIRS[i + 1:]], ids=lambda pair: pair.value)
def test_joint_csv_copies_a_block_under_each_later_label(
        tmp_path, monkeypatch, earlier, later, wide):
    # The later block repeats the earlier one and is copied from the file
    # with its label patched; the other three are formatted.  67 rows of
    # 40 differences take a write chunk of 51 rows and a partial one of
    # 16; rows wider than the kernel are split inside the row.
    n_omegabar, n_delta = (3, spectral._CHUNK_POINTS + 3) if wide else (67, 40)
    grid = FrequencyGrid(np.linspace(0.5, 1.5, n_omegabar),
                         np.linspace(0.0, 0.2, n_delta))
    rng = np.random.default_rng(36)
    data = np.empty((4, n_omegabar, n_delta), dtype=complex)
    data.real = rng.choice(_COPY_VALUES, data.shape)
    data.imag = rng.choice(_COPY_VALUES, data.shape)
    data[later.index] = data[earlier.index]
    formatted = []
    joint_lines = cli._joint_lines

    def counted(label, w1, w2, amps, buf):
        formatted.append(len(w1))
        return joint_lines(label, w1, w2, amps, buf)

    monkeypatch.setattr(cli, "_joint_lines", counted)
    expected, actual = tmp_path / "expected.csv", tmp_path / "actual.csv"
    with np.errstate(over="ignore"):
        _reference_joint_csv(expected, grid, data, 1.0)
    cli._write_joint_csv(actual, grid, _rows_of(data), 1.0,
                         cli._first_alike(data))
    assert sum(formatted) == 3 * data[0].size
    assert actual.read_bytes() == expected.read_bytes()


@given(values=st.lists(_g12_values, min_size=8, max_size=8),
       first=st.tuples(*[st.integers(0, i) for i in range(4)]),
       shape=st.tuples(st.integers(2, 5), st.integers(2, 9)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_joint_csv_copies_drawn_values_as_g12(values, first, shape, seed):
    # Each channel repeats the block of the channel ``first`` names, or
    # is drawn afresh where that is itself.
    grid = FrequencyGrid(np.linspace(0.5, 1.5, shape[0]),
                         np.linspace(0.0, 0.2, shape[1]))
    rng = np.random.default_rng(seed)
    data = np.empty((4,) + shape, dtype=complex)
    data.real = rng.choice(values, data.shape)
    data.imag = rng.choice(values, data.shape)
    for i, j in enumerate(first):
        data[i] = data[j]
    with tempfile.TemporaryDirectory() as outdir:
        expected = pathlib.Path(outdir) / "expected.csv"
        actual = pathlib.Path(outdir) / "actual.csv"
        with np.errstate(over="ignore"):
            _reference_joint_csv(expected, grid, data, 1.0)
        cli._write_joint_csv(actual, grid, _rows_of(data), 1.0,
                             cli._first_alike(data))
        assert actual.read_bytes() == expected.read_bytes()


_abs2_parts = st.one_of(_float_bits, st.floats(-1e9, 1e9), st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e-160, 1e154, 1.4e154,
     1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan)))


@given(st.lists(st.tuples(_abs2_parts, _abs2_parts), min_size=1, max_size=40))
# numpy's complex abs and its square round these differently.
@example([(-191130.81865948136, -836141.5845932174),
          (-0.0007617009494074662, -0.0002025792426095643),
          (372291820.35124075, -53923672.204881),
          (2.0207938943229758e-10, 2.8028833685977147e-09)])
@example([(1.4e154, 0.0), (0.0, math.nan), (math.inf, math.nan),
          (math.nan, -math.inf), (1e308, 1e308)])
def test_joint_lines_abs2_has_the_bits_of_python_abs_squared(parts):
    re, im = np.array(parts).T
    amps = np.empty(len(parts), dtype=complex)
    amps.real, amps.imag = re, im
    expected = []
    for x, y in parts:
        # CPython's complex abs returns nan for a nan part without clearing
        # errno, so right after an overflow it raises for that nan too.
        if (math.isnan(x) or math.isnan(y)) \
                and not (math.isinf(x) or math.isinf(y)):
            expected.append(math.nan)
            continue
        try:
            expected.append(abs(complex(x, y)) ** 2)
        except OverflowError:
            expected.append(math.inf)
    formatted = []
    with mock.patch.object(cli, "_g12_lines",
                           lambda x, seps, buf: formatted.append(x.copy())):
        cli._joint_lines("++", re, re, amps)
    abs2 = formatted[0][:, 2]
    assert [math.isnan(v) or v.hex() for v in expected] \
        == [math.isnan(v) or v.hex() for v in abs2.tolist()]


def test_rows_csv_writes_each_value_as_g12(tmp_path):
    for width in (2, 3):
        header = [f"c{i}" for i in range(width)]
        rows = np.resize(_G12_EDGES, (len(_G12_EDGES), width)).tolist()
        cli._write_rows_csv(tmp_path / "rows.csv", header, rows)
        assert (tmp_path / "rows.csv").read_text() == "".join(
            ",".join(row) + "\n" for row in [header, *(
                map(_g12, values) for values in rows)])
