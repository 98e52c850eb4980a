"""Command-line interface: configs, outputs, determinism, exit codes."""

import configparser
import json
import math

import numpy as np
import pytest

from quadwg import cli, emission, scattering, spectral
from quadwg.spectral import CouplingSpec, DirectionPair, Envelope, FrequencyGrid


def run_ok(args, capsys):
    code = cli.run(args)
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


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


def test_unknown_key_reports_file_and_line(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[scatter]\nsum_width = 0.03\nbogus_key = 1\n")
    assert cli.run(["scatter", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'bogus_key'" in err
    assert f"{config}:3:" in err


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
    ("scatter", "total_rate=inf", "rates['++'] must be finite, got inf"),
    ("scatter", "omega0=inf", "omega0 must be finite, got inf"),
    ("scatter", "rates=0.001,0.0015,0.0015,inf",
     "rates['--'] must be finite, got inf"),
    ("scatter", "envelope_width=inf", "envelope width must be finite, got inf"),
    ("emit", "total_rate=nan", "rates['++'] must be finite, got nan"),
])
def test_typed_value_diagnostics(tmp_path, capsys, command, override,
                                 message):
    assert cli.run([command, "--set", override,
                    "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_gate_at_large_ratio_succeeds(tmp_path, capsys):
    out = run_ok(["gate", "--outdir", str(tmp_path),
                  "--set", "ratios=1e6", "--set", "report_ratio=1e6"], capsys)
    assert out.startswith("gate:")


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


@pytest.mark.parametrize("command", ["emit", "scatter"])
def test_overflowing_envelope_density_is_a_config_error(tmp_path, capsys,
                                                        command):
    assert cli.run([command, "--set", "envelope_width=1e-160",
                    "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "peak density overflows" in err
    assert "Traceback" not in err


def test_narrow_lorentzian_envelope_is_transparent(tmp_path, capsys):
    out = run_ok(["scatter", "--outdir", str(tmp_path),
                  "--set", "envelope=lorentzian",
                  "--set", "envelope_width=1e-160",
                  "--set", "n_omegabar=16", "--set", "n_delta=8"], capsys)
    assert "R=0.0000 S=0.0000 T=1.0000 sum=1.000000" in out


def test_numerical_failure_exits_2(tmp_path, capsys):
    # A difference profile centred far outside its window has zero norm:
    # the configuration parses, the computation fails.
    assert cli.run(["scatter", "--outdir", str(tmp_path),
                    "--set", "diff_center=50", "--set", "diff_width=0.001",
                    "--set", "n_omegabar=16", "--set", "n_delta=8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "zero norm" in err


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


def test_outdir_environment_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path))
    run_ok(["emit", "--set", "n_omegabar=32", "--set", "n_delta=16"], capsys)
    assert (tmp_path / "emission.csv").exists()


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
                    fh.write(f"{cli._fmt(w1)},{cli._fmt(w2)},{pair.value},"
                             f"{cli._fmt(abs(amp) ** 2)},{cli._fmt(amp.real)},"
                             f"{cli._fmt(amp.imag)}\n")


def _emission_case():
    coupling = CouplingSpec.isotropic(0.004, Envelope.gaussian(0.02))
    # 67 sum-frequency rows: one full write chunk and a partial one.
    grid = emission.default_emission_grid(coupling, 67, 24)
    return grid, emission.joint_spectrum(coupling, grid).data, 1.0


def _anisotropic_lorentzian_case():
    coupling = CouplingSpec(1.7, {
        DirectionPair.PP: 0.001, DirectionPair.PM: 0.0015,
        DirectionPair.MP: 0.0015, DirectionPair.MM: 0.0005},
        Envelope.lorentzian(0.01))
    grid = emission.default_emission_grid(coupling, 40, 16)
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
    # equal to them.  67 rows: copies span two write chunks.
    coupling = CouplingSpec(1.0, {
        DirectionPair.PP: 0.003, DirectionPair.PM: 0.0005,
        DirectionPair.MP: 0.0005, DirectionPair.MM: 0.0},
        Envelope.gaussian(0.02))
    grid = emission.default_emission_grid(coupling, 67, 24)
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
    # The special values on every sum row of two write chunks, with ++
    # repeated as -+ and +- as --: rows whose abs2 overflows, and nan
    # and inf rows, are copied rather than formatted.
    _, data, _ = _special_values_case()
    grid = FrequencyGrid.regular(0.5, 0.5, 1.5, 67, 16)
    block = np.resize(data[0], (67, 16))
    return grid, np.stack([block, -block, block, -block]), 0.5


def _signed_zero_case():
    # +- differs from ++ only in the sign of its zero imaginary parts:
    # equal as complex numbers, yet "0" and "-0" in the file.
    grid = FrequencyGrid(np.array([0.5, 1.0, 1.5]), np.array([0.0, 0.25]))
    block = np.array([[0.0, 1.5], [-0.25, 2.0], [3.0, 0.0]], dtype=complex)
    assert np.array_equal(block, np.conj(block))
    return grid, np.stack([block, np.conj(block), block, np.conj(block)]), 1.0


_JOINT_CASES = [
    _emission_case, _anisotropic_lorentzian_case, _scatter_case,
    _special_values_case, _anisotropic_gaussian_case, _isotropic_scatter_case,
    _repeated_specials_case, _signed_zero_case]


@pytest.mark.parametrize("case", _JOINT_CASES)
def test_joint_csv_matches_row_by_row_writer(tmp_path, case):
    grid, data, omega0 = case()
    expected, actual = tmp_path / "expected.csv", tmp_path / "actual.csv"
    with np.errstate(over="ignore"):
        _reference_joint_csv(expected, grid, data, omega0)
    cli._write_joint_csv(actual, grid, data, omega0)
    assert actual.read_bytes() == expected.read_bytes()


def test_joint_csv_writes_overflowing_abs2_as_inf(tmp_path):
    grid, data, omega0 = _special_values_case()
    path = tmp_path / "special.csv"
    cli._write_joint_csv(path, grid, data, omega0)
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
    (_repeated_specials_case, 2), (_signed_zero_case, 2)])
def test_joint_csv_formats_each_distinct_block_once(tmp_path, monkeypatch,
                                                     case, distinct):
    # Isotropic emission formats 67 * 24 rows, not 4 * 67 * 24; the other
    # blocks are copied from the file.
    grid, data, omega0 = case()
    formatted = []
    joint_lines = cli._joint_lines

    def counted(template, w1, w2, amps):
        text = joint_lines(template, w1, w2, amps)
        formatted.append(len(w1))
        return text

    monkeypatch.setattr(cli, "_joint_lines", counted)
    cli._write_joint_csv(tmp_path / "joint.csv", grid, data, omega0)
    assert sum(formatted) == distinct * data[0].size
