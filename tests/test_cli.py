"""Command-line interface: configs, outputs, determinism, exit codes."""

import configparser
import json

import pytest

from quadwg import cli


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


def test_sweep_reflection_thread_count_is_immaterial(tmp_path, capsys):
    args = ["--set", "ratios=0.5,1.0,2.0", "--set", "rates=0.004,0.02"]
    out = run_ok(["sweep-reflection", "--outdir", str(tmp_path / "a"),
                  "--threads", "1"] + args, capsys)
    assert out.startswith("sweep-reflection:")
    run_ok(["sweep-reflection", "--outdir", str(tmp_path / "b"),
            "--threads", "2"] + args, capsys)
    for name in ("reflection_sweep.csv", "reflection_sweep.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    header, rows = read_csv(tmp_path / "a" / "reflection_sweep.csv")
    assert header == "total_rate,width_ratio,reflection"
    assert len(rows) == 2 * 3
    payload = json.loads((tmp_path / "a" / "reflection_sweep.json").read_text())
    for peak in payload["peaks"]:
        assert peak["best_ratio"]["value"] == pytest.approx(1.0)


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
])
def test_underflowing_width_is_a_config_error(tmp_path, capsys, command,
                                              override):
    assert cli.run([command, "--set", override,
                    "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "underflows" in err
    assert "Traceback" not in err


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
