"""Checks of the benchmark's closed forms against brute-force quadrature.

Run with ``python3 -m pytest perfbench/test_refs.py -q``.  Every integral
is evaluated by the trapezoid rule on a grid fine enough to resolve the
narrowest feature of its integrand; nothing here imports quadwg.
"""

import functools
import math

import numpy as np
import pytest

import refs


def trapz(y, x, axis=-1):
    return np.trapezoid(y, x, axis=axis)


def gaussian_intensity(x, center, sigma):
    return np.exp(-((x - center) ** 2) / (2 * sigma * sigma)) \
        / (sigma * math.sqrt(2 * math.pi))


@pytest.mark.parametrize("sigma,a,detuning", [
    (0.02, 0.002, 0.0), (0.01, 0.005, 0.013), (0.003, 0.02, -0.004)])
def test_voigt_j_matches_quadrature(sigma, a, detuning):
    x = np.linspace(detuning - 14 * sigma, detuning + 14 * sigma, 2_000_001)
    brute = trapz(gaussian_intensity(x, detuning, sigma) / (a * a + x * x), x)
    assert refs.voigt_j(sigma, a, detuning) == pytest.approx(brute, rel=1e-9)


def folded_profile(delta, sigma, center):
    raw = np.exp(-((delta - center) ** 2) / (4 * sigma ** 2)) \
        + np.exp(-((delta + center) ** 2) / (4 * sigma ** 2))
    return raw / math.sqrt(trapz(raw * raw, delta))


@pytest.mark.parametrize("beta,sigma,center", [
    (0.02, 0.02, 0.0), (0.01, 0.03, 0.0), (0.03, 0.008, 0.025)])
def test_gaussian_envelope_overlaps_match_quadrature(beta, sigma, center):
    d = np.linspace(0.0, center + 20 * max(beta, sigma), 400_001)
    u = refs.gaussian_envelope(beta, d)
    assert trapz(u * u, d) == pytest.approx(1.0, rel=1e-10)
    brute = trapz(u * folded_profile(d, sigma, center), d)
    assert refs.folded_gaussian_overlap(beta, sigma, center) == \
        pytest.approx(brute, rel=1e-9)
    if center == 0.0:
        assert refs.gaussian_kappa2(sigma, beta) == pytest.approx(brute ** 2, rel=1e-9)


@pytest.mark.parametrize("width,sigma", [(0.02, 0.02), (0.005, 0.03), (0.05, 0.004)])
def test_lorentzian_overlap_matches_quadrature(width, sigma):
    d = np.linspace(0.0, 16 * sigma, 400_001)
    brute = trapz(refs.lorentzian_envelope(width, d) * folded_profile(d, sigma, 0.0), d)
    assert refs.lorentzian_centered_overlap(width, sigma) == \
        pytest.approx(brute, rel=1e-9)


def brute_scatter_probabilities(rates, channel, envelope, sigma_f, detuning_f,
                                sigma_h, center_h):
    """Apply the rank-one scattering map on a dense (obar, delta) grid."""
    total = sum(rates.values())
    nu = np.linspace(detuning_f - 12 * sigma_f, detuning_f + 12 * sigma_f, 4001)
    d = np.linspace(0.0, center_h + 12 * sigma_h, 801)
    f = np.sqrt(gaussian_intensity(nu, detuning_f, sigma_f))
    h = folded_profile(d, sigma_h, center_h)
    u = envelope(d)
    launched = {channel, refs.SWAPPED[channel]}
    amp = {mu: (f[:, None] * h[None, :] / math.sqrt(len(launched))
                if mu in launched else np.zeros((nu.size, d.size)))
           for mu in refs.CHANNELS}
    denom = total / 2 - 1j * nu
    drive = sum(math.sqrt(rates[mu]) * trapz(u[None, :] * amp[mu], d)
                for mu in refs.CHANNELS) / denom
    norm_in = sum(trapz(trapz(np.abs(amp[mu]) ** 2, d), nu) for mu in refs.CHANNELS)
    # Beyond the input's support only the scattered part remains, and the
    # envelope tail there is integrated on its own geometric grid.
    tail_d = np.geomspace(d[-1], 1e7 * d[-1], 200_001)
    tail = trapz(np.abs(envelope(tail_d)) ** 2, tail_d) * trapz(np.abs(drive) ** 2, nu)
    out = {}
    for mu in refs.CHANNELS:
        c = amp[mu] - math.sqrt(rates[mu]) * drive[:, None] * np.conj(u)[None, :]
        out[mu] = (trapz(trapz(np.abs(c) ** 2, d), nu) + rates[mu] * tail) / norm_in
    return out


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
@pytest.mark.parametrize("channel", ["++", "+-", "--"])
def test_separable_probabilities_match_brute_force_scattering(kind, channel):
    rates = {"++": 0.004, "+-": 0.0015, "-+": 0.0015, "--": 0.001}
    sigma_f, detuning_f, sigma_h = 0.006, 0.003, 0.01
    if kind == "gaussian":
        beta, center_h = 0.012, 0.006
        envelope = functools.partial(refs.gaussian_envelope, beta)
        kappa = refs.folded_gaussian_overlap(beta, sigma_h, center_h)
    else:
        width, center_h = 0.015, 0.0
        envelope = functools.partial(refs.lorentzian_envelope, width)
        kappa = refs.lorentzian_centered_overlap(width, sigma_h)
    closed = refs.separable_channel_probabilities(
        rates, channel, kappa, sigma_f, detuning_f)
    brute = brute_scatter_probabilities(
        rates, channel, envelope, sigma_f, detuning_f, sigma_h, center_h)
    assert sum(closed.values()) == pytest.approx(1.0, abs=1e-12)
    for mu in refs.CHANNELS:
        assert closed[mu] == pytest.approx(brute[mu], rel=1e-5, abs=1e-9)


def test_matched_channels_is_the_isotropic_resonant_case():
    total, sigma, beta = 0.004, 0.02, 0.015
    rates = dict.fromkeys(refs.CHANNELS, total / 4)
    general = refs.separable_channel_probabilities(
        rates, "++", refs.folded_gaussian_overlap(beta, sigma, 0.0), sigma, 0.0)
    r, s, t = refs.matched_channels(total, sigma, beta)
    assert r == pytest.approx(general["--"], rel=1e-12)
    assert s == pytest.approx(general["+-"] + general["-+"], rel=1e-12)
    assert t == pytest.approx(general["++"], rel=1e-12)


@pytest.mark.parametrize("gamma", [0.3, 2.0, 40.0])
def test_gate_overlaps_match_quadrature(gamma):
    fwhm = 1.0
    nu = np.linspace(-400.0, 400.0, 8_000_001)
    bracket = 1.0 - gamma / (gamma / 2 - 1j * nu)
    sigma = refs.gaussian_pulse_sigma(fwhm)
    gauss = gaussian_intensity(nu, 0.0, sigma)
    amp_half = np.exp(-((fwhm / 2) ** 2) / (2 * (sigma * math.sqrt(2)) ** 2))
    assert amp_half == pytest.approx(0.5, rel=1e-12)
    assert refs.gaussian_gate_overlap(gamma, sigma) == \
        pytest.approx(trapz(gauss * bracket, nu).real, abs=1e-9)
    g = fwhm / 2
    lor = (2 * g ** 3 / math.pi) / (nu * nu + g * g) ** 2
    brute = trapz(lor * bracket, nu)
    assert abs(brute.imag) < 1e-9
    assert refs.lorentzian_gate_overlap(gamma, g) == pytest.approx(brute.real, abs=1e-7)


@pytest.mark.parametrize("overlap", [-1.0, -0.3, 0.2 + 0.5j, 0.9, -0.999999 + 1e-4j])
def test_worst_case_fidelity_matches_grid_search(overlap):
    assert refs.worst_case_fidelity(overlap) == pytest.approx(
        refs.bruteforce_worst_case_fidelity(overlap), abs=1e-9)


def test_emitted_amplitude_carries_unit_probability():
    total, omega0, beta = 0.004, 1.0, 0.01
    a = total / 2
    span_ob, span_d = 400 * a, 8 * beta
    ob = np.linspace(omega0 - span_ob, omega0 + span_ob, 400_001)
    d = np.linspace(0.0, span_d, 2001)
    env = functools.partial(refs.gaussian_envelope, beta)
    line = np.abs(refs.emitted_amplitude(total / 4, total, omega0, env, ob, 0.0)) ** 2
    u2 = refs.gaussian_envelope(beta, d) ** 2
    u0 = refs.gaussian_envelope(beta, 0.0) ** 2
    window = 4 * trapz(line, ob) * trapz(u2, d) / u0
    kept = (2 / math.pi) * math.atan(span_ob / a) * math.erf(span_d / (beta * math.sqrt(2)))
    assert window == pytest.approx(kept, rel=1e-8)


def test_filtered_entropy_matches_density_matrix_and_limits():
    total = 1e-3
    for ratio, detuning in ((1e-2, 10.0), (1.0, 3.0), (1e2, 10.0)):
        s = refs.filtered_entropy(total, ratio * total, 1.0, detuning * total)
        wa, wb = 0.5 - detuning * total, 0.5 + detuning * total
        env = functools.partial(refs.lorentzian_envelope, ratio * total)
        m = np.array([[refs.emitted_amplitude(total / 4, total, 1.0, env, x + y, abs(y - x))
                       for y in (wa, wb)] for x in (wa, wb)])
        m = m / np.linalg.norm(m)
        lam = np.clip(np.linalg.eigvalsh(m @ m.conj().T), 1e-300, 1.0)
        assert s == pytest.approx(float(-np.sum(lam * np.log2(lam))), abs=1e-12)
        assert 0.0 <= s <= 1.0 + 1e-12
    assert refs.filtered_entropy(total, 1e-2 * total, 1.0, 10 * total) > 0.95
    assert refs.filtered_entropy(total, 1e2 * total, 1.0, 10 * total) > 0.95


def test_decay_envelope_is_the_excited_population_root():
    total = 0.004
    t = np.linspace(0.0, 5 / total, 1001)
    env = refs.decay_envelope(total, t)
    # d|e|^2/dt = -total |e|^2 with |e(0)| = 1.
    slope = np.gradient(env ** 2, t)
    assert env[0] == 1.0
    assert np.allclose(slope[1:-1], -total * env[1:-1] ** 2, rtol=1e-4)
