"""Independent closed forms used to check quadwg outputs.

Nothing here imports quadwg: every formula is derived from the model's
definitions (unit-mass envelopes on the half line, the resonance
denominator ``total/2 + i (omega0 - obar)``, the mirror factor
``1 - total / (total/2 + i (omega0 - obar))``), so a fault in the library
cannot hide in the reference.  ``test_refs.py`` checks each form against
brute-force numpy quadrature on fine grids.

Notation: ``a = total_rate / 2`` is the resonance half width, ``sigma``
the standard deviation of a Gaussian intensity ``|f|^2``, ``beta`` the
width parameter of a Gaussian coupling envelope and ``w`` the Faddeeva
function ``scipy.special.wofz``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import k0e, wofz

# Direction channels in the order the CSV files list them.
CHANNELS = ("++", "+-", "-+", "--")
SWAPPED = {"++": "++", "+-": "-+", "-+": "+-", "--": "--"}


def gaussian_envelope(beta: float, delta):
    """Gaussian coupling envelope ``u`` with unit half-line mass of ``|u|^2``."""
    delta = np.asarray(delta, dtype=float)
    return (2.0 / (math.pi * beta * beta)) ** 0.25 \
        * np.exp(-delta * delta / (4.0 * beta * beta))


def lorentzian_envelope(width: float, delta):
    """Lorentzian envelope: ``|u|^2`` has full width ``width``, half-line mass one."""
    delta = np.asarray(delta, dtype=float)
    return np.sqrt((width / math.pi) / (width * width / 4.0 + delta * delta))


def voigt_j(sigma: float, a: float, detuning: float = 0.0) -> float:
    """``J = Int |f|^2 / (a^2 + (obar - omega0)^2) d obar``.

    ``|f|^2`` is a unit-mass Gaussian of standard deviation ``sigma``
    centred ``detuning`` away from resonance, so ``J`` is ``pi / a`` times
    a Voigt profile: ``sqrt(pi/2) Re w(z) / (sigma a)`` with
    ``z = (detuning + i a) / (sigma sqrt 2)``.
    """
    z = (detuning + 1j * a) / (sigma * math.sqrt(2.0))
    return math.sqrt(math.pi / 2.0) * float(wofz(z).real) / (sigma * a)


def gaussian_kappa2(sigma: float, beta: float) -> float:
    """Squared overlap of a centred Gaussian difference profile with a
    Gaussian envelope: ``kappa^2 = 2 sigma beta / (sigma^2 + beta^2)``."""
    return 2.0 * sigma * beta / (sigma * sigma + beta * beta)


def folded_gaussian_overlap(beta: float, sigma: float, center: float) -> float:
    """Half-line overlap of a Gaussian envelope with a folded Gaussian.

    The profile is ``A (g(delta - c) + g(delta + c))`` with
    ``g(x) = exp(-x^2 / (4 sigma^2))`` and ``A`` normalizing its half-line
    mass.  Evenness of the envelope turns the half-line integral of the
    folded sum into one full-line Gaussian convolution.
    """
    s2, b2 = sigma * sigma, beta * beta
    mass = sigma * math.sqrt(2.0 * math.pi) \
        * (1.0 + math.exp(-center * center / (2.0 * s2)))
    amp = 1.0 / math.sqrt(mass)
    return amp * (2.0 / (math.pi * b2)) ** 0.25 * 2.0 * sigma * beta \
        * math.sqrt(math.pi / (s2 + b2)) \
        * math.exp(-center * center / (4.0 * (s2 + b2)))


def lorentzian_centered_overlap(width: float, sigma: float) -> float:
    """Half-line overlap of a Lorentzian envelope with a centred Gaussian.

    ``Int_0^inf exp(-p x^2) / sqrt(x^2 + c^2) dx = exp(p c^2/2) K0(p c^2/2) / 2``
    with ``p = 1 / (4 sigma^2)`` and ``c = width / 2``.
    """
    h_amp = (2.0 / (math.pi * sigma * sigma)) ** 0.25
    arg = width * width / (32.0 * sigma * sigma)
    return math.sqrt(width / math.pi) * h_amp * 0.5 * float(k0e(arg))


def separable_channel_probabilities(rates: dict, channel: str, kappa_raw: float,
                                    sigma_f: float, detuning_f: float) -> dict:
    """Outgoing channel probabilities of a normalized separable input.

    ``rates`` maps the four channels to their rates, ``channel`` is the
    launched channel (a cross channel also populates its swapped twin with
    half the norm each), ``kappa_raw`` the overlap of the normalized
    difference profile with the envelope, and the sum factor is a Gaussian
    intensity of width ``sigma_f`` detuned by ``detuning_f``.  The
    scattered part of channel ``mu`` is ``-sqrt(r_mu) w kappa f u / denom``
    with ``w`` the summed root rate of the launched channels, so

        P(mu) = r_mu w^2 kappa^2 J + [mu launched] (1/n - sqrt(r_mu) w kappa^2 total J).
    """
    total = sum(rates.values())
    launched = {channel, SWAPPED[channel]}
    n = len(launched)
    k2 = kappa_raw * kappa_raw / n
    w = sum(math.sqrt(rates[c]) for c in launched)
    j = voigt_j(sigma_f, total / 2.0, detuning_f)
    out = {}
    for mu in CHANNELS:
        p = rates[mu] * w * w * k2 * j
        if mu in launched:
            p += 1.0 / n - math.sqrt(rates[mu]) * w * k2 * total * j
        out[mu] = p
    return out


def matched_reflection(total_rate: float, sigma: float, beta: float) -> float:
    """Reflected (``--``) probability of a resonant Gaussian pair launched on
    ``++`` with isotropic rates: ``(total/4)^2 kappa^2 J``."""
    return (total_rate / 4.0) ** 2 * gaussian_kappa2(sigma, beta) \
        * voigt_j(sigma, total_rate / 2.0)


def matched_channels(total_rate: float, sigma: float, beta: float):
    """``(reflection, splitting, transmission)`` for the isotropic resonant
    Gaussian case: ``(R, 2 R, 1 - 3 R)``."""
    r = matched_reflection(total_rate, sigma, beta)
    return r, 2.0 * r, 1.0 - 3.0 * r


def matched_scatter_amplitude(total_rate: float, sigma: float, beta: float,
                              omega0: float, channel: str, omegabar, delta):
    """Outgoing amplitude for a resonant Gaussian pair launched on ``++``
    with isotropic rates and a Gaussian envelope:
    ``[mu = ++] f h - (total/4) kappa f u / (total/2 + i (omega0 - obar))``.
    """
    omegabar = np.asarray(omegabar, dtype=float)
    f = (2.0 * math.pi * sigma * sigma) ** -0.25 \
        * np.exp(-((omegabar - omega0) ** 2) / (4.0 * sigma * sigma))
    kappa = math.sqrt(gaussian_kappa2(sigma, beta))
    out = -(total_rate / 4.0) * kappa * f * gaussian_envelope(beta, delta) \
        / (0.5 * total_rate + 1j * (omega0 - omegabar))
    if channel == "++":
        out = out + f * gaussian_envelope(sigma, delta)
    return out


def gaussian_gate_overlap(gamma: float, sigma: float) -> float:
    """``Int |f|^2 (1 - gamma / (a - i nu)) d nu`` for a Gaussian intensity:
    ``1 - gamma sqrt(pi/2) w(i a / (sigma sqrt 2)) / sigma``."""
    a = gamma / 2.0
    return 1.0 - gamma * math.sqrt(math.pi / 2.0) \
        * float(wofz(1j * a / (sigma * math.sqrt(2.0))).real) / sigma


def lorentzian_gate_overlap(gamma: float, g: float) -> float:
    """Same overlap for ``f ~ 1 / (nu^2 + g^2)``: by residues at ``nu = i g``,
    ``1 - gamma (a + 2 g) / (a + g)^2``."""
    a = gamma / 2.0
    return 1.0 - gamma * (a + 2.0 * g) / (a + g) ** 2


def gaussian_pulse_sigma(fwhm: float) -> float:
    """Intensity standard deviation of a Gaussian amplitude of full width
    ``fwhm`` at half maximum: ``fwhm / (4 sqrt(ln 2))``."""
    return fwhm / (4.0 * math.sqrt(math.log(2.0)))


def worst_case_fidelity(overlap: complex) -> float:
    """``min over x in [0, 1] of |1 - x (1 + overlap)|^2``: the vertex of the
    quadratic, clipped to the interval."""
    z = 1.0 + complex(overlap)
    if abs(z) == 0.0:
        return 1.0
    x = min(max(z.real / abs(z) ** 2, 0.0), 1.0)
    return abs(1.0 - x * z) ** 2


def bruteforce_worst_case_fidelity(overlap: complex, points: int = 100001) -> float:
    """Grid search of the same minimum over ``points`` occupations."""
    x = np.linspace(0.0, 1.0, points)
    return float(np.min(np.abs(1.0 - x * (1.0 + complex(overlap))) ** 2))


def emitted_amplitude(rate: float, total_rate: float, omega0: float,
                      envelope, omegabar, delta):
    """Emitted pair amplitude on one channel:
    ``i sqrt(rate / 2 pi) conj(u)(delta) / (total/2 - i (obar - omega0))``.

    ``envelope`` is a callable ``u(delta)`` such as
    ``functools.partial(gaussian_envelope, beta)``.
    """
    omegabar = np.asarray(omegabar, dtype=float)
    line = 1.0 / (0.5 * total_rate - 1j * (omegabar - omega0))
    return 1j * math.sqrt(rate / (2.0 * math.pi)) * line \
        * np.conj(envelope(delta))


def filtered_entropy(total_rate: float, width: float, omega0: float,
                     detuning: float) -> float:
    """Entropy (bits) of the counter-propagating pair filtered at
    ``omega0/2 -/+ detuning`` for an isotropic Lorentzian coupling.

    The four filter combinations give a 2x2 amplitude matrix; its squared
    singular values, normalized, are the Schmidt weights.
    """
    wa, wb = 0.5 * omega0 - detuning, 0.5 * omega0 + detuning
    freqs = np.array([wa, wb])
    w1, w2 = np.meshgrid(freqs, freqs, indexing="ij")

    def env(d):
        return lorentzian_envelope(width, d)

    m = emitted_amplitude(total_rate / 4.0, total_rate, omega0, env,
                          w1 + w2, np.abs(w2 - w1))
    weights = np.linalg.svd(m, compute_uv=False) ** 2
    weights = weights / weights.sum()
    weights = weights[weights > 0.0]
    return float(-np.sum(weights * np.log2(weights)))


def decay_envelope(total_rate: float, times):
    """``|emitter amplitude| = exp(-total t / 2)`` of the excited emitter."""
    return np.exp(-0.5 * total_rate * np.asarray(times, dtype=float))
