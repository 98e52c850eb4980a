"""End-to-end checks, one per release-gate property.

Each test carries an ``acceptance`` marker; the suite prints a one line
pass/fail summary per property after the run.  Runtime ceilings are
asserted where the property quotes one.
"""

import contextlib
import math
import time
import warnings

import numpy as np
import pytest

from conftest import matched_state
from quadwg import (
    CouplingSpec,
    DirectionPair,
    Envelope,
    FrequencyGrid,
    TimeDomainConfig,
    TruncationWarning,
    bell_fidelity,
    channel_probabilities,
    entanglement_entropy,
    entropy_sweeps,
    gate_overlap,
    gaussian_biphoton,
    infidelity_sweep,
    integrate,
    postselect_filtered_state,
    reflection_sweep,
    scatter,
    worst_case_fidelity,
)
from quadwg.emission import default_emission_grid, joint_spectrum, \
    pearson_correlation
from quadwg.entanglement import FilterPair
from quadwg.gate import PulseShape
from quadwg.scattering import gaussian_closed_form
from quadwg.spectral import (
    PAIRS,
    SeparableState,
    decompose,
    gaussian_difference_profile,
    gaussian_sum_spectrum,
)
from quadwg.timedomain import ExcitedEmitter, _scattering_run

GAMMA = 0.004


def isotropic(total=GAMMA, width=0.02, omega0=1.0, kind="gaussian"):
    env = getattr(Envelope, kind)(width)
    return CouplingSpec.isotropic(total, env, omega0)


@pytest.mark.acceptance("matched narrowband input saturates channel bounds")
def test_matched_narrowband_saturates_channel_bounds():
    start = time.monotonic()
    coupling = isotropic()
    probs = channel_probabilities(
        scatter(coupling, matched_state(coupling, GAMMA / 1000)))
    assert probs.reflection == pytest.approx(0.25, abs=5e-3)
    assert probs.splitting == pytest.approx(0.50, abs=5e-3)
    assert probs.transmission == pytest.approx(0.25, abs=5e-3)
    assert time.monotonic() - start < 10.0


@pytest.mark.acceptance("reflection sweep peaks at matched width, saturates")
def test_reflection_sweep_peaks_at_matched_width():
    start = time.monotonic()
    alpha = 2e-5
    ratios = [0.5, 0.8, 1.0, 1.25, 2.0]
    rates = [0.2 * alpha, 10.0 * alpha, 1000.0 * alpha]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # all rates stay in the flat band
        sweep = reflection_sweep(alpha, ratios, rates)
    matched_index = ratios.index(1.0)
    maxima = []
    for row in sweep.reflection:
        assert abs(int(np.argmax(row)) - matched_index) <= 1
        maxima.append(float(row.max()))
    assert maxima[0] < maxima[1] < maxima[2]
    assert maxima[-1] == pytest.approx(0.25, abs=1e-2)
    assert time.monotonic() - start < 60.0


@pytest.mark.acceptance("probabilities conserved for random couplings")
def test_probability_conservation_for_random_couplings():
    start = time.monotonic()
    rng = np.random.default_rng(20250811)
    kinds = ("gaussian", "lorentzian")
    for trial in range(100):
        total = rng.uniform(1e-4, 0.01)
        env = getattr(Envelope, kinds[trial % 2])(rng.uniform(0.005, 0.05))
        parallel = rng.uniform(0.0, 1.0, size=2)
        cross = rng.uniform(0.01, 1.0)
        scale = total / (parallel.sum() + 2 * cross)
        coupling = CouplingSpec(1.0, {
            DirectionPair.PP: scale * parallel[0],
            DirectionPair.MM: scale * parallel[1],
            DirectionPair.PM: scale * cross,
            DirectionPair.MP: scale * cross}, env)
        f, f_win = gaussian_sum_spectrum(
            1.0 + rng.uniform(-0.02, 0.02), rng.uniform(0.002, 0.03))
        h, h_win = gaussian_difference_profile(
            rng.uniform(0.005, 0.04), rng.uniform(0.0, 0.03))
        channel = PAIRS[rng.integers(4)]
        state = SeparableState(channel, f, h, f_win, h_win)
        probs = channel_probabilities(scatter(coupling, state))
        assert abs(probs.total - 1.0) < 1e-6
        assert probs.values[DirectionPair.PM] == probs.values[DirectionPair.MP]
    assert time.monotonic() - start < 30.0


@pytest.mark.acceptance("orthogonal difference profiles pass unchanged")
def test_orthogonal_difference_profiles_pass_unchanged():
    rng = np.random.default_rng(20250812)
    kinds = ("gaussian", "lorentzian")
    worst = 0.0
    for trial in range(20):
        width = rng.uniform(0.02, 0.05)
        coupling = isotropic(total=rng.uniform(1e-3, 0.01), width=width,
                             kind=kinds[trial % 2])
        f, f_win = gaussian_sum_spectrum(
            1.0 + rng.uniform(-0.01, 0.01), rng.uniform(0.005, 0.02))
        h, h_win = gaussian_difference_profile(
            width * rng.uniform(0.25, 0.5), rng.uniform(0.0, 0.02))
        state = SeparableState(PAIRS[rng.integers(4)], f, h, f_win, h_win)
        _, orthogonal = decompose(state, coupling.envelope)
        result = scatter(coupling, orthogonal)
        grid = FrequencyGrid.for_scattering(coupling, 0.02, 64, 48)
        # A Lorentzian envelope reaches past its default grid.
        with pytest.warns(TruncationWarning) if trial % 2 \
                else contextlib.nullcontext():
            out = result.output_on(grid)
        difference = np.abs(out.data - orthogonal.on_grid(grid).data)
        worst = max(worst, float(difference.max()))
    assert worst < 1e-9


@pytest.mark.acceptance("emission normalized, rank one, correlation signs")
def test_emission_normalization_factorization_correlation():
    ln2 = math.log(2.0)
    widths = {"gaussian": lambda r: r * GAMMA / (2 * math.sqrt(2 * ln2)),
              "lorentzian": lambda r: r * GAMMA}
    for kind, width_of in widths.items():
        coupling = isotropic(width=width_of(1.0), kind=kind)
        grid = default_emission_grid(coupling, 1024, 512)
        spectrum = joint_spectrum(coupling, grid)
        assert spectrum.total_probability() == pytest.approx(1.0, abs=1e-4)
        singulars = np.linalg.svd(spectrum.channel(DirectionPair.PP),
                                  compute_uv=False)
        assert singulars[1] / singulars[0] < 1e-10

        signs = []
        for ratio in np.geomspace(0.2, 5.0, 8):
            cpl = isotropic(width=width_of(ratio), kind=kind)
            corr = joint_spectrum(
                cpl, default_emission_grid(cpl, 512, 256)) \
                .spectrum_correlation()
            signs.append(corr > 0)
        assert signs[0] and not signs[-1]
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        assert flips == 1


@pytest.mark.acceptance("time-domain oracle matches Markov results")
def test_time_domain_oracle_matches_markov_results():
    start = time.monotonic()
    coupling = isotropic()
    state = matched_state(coupling, 0.02)

    config = TimeDomainConfig.for_scattering(coupling, 0.02,
                                             n_omegabar=256, n_delta=96)
    _, oracle = _scattering_run(coupling, state, config)
    markov = channel_probabilities(scatter(coupling, state))
    assert oracle.reflection == pytest.approx(markov.reflection, rel=2e-2)
    assert oracle.splitting == pytest.approx(markov.splitting, rel=2e-2)
    assert oracle.transmission == pytest.approx(markov.transmission, rel=2e-2)

    decay_config = TimeDomainConfig.for_emission(coupling)
    trajectory = integrate(coupling, ExcitedEmitter(), decay_config)
    keep = trajectory.times <= 5.0 / GAMMA
    expected = np.exp(-0.5 * GAMMA * trajectory.times[keep])
    relative = np.abs(np.abs(trajectory.emitter_amplitude[keep]) - expected) \
        / expected
    assert float(relative.max()) < 2e-2

    coarse = TimeDomainConfig.for_scattering(coupling, 0.02,
                                             n_omegabar=128, n_delta=16)
    halved = TimeDomainConfig(coarse.grid, coarse.t_span, coarse.dt / 2,
                              arrival_delay=coarse.arrival_delay)
    probs = [_scattering_run(coupling, state, c)[1] for c in (coarse, halved)]
    for pair in PAIRS:
        a, b = probs[0].values[pair], probs[1].values[pair]
        assert abs(a - b) / max(b, 1e-12) < 1e-3
    assert time.monotonic() - start < 20.0


@pytest.mark.acceptance("filtered entanglement limits and sweeps")
def test_filtered_entanglement_limits_and_sweeps():
    start = time.monotonic()
    total = 1e-3
    for ratio, target in ((1e-2, "psi-minus"), (1e2, "phi-plus")):
        coupling = CouplingSpec.isotropic(
            total, Envelope.lorentzian(ratio * total), 1.0)
        state = postselect_filtered_state(
            coupling, FilterPair.symmetric(coupling, 10 * total))
        assert entanglement_entropy(state) > 0.95
        assert bell_fidelity(state, target) > 0.99

    widths = np.geomspace(1e-2, 1e2, 9)
    detunings = np.array([0.5, 1, 2, 4, 6, 8, 10, 12, 16, 20], dtype=float)
    sweeps = entropy_sweeps(widths, detunings)
    against_width = sweeps.vs_width(10.0)
    matched_index = int(np.argmin(np.abs(widths - 1.0)))
    assert abs(int(np.argmin(against_width)) - matched_index) <= 1
    against_detuning = sweeps.vs_detuning(1e-2)
    assert np.all(np.diff(against_detuning) > -1e-12)
    assert abs(against_detuning[-1] - against_detuning[-2]) < 1e-3
    assert time.monotonic() - start < 30.0


@pytest.mark.acceptance("gate fidelity ordering and limits")
def test_gate_fidelity_ordering_and_limits():
    start = time.monotonic()
    ratios = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
    sweep = infidelity_sweep(ratios)
    for row in sweep.fidelity:
        assert np.all(np.diff(row) > 0)
    gaussian, lorentzian = sweep.fidelity
    above = np.asarray(ratios, dtype=float) >= 10.0
    assert np.all(gaussian[above] >= lorentzian[above])
    assert 1.0 - gaussian[-1] < 1e-3
    assert 1.0 - lorentzian[-1] < 1e-3

    grid = np.linspace(0.0, 1.0, 100001)
    for kind in ("gaussian", "lorentzian"):
        for ratio in (1.0, 5.0, 100.0):
            pulse = getattr(PulseShape, kind)(1.0, 1.0 / ratio)
            overlap = gate_overlap(pulse, 1.0)
            fidelity, _ = worst_case_fidelity(overlap)
            searched = float(np.min(
                np.abs(1.0 - grid * (1.0 + overlap)) ** 2))
            assert abs(fidelity - searched) < 1e-10
    assert time.monotonic() - start < 20.0


@pytest.mark.acceptance("closed form matches quadrature; correlation signs")
def test_closed_form_matches_quadrature_and_correlation_signs():
    for total in (0.004, 0.012):
        coupling = isotropic(total=total)
        state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
        grid = FrequencyGrid.for_scattering(coupling, 0.02, 256, 128)
        generic = scatter(coupling, state).output_on(grid)
        closed = gaussian_closed_form(coupling, 0.02, 0.5, 0.5, grid)
        peak = float(np.max(np.abs(generic.data)))
        assert float(np.max(np.abs(generic.data - closed.data))) / peak < 1e-8

    # Lorentzian envelope matched to the input full width at half maximum;
    # correlations evaluated on a square field of view around resonance.
    width = 2 * 0.02 * math.sqrt(2 * math.log(2))
    coupling = isotropic(width=width, kind="lorentzian")
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
    grid = FrequencyGrid.for_scattering(coupling, 0.02, 256, 128)
    with pytest.warns(TruncationWarning):
        out = scatter(coupling, state).output_on(grid)
    view = 0.05
    mask = (np.abs(grid.omegabar[:, None] - 1.0)
            + grid.delta[None, :]) <= 2 * view
    transmitted = np.abs(out.data[DirectionPair.PP.index]) ** 2 * mask
    reflected = np.abs(out.data[DirectionPair.MM.index]) ** 2 * mask
    assert pearson_correlation(grid, transmitted) > 0
    assert pearson_correlation(grid, reflected) < 0
