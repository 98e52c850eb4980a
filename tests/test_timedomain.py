"""Time-domain integrator against closed-form decay and scattering."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import erfcx

from quadwg import (
    CouplingSpec,
    DirectionPair,
    Envelope,
    ExcitedEmitter,
    FrequencyGrid,
    IntegrationFailureError,
    MarkovValidityWarning,
    NotAsymptoticError,
    TimeDomainConfig,
    channel_probabilities,
    gaussian_biphoton,
    integrate,
    oracle_channel_probabilities,
    scatter,
    with_arrival_delay,
)
from quadwg.spectral import (
    SeparableState,
    decompose,
    gaussian_difference_profile,
)
from quadwg.timedomain import _mode_setup


def isotropic(total, width=0.05, omega0=1.0):
    return CouplingSpec.isotropic(total, Envelope.gaussian(width), omega0)


def matched_state(coupling, sigma):
    env = coupling.envelope
    state = gaussian_biphoton(DirectionPair.PP, coupling.omega0, sigma)
    return SeparableState(DirectionPair.PP, state.f,
                          lambda d: np.conj(env(d)),
                          state.f_window, (0.0, 12 * env.width + 12 * sigma))


def small_grid():
    return FrequencyGrid.regular(1.0, 0.4, 0.16, 32, 9)


def test_config_validation():
    grid = small_grid()
    with pytest.raises(ValueError):
        TimeDomainConfig(grid, (1.0, 1.0), 0.1)
    with pytest.raises(ValueError):
        TimeDomainConfig(grid, (0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        TimeDomainConfig.for_scattering(isotropic(0.02), 0.0)


def test_factory_spans_and_steps():
    cpl = isotropic(0.02)
    cfg = TimeDomainConfig.for_scattering(cpl, 0.05, n_omegabar=64, n_delta=16)
    assert cfg.arrival_delay == pytest.approx(3.0 / 0.05)
    assert cfg.t_span[0] == 0.0
    assert cfg.t_span[1] == pytest.approx(6.0 / 0.05 + 12.0 / 0.02)
    assert cfg.dt == pytest.approx(0.1 / (20.0 * 0.02))
    assert cfg.grid.omegabar.size == 64
    assert cfg.grid.delta.size == 16
    emission = TimeDomainConfig.for_emission(cpl, n_omegabar=64, n_delta=16)
    assert emission.t_span[1] == pytest.approx(12.0 / 0.02)
    assert emission.dt == pytest.approx(0.1 / (40.0 * 0.02))


def test_step_limit_guards_grid_bandwidth():
    cpl = isotropic(0.02)
    grid = small_grid()
    config = TimeDomainConfig(grid, (0.0, 100.0), 0.26)  # limit is 0.25
    with pytest.raises(ValueError):
        integrate(cpl, ExcitedEmitter(), config)


def test_arrival_delay_is_a_pure_phase():
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.002)
    delayed = with_arrival_delay(state, 1.0, 50.0)
    omegabar = np.array([0.995, 1.0, 1.005])[:, None]
    delta = np.array([0.001, 0.003])[None, :]
    reference = state.amplitude(DirectionPair.PP, omegabar, delta)
    shifted = delayed.amplitude(DirectionPair.PP, omegabar, delta)
    np.testing.assert_allclose(
        shifted, reference * np.exp(1j * (omegabar - 1.0) * 50.0), rtol=1e-12)
    assert delayed.norm_squared() == pytest.approx(state.norm_squared(),
                                                   rel=1e-12)
    assert delayed.scale == state.scale


def test_detached_band_leaves_the_emitter_excited():
    # Envelope support starts above every grid difference frequency, so
    # all couplings vanish and the excited emitter cannot decay.
    env = Envelope.tabulated([1.0, 1.5, 2.0], [0.0, 1.0, 0.0])
    cpl = CouplingSpec.isotropic(0.02, env, 1.0)
    grid = FrequencyGrid.regular(1.0, 0.4, 0.5, 32, 9)
    config = TimeDomainConfig(grid, (0.0, 100.0), 0.25)
    traj = integrate(cpl, ExcitedEmitter(), config)
    np.testing.assert_allclose(np.abs(traj.emitter_amplitude), 1.0,
                               atol=1e-12)
    drift = np.max(np.abs(traj.norm_history - traj.norm_history[0]))
    assert drift < 1e-12
    assert np.max(np.abs(traj.final_state.data)) < 1e-12


def full_mode_rk4(coupling, initial, config):
    """Reference: the same RK4 stepping every grid mode, no change of basis."""
    weight, allowed, g, nu = _mode_setup(coupling, config.grid)
    if isinstance(initial, ExcitedEmitter):
        e, b = 1.0 + 0.0j, np.zeros_like(g)
    else:
        e = 0.0j
        b = initial.on_grid(config.grid).data * np.sqrt(weight) * allowed

    def deriv(e, b):
        return (-1j * np.sum(g * b),
                -1j * (nu[None, :, None] * b + np.conj(g) * e))

    steps = math.ceil((config.t_span[1] - config.t_span[0]) / config.dt)
    dt = (config.t_span[1] - config.t_span[0]) / steps
    trace, norms = [e], [abs(e) ** 2 + np.vdot(b, b).real]
    for _ in range(steps):
        k1e, k1 = deriv(e, b)
        k2e, k2 = deriv(e + dt / 2 * k1e, b + dt / 2 * k1)
        k3e, k3 = deriv(e + dt / 2 * k2e, b + dt / 2 * k2)
        k4e, k4 = deriv(e + dt * k3e, b + dt * k3)
        e += dt / 6 * (k1e + 2 * k2e + 2 * k3e + k4e)
        b = b + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        trace.append(e)
        norms.append(abs(e) ** 2 + np.vdot(b, b).real)
    return np.array(trace), b / np.sqrt(weight), np.array(norms)


def reference_cases():
    iso = isotropic(0.02)
    iso_config = TimeDomainConfig.for_scattering(iso, 0.05, n_omegabar=24,
                                                 n_delta=8)
    iso_input = with_arrival_delay(
        gaussian_biphoton(DirectionPair.PP, 1.0, 0.05), 1.0,
        iso_config.arrival_delay)
    iso_config = TimeDomainConfig(iso_config.grid, (0.0, 300.0),
                                  iso_config.dt)

    env = Envelope.tabulated([0.0, 0.01, 0.03, 0.06, 0.1],
                             [0.3, 1.0, 0.7 + 0.2j, 0.2, 0.0])
    aniso = CouplingSpec(1.0, {DirectionPair.PP: 0.006,
                               DirectionPair.MM: 0.002,
                               DirectionPair.PM: 0.004}, env)
    aniso_config = TimeDomainConfig(
        FrequencyGrid.regular(1.0, 0.3, 0.12, 20, 7), (0.0, 120.0), 0.3)
    displaced = gaussian_biphoton(DirectionPair.PM, 1.05, 0.03,
                                  diff_center=0.02)

    forbidden = CouplingSpec.isotropic(0.002, Envelope.gaussian(0.05), 0.1)
    forbidden_config = TimeDomainConfig(
        FrequencyGrid.regular(0.1, 0.15, 0.2, 16, 9), (0.0, 200.0), 0.5)
    return [(iso, iso_input, iso_config),
            (aniso, displaced, aniso_config),
            (forbidden, ExcitedEmitter(), forbidden_config)]


@pytest.mark.parametrize("case", [0, 1, 2],
                         ids=["isotropic", "anisotropic-tabulated",
                              "forbidden-rows"])
def test_integrate_matches_full_mode_reference(case):
    coupling, initial, config = reference_cases()[case]
    trace, final, norms = full_mode_rk4(coupling, initial, config)
    traj = integrate(coupling, initial, config)
    scale = max(1.0, float(np.max(np.abs(final))))
    np.testing.assert_allclose(traj.emitter_amplitude, trace, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(traj.final_state.data, final, rtol=0,
                               atol=1e-12 * scale)
    np.testing.assert_allclose(traj.norm_history, norms, rtol=0,
                               atol=1e-12 * norms[0])
    assert np.max(np.abs(trace)) > 1e-3 and np.max(np.abs(final)) > 1e-3


@pytest.fixture(scope="module")
def decay_runs():
    runs = {}
    for gamma in (0.1, 0.02):
        cpl = isotropic(gamma, omega0=10.0)  # keep the rate well below omega0
        config = TimeDomainConfig.for_emission(
            cpl, n_omegabar=256, n_delta=16,
            halfwidth_rates=0.4 / gamma)  # same absolute band for both rates
        runs[gamma] = integrate(cpl, ExcitedEmitter(), config)
    return runs


def test_decay_approaches_markov_rate(decay_runs):
    errors = {}
    for gamma, traj in decay_runs.items():
        keep = traj.times <= 5.0 / gamma
        expected = np.exp(-0.5 * gamma * traj.times[keep])
        errors[gamma] = np.max(np.abs(
            np.abs(traj.emitter_amplitude[keep]) - expected))
    # Hard band cutoff steals line tails: the bias scales with the rate.
    assert errors[0.02] < 0.04
    assert errors[0.1] < 0.15
    assert errors[0.1] > 2.0 * errors[0.02]


def test_norm_is_conserved(decay_runs):
    for traj in decay_runs.values():
        drift = np.max(np.abs(traj.norm_history - traj.norm_history[0]))
        assert drift / traj.input_norm < 1e-6


def test_orthogonal_difference_profile_passes_freely():
    cpl = isotropic(0.02)
    base = gaussian_biphoton(DirectionPair.PP, 1.0, 0.05, diff_center=0.015)
    h, h_window = gaussian_difference_profile(0.008, 0.015)
    state = SeparableState(DirectionPair.PP, base.f, h,
                           base.f_window, h_window)
    _, orthogonal = decompose(state, cpl.envelope)
    config = TimeDomainConfig.for_scattering(cpl, 0.05,
                                             n_omegabar=96, n_delta=32)
    delayed = with_arrival_delay(orthogonal, 1.0, config.arrival_delay)
    probs = oracle_channel_probabilities(integrate(cpl, delayed, config))
    assert probs.values[DirectionPair.PP] == pytest.approx(1.0, abs=1e-3)
    assert probs.values[DirectionPair.MM] < 1e-6
    assert probs.splitting < 1e-6


def test_matched_scattering_agrees_with_markov():
    # Time-domain run at an affordable rate-to-width ratio; the remaining
    # band-truncation bias sits near one percent at twenty rates halfwidth.
    gamma, alpha = 0.02, 0.1
    cpl = isotropic(gamma, width=alpha)
    state = matched_state(cpl, alpha)
    config = TimeDomainConfig.for_scattering(cpl, alpha,
                                             n_omegabar=128, n_delta=48)
    delayed = with_arrival_delay(state, 1.0, config.arrival_delay)
    oracle = oracle_channel_probabilities(integrate(cpl, delayed, config))
    markov = channel_probabilities(scatter(cpl, state))
    assert oracle.reflection == pytest.approx(markov.reflection, rel=2e-2)
    assert oracle.splitting == pytest.approx(markov.splitting, rel=2e-2)
    assert oracle.transmission == pytest.approx(markov.transmission, rel=5e-3)

    # Markov in turn reaches the saturated split at large ratios, tying the
    # oracle to the narrow-band limit without an unaffordable direct run.
    def closed_reflection(ratio):
        return (math.pi / (8.0 * math.sqrt(2.0 * math.pi))) * ratio \
            * erfcx(ratio / (2.0 * math.sqrt(2.0)))

    assert closed_reflection(gamma / alpha) == pytest.approx(
        markov.reflection, rel=1e-9)
    saturated = closed_reflection(1e3)
    assert saturated == pytest.approx(0.25, abs=1e-5)
    assert 1.0 - 3.0 * saturated == pytest.approx(0.25, abs=3e-5)


def test_initial_state_validation():
    cpl = isotropic(0.02)
    grid = small_grid()
    config = TimeDomainConfig(grid, (0.0, 600.0), 0.25)
    zero = SeparableState(DirectionPair.PP,
                          lambda ob: np.zeros_like(np.asarray(ob)),
                          lambda d: np.conj(cpl.envelope(d)),
                          (0.9, 1.1), (0.0, 0.2), scale=1.0)
    with pytest.raises(IntegrationFailureError):
        integrate(cpl, zero, config)
    with pytest.raises(TypeError):
        integrate(cpl, "emitter", config)


def test_norm_drift_raises_integration_failure():
    # A pulse parked at the band edge with the step at the stability limit
    # accumulates enough phase error to trip the drift guard.
    gamma = 0.004
    cpl = isotropic(gamma)
    grid = FrequencyGrid.regular(1.0, 20 * gamma, 8 * gamma, 64, 9)
    state = gaussian_biphoton(DirectionPair.PP, 1.0 + 19 * gamma, gamma / 2)
    dt = 0.099 / (20 * gamma)
    config = TimeDomainConfig(grid, (0.0, 16000 * dt), dt)
    with pytest.raises(IntegrationFailureError):
        integrate(cpl, state, config)


def test_short_run_is_not_asymptotic():
    cpl = isotropic(0.02)
    config = TimeDomainConfig(small_grid(), (0.0, 100.0), 0.25)
    traj = integrate(cpl, ExcitedEmitter(), config)
    with pytest.raises(NotAsymptoticError):
        oracle_channel_probabilities(traj)


def test_rate_near_carrier_warns(decay_runs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MarkovValidityWarning):
            isotropic(0.1, omega0=1.0)
    assert 0.1 in decay_runs  # the fixture avoided the warning via omega0=10
