"""Time-domain integrator against closed-form decay and scattering."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfcx

from conftest import matched_state
from quadwg import (
    CouplingSpec,
    DirectionPair,
    Envelope,
    ExcitedEmitter,
    FrequencyGrid,
    IntegrationFailureError,
    MarkovValidityWarning,
    NotAsymptoticError,
    TruncationWarning,
    TimeDomainConfig,
    channel_probabilities,
    gaussian_biphoton,
    integrate,
    oracle_channel_probabilities,
    scatter,
    with_arrival_delay,
)
from quadwg import timedomain
from quadwg.emission import default_emission_grid
from quadwg.spectral import (
    PAIRS,
    SeparableState,
    _grid_overlaps,
    decompose,
    gaussian_difference_profile,
    resonance_denominator,
)
from quadwg.timedomain import (
    _CAUCHY_BLOCK,
    _POWER_BLOCK,
    NORM_DRIFT_TOLERANCE,
    STABILITY_LIMIT,
    _arrowhead,
    _mode_setup,
    _rk4_factor,
    _scattering_run,
    _trapezoid_weights,
)


def isotropic(total, width=0.05, omega0=1.0):
    return CouplingSpec.isotropic(total, Envelope.gaussian(width), omega0)


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


def test_scattering_config_needs_the_band_to_hold_the_input():
    # A half band of h total rates keeps erf(h g / (sigma sqrt 2)) of a
    # resonant input's sum intensity: 4 sigma keeps 0.99994, 3 sigma 0.9973.
    cpl = isotropic(0.02)
    TimeDomainConfig.for_scattering(cpl, 0.1, n_omegabar=64, n_delta=16)
    with pytest.raises(ValueError, match=r"the band of half width 0\.4"
                       r" \(20 total rates\) keeps only 0\.9973 of the sum"
                       r" intensity of an input of width 0\.1333"):
        TimeDomainConfig.for_scattering(cpl, 0.4 / 3.0, n_omegabar=64,
                                        n_delta=16)
    # Widths out of range keep their own errors.
    with pytest.raises(ValueError, match="too large"):
        TimeDomainConfig.for_scattering(cpl, 1e160)
    with pytest.raises(ValueError, match="must be finite"):
        TimeDomainConfig.for_scattering(cpl, math.inf)


def test_factory_spans_and_steps():
    # Every grid constructor against the expressions each once wrote out on
    # its own, bit for bit: FrequencyGrid.for_scattering of one width and
    # of the resonant pair it stands for, default_emission_grid, and both
    # time-domain constructors, whose span is the input's delay and passage
    # plus twelve inverse rates and whose dt is 0.1 over the half band.
    four = {DirectionPair.PP: 0.003, DirectionPair.PM: 0.0005,
            DirectionPair.MP: 0.0005, DirectionPair.MM: 0.0011}
    tabulated = Envelope.tabulated(0.004 * np.arange(6),
                                   [1.0, 0.9 - 0.1j, 0.7, 0.4, 0.15, 0.0])
    couplings = [isotropic(0.02),
                 CouplingSpec.mirror(0.013, Envelope.gaussian(0.04), 0.9),
                 CouplingSpec(1.0, four, Envelope.gaussian(0.03)),
                 CouplingSpec.isotropic(0.007, Envelope.lorentzian(0.02)),
                 CouplingSpec(1.3, four, tabulated)]

    def axes(cpl, width, n_omegabar, n_delta, half):
        env, g = cpl.envelope, cpl.total_rate
        reach = float(env.deltas[-1]) if env.deltas is not None \
            else 10.0 * env.width
        return (np.linspace(cpl.omega0 - half * g, cpl.omega0 + half * g,
                            n_omegabar),
                np.linspace(0.0, max(reach, 10.0 * width), n_delta))

    def same_axes(grid, expected):
        assert grid.omegabar.tobytes() == expected[0].tobytes()
        assert grid.delta.tobytes() == expected[1].tobytes()

    def same(cfg, expected, span, dt, delay):
        same_axes(cfg.grid, expected)
        assert [t.hex() for t in cfg.t_span] == [0.0.hex(), span.hex()]
        assert (cfg.dt.hex(), cfg.arrival_delay.hex()) \
            == (dt.hex(), delay.hex())

    for cpl in couplings:
        g = cpl.total_rate
        for width, half in [(g, 20.0), (0.3 * g, 30.0)]:
            expected = axes(cpl, width, 64, 128, half)
            cfg = TimeDomainConfig.for_scattering(
                cpl, width, n_omegabar=64, n_delta=128, halfwidth_rates=half)
            delay = 3.0 / width
            same(cfg, expected, delay + 3.0 / width + 12.0 / g,
                 0.1 / (half * g), delay)
            # With hold, as the time domain asks.  Its band resolves the
            # difference profile as a map's grid must: 16 differences
            # cannot resolve the narrower inputs, 128 resolve them all.
            same_axes(FrequencyGrid.for_scattering(cpl, width, 64, 128, half,
                                                   hold=True), expected)
            same_axes(FrequencyGrid.for_scattering(
                cpl, (cpl.omega0, width, 0.0, width), 64, 128, half,
                hold=True), expected)
        for kwargs, half in [({}, 40.0), ({"halfwidth_rates": 25.0}, 25.0)]:
            cfg = TimeDomainConfig.for_emission(cpl, n_omegabar=64,
                                                n_delta=16, **kwargs)
            same(cfg, axes(cpl, 0.0, 64, 16, half), 12.0 / g,
                 0.1 / (half * g), 0.0)
            # No input leaves nothing for the band to hold.
            same_axes(FrequencyGrid.for_scattering(cpl, 0.0, 64, 16, half,
                                                   hold=True),
                      axes(cpl, 0.0, 64, 16, half))
        same_axes(default_emission_grid(cpl, 2048, 1024),
                  axes(cpl, 0.0, 2048, 1024, 10.0))
    cfg = TimeDomainConfig.for_scattering(couplings[0], 0.05)
    assert cfg.grid.shape == (256, 128)
    assert TimeDomainConfig.for_emission(couplings[0]).grid.shape == (512, 64)


def test_step_limit_guards_grid_bandwidth():
    cpl = isotropic(0.02)
    grid = small_grid()
    config = TimeDomainConfig(grid, (0.0, 100.0), 0.26)  # limit is 0.25
    with pytest.raises(ValueError):
        integrate(cpl, ExcitedEmitter(), config)


def test_rows_that_share_a_detuning_are_rejected():
    # Rows 5e-25 apart at 1e-9 are distinct, yet obar - omega0 rounds them
    # all to -1: the arrowhead's poles would coincide.
    grid = FrequencyGrid(1e-9 + 5e-25 * np.arange(3),
                         np.linspace(0.0, 1e-9, 3))
    config = TimeDomainConfig(grid, (0.0, 1.0), 0.05)
    with pytest.raises(ValueError, match="float resolution"):
        integrate(isotropic(0.02), ExcitedEmitter(), config)


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


def four_channel_setup(coupling, grid):
    """``_mode_setup`` with the couplings of the four channels stacked into
    one ``(4, n_omegabar, n_delta)`` array ``g`` for the references."""
    root_weight, allowed, channel, nu = _mode_setup(coupling, grid)
    return root_weight, allowed, np.stack([channel(p) for p in PAIRS]), nu


def full_mode_rk4(coupling, initial, config):
    """Reference: the same RK4 stepping every grid mode, no change of basis."""
    root_weight, allowed, g, nu = four_channel_setup(coupling, config.grid)
    if isinstance(initial, ExcitedEmitter):
        e, b = 1.0 + 0.0j, np.zeros_like(g)
    else:
        e = 0.0j
        b = initial.on_grid(config.grid).data * root_weight * allowed

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
    return np.array(trace), b / root_weight, np.array(norms)


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


def bright_mode_rk4(coupling, initial, config):
    """Reference: RK4 stepped one step at a time on the emitter and the
    bright amplitudes, with the dark rows scaled by ``R(-i nu dt)``."""
    root_weight, allowed, g, nu = four_channel_setup(coupling, config.grid)
    if isinstance(initial, ExcitedEmitter):
        emitter, modes = 1.0 + 0.0j, np.zeros_like(g)
    else:
        emitter = 0.0 + 0.0j
        modes = initial.on_grid(config.grid).data * root_weight * allowed
    norm0 = abs(emitter) ** 2 + float(np.vdot(modes, modes).real)
    G = np.sqrt(np.sum(np.abs(g) ** 2, axis=(0, 2)))
    coupled = G > 0
    bright_dir = np.zeros_like(g)
    bright_dir[:, coupled, :] = np.conj(g[:, coupled, :]) \
        / G[None, coupled, None]
    bright = np.sum(np.conj(bright_dir) * modes, axis=(0, 2))
    dark = modes - bright_dir * bright[None, :, None]
    dark_weight = np.sum(np.abs(dark) ** 2, axis=(0, 2))

    def deriv(e, b):
        return -1j * np.dot(G, b), -1j * (nu * b + G * e)

    t0, t1 = config.t_span
    steps = max(1, int(math.ceil((t1 - t0) / config.dt)))
    dt = (t1 - t0) / steps
    z = -1j * nu * dt
    dark_step = 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))
    dark_fade = np.abs(dark_step) ** 2
    trace = np.empty(steps + 1, dtype=complex)
    norms = np.empty(steps + 1)
    trace[0] = emitter
    norms[0] = norm0
    half = 0.5 * dt
    for s in range(steps):
        k1e, k1 = deriv(emitter, bright)
        k2e, k2 = deriv(emitter + half * k1e, bright + half * k1)
        k3e, k3 = deriv(emitter + half * k2e, bright + half * k2)
        k4e, k4 = deriv(emitter + dt * k3e, bright + dt * k3)
        emitter = emitter + (dt / 6.0) * (k1e + 2 * k2e + 2 * k3e + k4e)
        bright = bright + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        dark_weight *= dark_fade
        trace[s + 1] = emitter
        norms[s + 1] = abs(emitter) ** 2 + np.vdot(bright, bright).real \
            + float(np.sum(dark_weight))
    modes = dark * (dark_step ** steps)[None, :, None] \
        + bright_dir * bright[None, :, None]
    return trace, modes / root_weight[None, :, :], norms


def assert_matches_bright_mode_rk4(coupling, initial, config, steps):
    trace, final, norms = bright_mode_rk4(coupling, initial, config)
    traj = integrate(coupling, initial, config)
    assert traj.times.size == steps + 1
    scale = max(1.0, float(np.max(np.abs(final))))
    np.testing.assert_allclose(traj.emitter_amplitude, trace, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(traj.norm_history, norms, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.final_state.data, final, rtol=0,
                               atol=1e-12 * scale)
    return traj


def _steps_config(config, steps):
    """``config`` cut to a span that rounds up to ``steps`` steps."""
    return TimeDomainConfig(config.grid, (0.0, (steps - 0.5) * config.dt),
                            config.dt)


@pytest.mark.parametrize("steps", [1, _POWER_BLOCK // 2, _POWER_BLOCK,
                                   _POWER_BLOCK + 1],
                         ids=["one", "part-block", "block", "block+1"])
def test_integrate_matches_bright_mode_steps(steps):
    coupling, initial, config = reference_cases()[1]
    traj = assert_matches_bright_mode_rk4(
        coupling, initial, _steps_config(config, steps), steps)
    assert np.max(np.abs(traj.emitter_amplitude)) > 1e-4


def _verify_case(scale):
    """``quadwg verify``'s coupling, input and configuration on its
    256x96 grid with both axes ``scale`` times finer."""
    cpl = isotropic(0.004, width=0.02)
    config = TimeDomainConfig.for_scattering(
        cpl, 0.02, n_omegabar=256 * scale, n_delta=96 * scale)
    state = with_arrival_delay(gaussian_biphoton(DirectionPair.PP, 1.0, 0.02),
                               1.0, config.arrival_delay)
    return cpl, state, config


def test_integrate_matches_bright_mode_verify_run():
    assert_matches_bright_mode_rk4(*_verify_case(1), 2640)


def test_integrate_matches_bright_mode_emission_decay():
    cpl = isotropic(0.004, width=0.02)
    config = TimeDomainConfig.for_emission(cpl, n_omegabar=256, n_delta=32)
    traj = assert_matches_bright_mode_rk4(cpl, ExcitedEmitter(), config, 4800)
    assert abs(traj.emitter_amplitude[-1]) < 1e-2


def test_integrate_matches_bright_mode_with_uncoupled_rows():
    # The envelope vanishes below 0.05, so rows with obar < 0.05 have only
    # uncoupled allowed points: G = 0, yet the input fills them.
    env = Envelope.tabulated([0.0, 0.05, 0.1, 0.15], [0.0, 0.0, 1.0, 0.0])
    cpl = CouplingSpec.isotropic(0.002, env, 0.1)
    grid = FrequencyGrid.regular(0.1, 0.08, 0.16, 32, 17)
    config = TimeDomainConfig(grid, (0.0, 150.0), 0.1 / 0.08)
    state = gaussian_biphoton(DirectionPair.PM, 0.06, 0.02)
    _, _, g, _ = four_channel_setup(cpl, grid)
    uncoupled = ~np.any(g != 0, axis=(0, 2))
    assert 0 < np.sum(uncoupled) < grid.omegabar.size
    assert np.any(state.on_grid(grid).data[:, uncoupled, :] != 0)
    assert_matches_bright_mode_rk4(cpl, state, config, 120)


@pytest.mark.parametrize("initial", ["emitter", "pair"])
def test_integrate_matches_bright_mode_on_detached_band(initial):
    env = Envelope.tabulated([1.0, 1.5, 2.0], [0.0, 1.0, 0.0])
    cpl = CouplingSpec.isotropic(0.02, env, 1.0)
    grid = FrequencyGrid.regular(1.0, 0.4, 0.5, 32, 9)
    config = TimeDomainConfig(grid, (0.0, 100.0), 0.25)
    state = (ExcitedEmitter() if initial == "emitter"
             else gaussian_biphoton(DirectionPair.PP, 1.1, 0.1))
    assert_matches_bright_mode_rk4(cpl, state, config, 400)


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


def test_norm_drift_is_the_largest_relative_departure(decay_runs):
    for traj in decay_runs.values():
        expect = float(np.max(np.abs(traj.norm_history - traj.input_norm))) \
            / traj.input_norm
        assert traj.norm_drift.hex() == expect.hex()
        assert traj.norm_drift > 0


def test_orthogonal_difference_profile_passes_freely():
    cpl = isotropic(0.02)
    base = gaussian_biphoton(DirectionPair.PP, 1.0, 0.05, diff_center=0.015)
    h, h_window = gaussian_difference_profile(0.008, 0.015)
    state = SeparableState(DirectionPair.PP, base.f, h,
                           base.f_window, h_window)
    _, orthogonal = decompose(state, cpl.envelope)
    # 64 differences: 32 give the orthogonal profile 1.029 times its mass.
    config = TimeDomainConfig.for_scattering(cpl, 0.05,
                                             n_omegabar=96, n_delta=64)
    _, probs = _scattering_run(cpl, orthogonal, config)
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
    _, oracle = _scattering_run(cpl, state, config)
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


def test_cutoff_extrapolated_oracle_matches_markov():
    # The hard band cutoff biases the oracle by about 1/halfwidth_rates;
    # Richardson extrapolation over cutoffs of 20 and 40 rates removes it.
    cpl = isotropic(0.004, width=0.02)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
    probs = {}
    for cutoff in (20.0, 40.0):
        config = TimeDomainConfig.for_scattering(
            cpl, 0.02, n_omegabar=256, n_delta=96, halfwidth_rates=cutoff)
        probs[cutoff] = _scattering_run(cpl, state, config)[1]
    markov = channel_probabilities(scatter(cpl, state))
    for name in ("reflection", "splitting", "transmission"):
        raw, fine = getattr(probs[20.0], name), getattr(probs[40.0], name)
        assert 2.0 * fine - raw == pytest.approx(getattr(markov, name),
                                                 rel=1e-3)
    assert probs[20.0].reflection > 1.01 * markov.reflection


def band_limited_probabilities(coupling, state, grid):
    """Channel probabilities of a separable input scattered by an emitter
    that sees only the flat band of the grid's rows, ``|nu| < W`` with
    ``W`` the band's half width plus half a row spacing.

    The band's self-energy turns the Markov denominator ``g/2 - i nu``
    into ``g/2 - i (nu - Lambda(nu))``, with the Lamb shift ``Lambda(nu) =
    (g / 2 pi) ln((W + nu) / (W - nu))``; the resonance weight ``J`` is
    taken over the band, the overlap and the norms over the factors'
    windows, all with scipy from the state's and the envelope's
    definitions.
    """
    g, omega0 = coupling.total_rate, coupling.omega0
    half = 0.5 * float(grid.omegabar[-1] - grid.omegabar[0])
    band = half + 0.5 * grid.d_omegabar

    def at(fn, x):
        return complex(fn(np.array([x]))[0])

    def lamb_shift(nu):
        return g / (2.0 * math.pi) * math.log((band + nu) / (band - nu))

    def weight(nu):
        return abs(at(state.f, omega0 + nu)) ** 2 \
            / ((g / 2.0) ** 2 + (nu - lamb_shift(nu)) ** 2)

    options = dict(epsabs=0.0, epsrel=1e-12, limit=200)
    J = quad(weight, -half, half, points=[0.0], **options)[0]
    n_f = quad(lambda ob: abs(at(state.f, ob)) ** 2, *state.f_window,
               points=[omega0], **options)[0]
    n_h = quad(lambda d: abs(at(state.h, d)) ** 2, *state.h_window,
               **options)[0]
    kappa = quad(lambda d: (at(coupling.envelope, d) * at(state.h, d)).real,
                 *state.h_window, **options)[0]
    r_in = coupling.rate(state.channel)
    values = {}
    for pair in PAIRS:
        norm = coupling.rate(pair) * r_in * kappa ** 2 * J
        if pair is state.channel:
            norm += n_f * n_h - r_in * g * kappa ** 2 * J
        values[pair] = norm / (n_f * n_h)
    return values


def test_oracle_matches_the_band_limited_reference_at_verify_defaults():
    # verify's configuration: 256 x 96 rows, a band of 20 total rates.
    # The oracle sits 1.4e-3 (++) and 1.5e-2 (the others) from the Markov
    # probabilities, and 7.7e-6 and 8.5e-5 from the band-limited ones.  Most
    # of that rest is what this stationary reference leaves out, not rows:
    # the run starts at t = 0, and it takes the input norm over the band.
    cpl = isotropic(0.004, width=0.02)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
    config = TimeDomainConfig.for_scattering(cpl, 0.02, n_omegabar=256,
                                             n_delta=96)
    _, oracle = _scattering_run(cpl, state, config)
    reference = band_limited_probabilities(cpl, state, config.grid)
    for pair in PAIRS:
        assert oracle.values[pair] == pytest.approx(reference[pair], rel=2e-4)


def test_scattering_run_refuses_a_profile_its_band_cannot_resolve():
    # verify's band: 96 differences 0.0021 apart.  Integrated unchecked, this
    # centred profile 5e-4 wide reads reflection 0.00129 against Markov's
    # 0.00145.
    cpl = isotropic(0.004, width=0.02)
    base = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
    h, h_window = gaussian_difference_profile(5e-4)
    state = SeparableState(DirectionPair.PP, base.f, h, base.f_window,
                           h_window)
    config = TimeDomainConfig.for_scattering(cpl, 0.02, n_omegabar=256,
                                             n_delta=96)
    with pytest.raises(ValueError, match=(
            "the output grid's difference spacing 0.00210526 gives the"
            " input's difference profile a trapezoid mass of 1.68 times its"
            " own")):
        _scattering_run(cpl, state, config)


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


def test_readout_past_the_recurrence_time_is_rejected():
    # Rows d_omegabar apart are periodic in time: after 2 pi / d_omegabar
    # the field is back at the emitter.  The guard comes before the
    # asymptotic checks, which these short runs also fail.
    cpl = isotropic(0.02)
    grid = small_grid()
    recurrence = 2.0 * math.pi / grid.d_omegabar
    short = TimeDomainConfig(grid, (0.0, 0.99 * recurrence), 0.25)
    with pytest.raises(NotAsymptoticError):
        oracle_channel_probabilities(integrate(cpl, ExcitedEmitter(), short))
    for span in (recurrence, 250.0):
        config = TimeDomainConfig(grid, (0.0, span), 0.25)
        traj = integrate(cpl, ExcitedEmitter(), config)
        with pytest.raises(ValueError, match=(
                f"run spans {span:g}, not less than the grid's recurrence"
                rf" time 2\*pi/d_omegabar = {recurrence:g}")):
            oracle_channel_probabilities(traj)


def test_rate_near_carrier_warns(decay_runs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MarkovValidityWarning):
            isotropic(0.1, omega0=1.0)
    assert 0.1 in decay_runs  # the fixture avoided the warning via omega0=10


def test_oracle_probabilities_equal_reference_bitwise():
    gamma, alpha = 0.02, 0.1
    cpl = isotropic(gamma, width=alpha)
    config = TimeDomainConfig.for_scattering(cpl, alpha,
                                             n_omegabar=128, n_delta=48)
    traj, probs = _scattering_run(cpl, matched_state(cpl, alpha), config)
    # The trapezoid mode weights as the oracle built them before they had
    # a function of their own.
    grid = config.grid
    w_ob = np.full(grid.omegabar.size, grid.d_omegabar)
    w_ob[[0, -1]] *= 0.5
    w_dd = np.full(grid.delta.size, grid.d_delta)
    w_dd[[0, -1]] *= 0.5
    weight = w_ob[:, None] * w_dd[None, :]
    for pair in DirectionPair:
        b = traj.final_state.data[pair.index] * np.sqrt(weight)
        expect = float(np.vdot(b, b).real) / traj.input_norm
        assert probs.values[pair].hex() == expect.hex()


# -- Parity with the four-channel expressions ---------------------------
#
# ``integrate`` and the grid output of ``scatter`` work one channel at a
# time, in place.  The functions below are frozen copies of the
# expressions they replaced, which held the four-channel coupling, its
# bright directions and every intermediate state as (4, n_omegabar,
# n_delta) arrays.  The library must reproduce them bit for bit.  The
# integration copy takes its eigen-solve from ``solve``: the library's
# arrowhead solver for the bits, or dense ``eigh`` for the reference that
# solver replaced.

def _dense_arrowhead(G, nu, emitter, bright):
    """``_arrowhead`` by dense ``eigh`` of the whole arrowhead."""
    h = np.diag(np.concatenate(([0.0], nu)))
    h[0, 1:] = h[1:, 0] = G
    lam, vec = np.linalg.eigh(h)
    comp = vec.T @ np.concatenate(([emitter], bright))
    return lam, vec[0], comp, lambda comp: vec[1:] @ comp


def _four_channel_integrate(coupling, initial, config, solve=_arrowhead):
    grid = config.grid
    ob, dd = grid.omegabar, grid.delta
    weight = _trapezoid_weights(grid)
    allowed = dd[None, :] <= ob[:, None] + 1e-12 * max(1.0, abs(ob[-1]))
    u = coupling.envelope(dd)
    g = np.empty((4, ob.size, dd.size), dtype=complex)
    for pair in PAIRS:
        g[pair.index] = math.sqrt(coupling.rate(pair) / (2.0 * math.pi)) \
            * u[None, :] * np.sqrt(weight)
    g *= allowed[None, :, :]
    nu = ob - coupling.omega0
    if isinstance(initial, ExcitedEmitter):
        emitter = 1.0 + 0.0j
        modes = np.zeros_like(g)
    else:
        emitter = 0.0 + 0.0j
        modes = initial.on_grid(grid).data * np.sqrt(weight)[None, :, :]
        modes *= allowed[None, :, :]
    norm0 = abs(emitter) ** 2 + float(np.vdot(modes, modes).real)
    if not norm0 > 0:
        raise IntegrationFailureError("initial state has zero norm")
    G = np.sqrt(np.sum(np.abs(g) ** 2, axis=(0, 2)))
    coupled = G > 0
    bright_dir = np.zeros_like(g)
    bright_dir[:, coupled, :] = np.conj(g[:, coupled, :]) \
        / G[None, coupled, None]
    bright = np.sum(np.conj(bright_dir) * modes, axis=(0, 2))
    dark = modes - bright_dir * bright[None, :, None]
    dark_weight = np.sum(np.abs(dark) ** 2, axis=(0, 2))
    t0, t1 = config.t_span
    steps = max(1, int(math.ceil((t1 - t0) / config.dt)))
    dt = (t1 - t0) / steps
    lam, emitter_row, comp, expand = solve(G, nu, emitter, bright)
    growth = _rk4_factor(-1j * lam * dt)
    dark_step = _rk4_factor(-1j * nu * dt)
    fade = np.abs(np.concatenate((growth, dark_step))) ** 2
    weights = np.concatenate((np.abs(comp) ** 2, dark_weight))
    table = np.cumprod(np.broadcast_to(growth, (_POWER_BLOCK, growth.size)),
                       axis=0)
    fade_table = np.cumprod(np.broadcast_to(fade, (_POWER_BLOCK, fade.size)),
                            axis=0)
    trace = np.empty(steps + 1, dtype=complex)
    norms = np.empty(steps + 1)
    trace[0] = emitter
    norms[0] = norm0
    for start in range(1, steps + 1, _POWER_BLOCK):
        n = min(_POWER_BLOCK, steps + 1 - start)
        trace[start:start + n] = table[:n] @ (emitter_row * comp)
        norms[start:start + n] = fade_table[:n] @ weights
        comp = comp * table[n - 1]
        weights = weights * fade_table[n - 1]
    bright = expand(comp)
    modes = dark * (dark_step ** steps)[None, :, None] \
        + bright_dir * bright[None, :, None]
    return trace, norms, modes / np.sqrt(weight)[None, :, :]


def _four_channel_radiated(coupling, data, grid, u, drive):
    drive = drive / resonance_denominator(coupling.total_rate,
                                          coupling.omega0, grid.omegabar)
    return data - coupling.sqrt_rates()[:, None, None] \
        * drive[None, :, None] * np.conj(u)[None, None, :]


def _four_channel_output(coupling, state, grid):
    """The outgoing data of ``scatter(coupling, state).output_on(grid)``,
    for a separable input, or for a grid input on its own grid."""
    if isinstance(state, SeparableState):
        kappa = state.overlap_with_envelope(coupling.envelope)
        w = sum(math.sqrt(coupling.rate(c)) for c in state.channels)
        drive = kappa * w * np.asarray(state.f(grid.omegabar), dtype=complex)
        return _four_channel_radiated(coupling, state.on_grid(grid).data,
                                      grid, coupling.envelope(grid.delta),
                                      drive)
    u, q = _grid_overlaps(state, coupling.envelope)
    drive = (coupling.sqrt_rates()[:, None] * q).sum(axis=0)
    return _four_channel_radiated(coupling, state.data, state.grid, u, drive)


def _bits(*arrays):
    return [np.ascontiguousarray(a).view(np.uint64).tolist() for a in arrays]


def _steps_around_power_blocks():
    return st.sampled_from([1, 2, _POWER_BLOCK - 1, _POWER_BLOCK,
                            _POWER_BLOCK + 1, 2 * _POWER_BLOCK - 1,
                            2 * _POWER_BLOCK, 2 * _POWER_BLOCK + 1])


@st.composite
def parity_cases(draw, underflow=False):
    """A coupling, a grid, an initial state and a step count: three
    envelope kinds; isotropic, mirror and four-value rates, zeros among
    them; grids whose low sum rows lie below zero or below the envelope
    support, so that some rows are uncoupled; emitter, separable and grid
    inputs, the last on the integration grid or on another one.  With
    ``underflow``, a tabulated envelope may open with samples of 1e-170,
    whose squares underflow: low rows that reach only those couple through
    ``G = 0`` on a nonzero ``g``."""
    omega0 = draw(st.floats(0.05, 2.0))
    total = omega0 * draw(st.floats(1e-3, 0.04))
    width = total * draw(st.floats(0.3, 10.0))
    kind = draw(st.sampled_from(["gaussian", "lorentzian", "tabulated"]))
    if kind == "tabulated":
        n = draw(st.integers(2, 6))
        start = draw(st.sampled_from([0.0, width]))
        values = draw(st.lists(
            st.builds(complex, st.floats(0.1, 1.0), st.floats(-1.0, 1.0)),
            min_size=n, max_size=n))
        if underflow and draw(st.booleans()):
            tiny = draw(st.integers(1, n - 1))
            values[:tiny] = [1e-170] * tiny
        envelope = Envelope.tabulated(start + width * np.arange(n), values)
    else:
        envelope = getattr(Envelope, kind)(width)
    rates = draw(st.sampled_from(["isotropic", "mirror", "four"]))
    if rates == "four":
        pp, mm, pm = draw(st.tuples(*[st.sampled_from([0.0, 0.3, 1.0])] * 3)
                          .filter(any))
        scale = total / (pp + mm + 2 * pm)
        coupling = CouplingSpec(omega0, {
            DirectionPair.PP: pp * scale, DirectionPair.MM: mm * scale,
            DirectionPair.PM: pm * scale}, envelope)
    else:
        coupling = getattr(CouplingSpec, rates)(total, envelope, omega0)
    halfwidth = total * draw(st.floats(2.0, 30.0))
    center = omega0 + total * draw(st.floats(-5.0, 5.0))
    if draw(st.booleans()):
        # Sum rows below zero allow no pair at all.
        center = halfwidth * draw(st.floats(0.2, 1.5))
    grid = FrequencyGrid.regular(center, halfwidth,
                                 width * draw(st.floats(0.5, 8.0)),
                                 draw(st.integers(2, 24)),
                                 draw(st.integers(2, 12)))
    sigma = total * draw(st.floats(0.5, 5.0))
    pair = gaussian_biphoton(draw(st.sampled_from(PAIRS)),
                             center + sigma * draw(st.floats(-2.0, 2.0)),
                             sigma, sigma * draw(st.floats(0.0, 2.0)))
    source = draw(st.sampled_from(["emitter", "separable", "grid", "other"]))
    if source == "emitter":
        initial = ExcitedEmitter()
    elif source == "separable":
        initial = pair
    else:
        on = grid if source == "grid" else FrequencyGrid.regular(
            center, 1.3 * halfwidth, grid.delta[-1] * 0.8, 9, 5)
        initial = pair.on_grid(on)
    dt = STABILITY_LIMIT / float(np.max(np.abs(grid.omegabar - omega0)))
    steps = draw(_steps_around_power_blocks())
    config = TimeDomainConfig(grid, (0.0, (steps - 0.5) * dt), dt)
    return coupling, initial, config


def _outcome(build):
    try:
        return build()
    except IntegrationFailureError as exc:
        return str(exc)


@given(parity_cases())
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_integrate_and_scatter_have_the_four_channel_bits(case):
    coupling, initial, config = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        expected = _outcome(
            lambda: _four_channel_integrate(coupling, initial, config))
        traj = _outcome(lambda: integrate(coupling, initial, config))
        if isinstance(expected, str):
            assert traj == expected
        elif isinstance(traj, str):
            # Only the norm-drift guard may stop a run the copy finished.
            norms = expected[1]
            assert "norm drifted" in traj
            assert np.max(np.abs(norms - norms[0])) / norms[0] \
                > NORM_DRIFT_TOLERANCE
        else:
            assert _bits(traj.emitter_amplitude, traj.norm_history,
                         traj.final_state.data) == _bits(*expected)
        if isinstance(initial, ExcitedEmitter) or initial.norm_squared() \
                < 1e-280:
            return
        grid = config.grid if isinstance(initial, SeparableState) \
            else initial.grid
        out = scatter(coupling, initial).output_on(grid)
        assert _bits(out.data) == _bits(
            _four_channel_output(coupling, initial, grid))


# -- The arrowhead solver against dense ``eigh`` --------------------------
#
# ``integrate`` takes the eigenpairs of its arrowhead from the secular
# equation; its results must agree with dense ``eigh`` of the whole
# arrowhead to 1e-12.  On drawn cases that is 1e-12 of the state's norm,
# the scale of both solvers' rounding: an output far smaller than the state
# it comes from carries that rounding too (a final state 1e-4 of its norm
# read 2e-12 of its largest value apart, each solver 2e-16 from a 40-digit
# reference).  At the oracle's runs it is 1e-12 of each array's largest
# value.

def _gap(got, expected, scale):
    """Largest difference over ``scale``; absolute where that is zero."""
    return float(np.max(np.abs(got - expected))) / (scale or 1.0)


def _arrowhead_inputs(coupling, initial, config):
    """The arguments of the eigen-solve of a run, or None for an input of
    zero norm."""
    seen = []

    def spy(*args):
        seen.append(args)
        return _arrowhead(*args)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        if isinstance(_outcome(lambda: _four_channel_integrate(
                coupling, initial, config, solve=spy)), str):
            return None
    return seen[0]


def _cluster_sums(values, ids):
    """Sums of ``values`` over the eigenvalue clusters ``ids``: a sum over
    a cluster does not depend on the basis within it, which ``eigh`` picks
    as it likes for eigenvalues closer than its accuracy resolves."""
    values = np.asarray(values, dtype=complex)
    return np.bincount(ids, values.real) + 1j * np.bincount(ids, values.imag)


@given(parity_cases(underflow=True))
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_arrowhead_solver_matches_dense_eigh(case):
    # Eigenvalues against ||H||; the squared emitter row (a unit vector's)
    # and the squared components V^T x against |x|^2, both free of each
    # eigenvector's sign; V applied to components carried through the
    # run's steps against |x|.
    args = _arrowhead_inputs(*case)
    if args is None:
        return
    lam, row, comp, expand = _arrowhead(*args)
    dense_lam, dense_row, dense_comp, dense_expand = _dense_arrowhead(*args)
    norm = math.sqrt(abs(args[2]) ** 2 + float(np.vdot(args[3], args[3]).real))
    order = np.argsort(lam)
    scale = float(np.max(np.abs(dense_lam)))
    assert _gap(lam[order], dense_lam, scale) <= 1e-12
    ids = np.concatenate(([0], np.cumsum(np.diff(dense_lam) > 1e-3 * scale)))
    assert _gap(_cluster_sums(row[order] ** 2, ids),
                _cluster_sums(dense_row ** 2, ids), 1.0) <= 1e-12
    assert _gap(_cluster_sums(comp[order] ** 2, ids),
                _cluster_sums(dense_comp ** 2, ids), norm ** 2) <= 1e-12
    config = case[2]
    steps = max(1, math.ceil((config.t_span[1] - config.t_span[0])
                             / config.dt))
    dt = (config.t_span[1] - config.t_span[0]) / steps
    assert _gap(
        expand(comp * _rk4_factor(-1j * lam * dt) ** steps),
        dense_expand(dense_comp * _rk4_factor(-1j * dense_lam * dt) ** steps),
        norm) <= 1e-12


def _dense_eigh_pairs(coupling, initial, config):
    """``integrate``'s trace, norms and weighted final state, each with the
    four-channel copy's on dense ``eigh``, and the input norm; None where
    both fail alike (the copy has no drift guard)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        expected = _outcome(lambda: _four_channel_integrate(
            coupling, initial, config, solve=_dense_arrowhead))
        traj = _outcome(lambda: integrate(coupling, initial, config))
    if isinstance(expected, str):
        assert traj == expected
        return None
    trace, norms, final = expected
    if isinstance(traj, str):
        # Only the norm-drift guard may stop a run the copy finished.
        assert "norm drifted" in traj
        assert np.max(np.abs(norms - norms[0])) / norms[0] \
            > NORM_DRIFT_TOLERANCE
        return None
    root_weight = np.sqrt(_trapezoid_weights(config.grid))
    return [(traj.emitter_amplitude, trace), (traj.norm_history, norms),
            (traj.final_state.data * root_weight, final * root_weight)], \
        norms[0]


@given(parity_cases(underflow=True))
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_integrate_matches_a_dense_eigh_integration(case):
    result = _dense_eigh_pairs(*case)
    if result is None:
        return
    (trace, norms, final), norm0 = result
    assert _gap(*trace, math.sqrt(norm0)) <= 1e-12
    assert _gap(*norms, norm0) <= 1e-12
    assert _gap(*final, math.sqrt(norm0)) <= 1e-12


def _oracle_configurations():
    """The benchmark's oracle runs: verify's, the emitter decay on a
    256x32 emission grid, and the 128x16 pair at dt and dt / 2."""
    cpl, state, verify = _verify_case(1)
    decay = TimeDomainConfig.for_emission(cpl, n_omegabar=256, n_delta=32)
    pair = TimeDomainConfig.for_scattering(cpl, 0.02, n_omegabar=128,
                                           n_delta=16)
    delayed = with_arrival_delay(gaussian_biphoton(DirectionPair.PP, 1.0,
                                                   0.02),
                                 1.0, pair.arrival_delay)
    halved = TimeDomainConfig(pair.grid, pair.t_span, pair.dt / 2)
    return {"verify": (cpl, state, verify),
            "decay": (cpl, ExcitedEmitter(), decay),
            "pair": (cpl, delayed, pair),
            "pair-halved": (cpl, delayed, halved)}


@pytest.mark.parametrize("run", ["verify", "decay", "pair", "pair-halved"])
def test_integrate_matches_a_dense_eigh_integration_at_the_oracle_runs(run):
    pairs, _ = _dense_eigh_pairs(*_oracle_configurations()[run])
    for got, expected in pairs:
        assert _gap(got, expected, float(np.max(np.abs(expected)))) <= 1e-12


def test_arrowhead_solver_holds_no_dense_matrix():
    # verify's arrowhead at 1,025 rows.  The solve and both projections
    # peaked at 0.92 MB: two blocks of _CAUCHY_BLOCK entries of the
    # eigenvectors (0.26 MB each) and vectors of the rows.  Dense eigh and
    # its projections peaked at 33.7 MB, four matrices of 1,025^2 doubles.
    cpl = isotropic(0.004, width=0.02)
    grid = TimeDomainConfig.for_scattering(cpl, 0.02, n_omegabar=1024,
                                           n_delta=32).grid
    _, _, channel, nu = _mode_setup(cpl, grid)
    G = np.sqrt(4.0 * np.sum(np.abs(channel(DirectionPair.PP)) ** 2,
                             axis=1))
    bright = np.exp(1j * np.arange(nu.size)) * G
    tracemalloc.start()
    try:
        _, _, comp, expand = _arrowhead(G, nu, 0.5, bright)
        expand(comp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 8 * _CAUCHY_BLOCK
    matrix = 8 * (nu.size + 1) ** 2
    assert peak < 4 * block < matrix / 8


def _count_coupling_builds(monkeypatch):
    """Record each ``channel(pair)`` call of ``_mode_setup``'s coupling
    builder in the returned list."""
    calls = []

    def counted_setup(coupling, grid):
        root_weight, allowed, channel, nu = _mode_setup(coupling, grid)

        def counted(pair):
            calls.append(pair)
            return channel(pair)
        return root_weight, allowed, counted, nu

    monkeypatch.setattr(timedomain, "_mode_setup", counted_setup)
    return calls


@pytest.mark.parametrize("rates, builds", [
    ("isotropic", 1),
    ("mirror", 2),
    ({"++": 0.3, "--": 0.0, "+-": 0.3}, 2),
    ({"++": 1.0, "--": 0.3, "+-": 0.0}, 3),
    ({"++": 0.0, "--": 0.3, "+-": 1.0}, 3),
    # A cross rate of -0.0 signs its zeros apart from one of 0.0.
    ({"++": 1.0, "--": 0.0, "+-": 0.0, "-+": -0.0}, 3),
], ids=["isotropic", "mirror", "two-values", "three-values", "zero-pp",
        "signed-zero"])
def test_integrate_builds_one_coupling_per_distinct_rate(monkeypatch, rates,
                                                          builds):
    env = Envelope.gaussian(0.05)
    if isinstance(rates, str):
        coupling = getattr(CouplingSpec, rates)(0.02, env, 1.0)
    else:
        total = sum(rates.values()) + rates.get("-+", rates["+-"])
        coupling = CouplingSpec(1.0, {pair: 0.02 * r / total
                                      for pair, r in rates.items()}, env)
    config = TimeDomainConfig.for_scattering(coupling, 0.05, n_omegabar=24,
                                             n_delta=8)
    config = _steps_config(config, _POWER_BLOCK + 1)
    initial = gaussian_biphoton(DirectionPair.PM, 1.0, 0.05)
    expected = _four_channel_integrate(coupling, initial, config)
    calls = _count_coupling_builds(monkeypatch)
    traj = integrate(coupling, initial, config)
    assert len(calls) == builds
    assert _bits(traj.emitter_amplitude, traj.norm_history,
                 traj.final_state.data) == _bits(*expected)


@pytest.mark.parametrize("initial", ["emitter", "pair"])
def test_integrate_zeroes_directions_where_coupling_squares_underflow(
        initial):
    # Rows with obar < 0.05 couple only through envelope values of 1e-170,
    # whose squares underflow: G = 0 on a nonzero g.  Their bright
    # directions must be the four-channel copy's zeros, not conj(g).
    env = Envelope.tabulated([0.0, 0.05, 0.1, 0.15],
                             [1e-170, 1e-170, 1.0, 0.0])
    cpl = CouplingSpec.isotropic(0.002, env, 0.1)
    grid = FrequencyGrid.regular(0.1, 0.08, 0.16, 32, 17)
    config = TimeDomainConfig(grid, (0.0, 150.0), 0.1 / 0.08)
    _, _, channel, _ = _mode_setup(cpl, grid)
    g = channel(DirectionPair.PP)
    assert np.any((np.sum(np.abs(g) ** 2, axis=1) == 0)
                  & np.any(g != 0, axis=1))
    state = ExcitedEmitter() if initial == "emitter" \
        else gaussian_biphoton(DirectionPair.PM, 0.06, 0.02)
    traj = integrate(cpl, state, config)
    assert _bits(traj.emitter_amplitude, traj.norm_history,
                 traj.final_state.data) == _bits(
        *_four_channel_integrate(cpl, state, config))


def _traced_peak_in_arrays(call, grid):
    """Traced Python memory peak of ``call()`` in units of one
    four-channel complex array on ``grid``."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (4 * grid.omegabar.size * grid.delta.size * 16)


def _three_rate_case(scale):
    """``_verify_case`` with three distinct rates and a complex tabulated
    envelope: three bright directions held for the run."""
    env = Envelope.tabulated(np.linspace(0.0, 0.08, 6),
                             [0.2, 1.0, 0.7 + 0.5j, 0.3 - 0.6j, 0.1j, 0.0])
    cpl = CouplingSpec(1.0, {DirectionPair.PP: 0.002,
                             DirectionPair.MM: 0.0005,
                             DirectionPair.PM: 0.00075}, env)
    config = TimeDomainConfig.for_scattering(
        cpl, 0.02, n_omegabar=256 * scale, n_delta=96 * scale)
    state = with_arrival_delay(gaussian_biphoton(DirectionPair.PP, 1.0, 0.02),
                               1.0, config.arrival_delay)
    return cpl, state, config


def test_integrate_holds_one_four_channel_array():
    # verify's grid and one 16 times larger.  The four-channel expressions
    # peaked at 7.6 and 7.0 arrays; one channel at a time, the modes are
    # the one array, and the rest is one channel's bright direction per
    # distinct rate or per row.  With dense eigh the peaks read 2.48 and
    # 2.40 arrays (three rates 2.98 and 2.90); with the arrowhead solver
    # and 64-step power tables, 1.89 and 1.66 (2.39 and 2.16).
    for case in (_verify_case, _three_rate_case):
        peaks = []
        for scale in (1, 4):
            cpl, state, config = case(scale)
            peaks.append(_traced_peak_in_arrays(
                lambda: integrate(cpl, state, config), config.grid))
        assert max(peaks) <= 3.0
        assert abs(peaks[0] - peaks[1]) < 0.25


def test_output_on_holds_one_four_channel_array():
    # The four-channel expression peaked at 3.0 arrays on both grids.
    peaks = []
    for scale in (1, 4):
        cpl, state, config = _verify_case(scale)
        out = scatter(cpl, state)
        peaks.append(_traced_peak_in_arrays(
            lambda: out.output_on(config.grid), config.grid))
    assert max(peaks) <= 2.0
    assert abs(peaks[0] - peaks[1]) < 0.25


def test_grid_scatter_overlaps_one_channel_at_a_time():
    # The four-channel overlap product and its trapezoid peaked at 3.07
    # arrays; one channel at a time the copy radiated in place dominates.
    for scale in (1, 4):
        cpl, state, config = _verify_case(scale)
        gridded = state.on_grid(config.grid)
        assert _traced_peak_in_arrays(lambda: scatter(cpl, gridded),
                                      config.grid) <= 1.5


def test_separable_on_grid_fills_its_array_in_place():
    # Holding the one-channel product beside the zero-filled array peaked
    # at 1.63 arrays; in place, the array and the cross-channel check,
    # which passes equal cross channels without forming their abs maxima
    # and difference (1.17 and 1.02 arrays; 1.38 when it formed them).
    for scale in (1, 4):
        _, state, config = _verify_case(scale)
        assert _traced_peak_in_arrays(lambda: state.on_grid(config.grid),
                                      config.grid) <= 1.25


def test_integrate_and_scatter_leave_a_grid_input_alone():
    # On its own axes a grid state's on_grid is the state itself, whose
    # array the in-place updates must not reach.
    cpl, state, config = reference_cases()[1]
    grid_input = state.on_grid(config.grid)
    assert grid_input.on_grid(config.grid) is grid_input
    before = grid_input.data.copy()
    traj = integrate(cpl, grid_input, config)
    out = scatter(cpl, grid_input).output_on(config.grid)
    assert _bits(grid_input.data) == _bits(before)
    assert not np.shares_memory(traj.final_state.data, grid_input.data)
    assert not np.shares_memory(out.data, grid_input.data)
