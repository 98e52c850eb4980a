"""Two-photon scattering amplitudes, probabilities, and bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import erfcx

from quadwg import (
    CouplingSpec,
    DirectionPair,
    Envelope,
    FrequencyGrid,
    InvalidStateError,
    SeparableState,
    TruncationWarning,
    UnsupportedConfigurationError,
    channel_probabilities,
    gaussian_biphoton,
    gaussian_closed_form,
    probability_bounds,
    reflection_sweep,
    scatter,
    scattering_amplitude,
    transfer_coefficient,
)
from quadwg import scattering
from quadwg.spectral import PAIRS, gaussian_difference_profile, gaussian_sum_spectrum

GAMMA = 0.004


def isotropic(total=GAMMA, width=0.02, omega0=1.0, kind="gaussian"):
    env = Envelope.gaussian(width) if kind == "gaussian" \
        else Envelope.lorentzian(width)
    return CouplingSpec.isotropic(total, env, omega0)


def matched_state(coupling, sigma):
    f, window = gaussian_sum_spectrum(coupling.omega0, sigma)
    env = coupling.envelope
    return SeparableState(DirectionPair.PP, f,
                          lambda d: np.conj(env(d)), window,
                          (0.0, 12 * env.width + 12 * sigma))


def test_amplitude_on_resonance_values():
    cpl = isotropic()
    for out_pair in DirectionPair:
        theta = scattering_amplitude(cpl, out_pair, DirectionPair.PP, 1.0)
        assert theta == pytest.approx(-0.5, rel=1e-12)
    mirror = CouplingSpec.mirror(GAMMA, Envelope.gaussian(0.02), 1.0)
    theta = scattering_amplitude(mirror, DirectionPair.PP, DirectionPair.PP, 1.0)
    assert theta == pytest.approx(-2.0, rel=1e-12)


def test_amplitude_detuned_values():
    cpl = isotropic()
    above = scattering_amplitude(cpl, DirectionPair.PP, DirectionPair.PP,
                                 1.0 + GAMMA / 2)
    assert above == pytest.approx(-(1 + 1j) / 4, rel=1e-12)
    below = scattering_amplitude(cpl, DirectionPair.PP, DirectionPair.PP,
                                 1.0 - GAMMA / 2)
    assert below == pytest.approx(-(1 - 1j) / 4, rel=1e-12)


def test_transfer_coefficient_values():
    mirror = CouplingSpec.mirror(GAMMA, Envelope.gaussian(0.02), 1.0)
    chi = transfer_coefficient(mirror, DirectionPair.PP, DirectionPair.PP, 1.0)
    assert chi == pytest.approx(-1.0, rel=1e-12)
    cpl = isotropic()
    cross = transfer_coefficient(cpl, DirectionPair.MM, DirectionPair.PP, 1.0)
    assert cross == pytest.approx(-0.5, rel=1e-12)


rate_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=3,
    max_size=3).filter(lambda r: sum(r) > 1e-6)


@given(rate_strategy, st.floats(min_value=-30.0, max_value=30.0))
def test_single_energy_unitarity(raw, detune_over_gamma):
    """Sum of squared transfer coefficients is one for any rate pattern."""
    pp, mm, pm = raw
    rates = {DirectionPair.PP: pp, DirectionPair.MM: mm,
             DirectionPair.PM: pm, DirectionPair.MP: pm}
    total = pp + mm + 2 * pm
    cpl = CouplingSpec(1e6, {k: 1e-4 * v / total for k, v in rates.items()},
                       Envelope.gaussian(0.02))
    omegabar = 1e6 + detune_over_gamma * cpl.total_rate
    acc = sum(abs(transfer_coefficient(cpl, out, DirectionPair.PP,
                                       omegabar)) ** 2
              for out in DirectionPair)
    assert acc == pytest.approx(1.0, abs=1e-12)


def test_probabilities_sum_to_one_and_share_cross_channel():
    cpl = isotropic()
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02, 0.01)
    probs = channel_probabilities(scatter(cpl, state))
    assert probs.total == pytest.approx(1.0, abs=1e-12)
    assert probs.values[DirectionPair.PM] == probs.values[DirectionPair.MP]
    assert probs.splitting == pytest.approx(
        2.0 * probs.values[DirectionPair.PM])


def test_transparent_input_keeps_all_probability():
    from quadwg import decompose

    cpl = isotropic()
    f, window = gaussian_sum_spectrum(1.0, 0.02)
    h, hwindow = gaussian_difference_profile(0.008, 0.015)
    state = SeparableState(DirectionPair.PP, f, h, window, hwindow)
    _, orthogonal = decompose(state, cpl.envelope)
    probs = channel_probabilities(scatter(cpl, orthogonal))
    assert probs.values[DirectionPair.PP] == pytest.approx(1.0, abs=1e-9)
    assert probs.reflection < 1e-12
    assert probs.splitting < 1e-12


def test_two_sided_chiral_coupling_reflects_completely():
    env = Envelope.gaussian(0.02)
    cpl = CouplingSpec(1.0, {DirectionPair.PP: GAMMA / 2,
                             DirectionPair.MM: GAMMA / 2,
                             DirectionPair.PM: 0.0,
                             DirectionPair.MP: 0.0}, env)
    probs = channel_probabilities(scatter(cpl, matched_state(cpl, GAMMA / 1000)))
    assert probs.reflection == pytest.approx(1.0, abs=1e-3)
    assert probs.splitting < 1e-12


def test_probability_bounds_triples():
    env = Envelope.gaussian(0.02)
    iso = probability_bounds(isotropic())
    assert (iso.reflection_max, iso.splitting_max, iso.transmission_min) \
        == pytest.approx((0.25, 0.5, 0.25))
    both = probability_bounds(CouplingSpec(
        1.0, {DirectionPair.PP: GAMMA / 2, DirectionPair.MM: GAMMA / 2,
              DirectionPair.PM: 0.0, DirectionPair.MP: 0.0}, env))
    assert (both.reflection_max, both.splitting_max, both.transmission_min) \
        == pytest.approx((1.0, 0.0, 0.0))
    one = probability_bounds(CouplingSpec.mirror(GAMMA, env, 1.0))
    assert (one.reflection_max, one.splitting_max, one.transmission_min) \
        == pytest.approx((0.0, 0.0, 1.0))


def test_reflection_never_exceeds_bound():
    rng = np.random.default_rng(7)
    for _ in range(30):
        raw = rng.uniform(0.0, 1.0, size=3)
        rates = {DirectionPair.PP: raw[0], DirectionPair.MM: raw[1],
                 DirectionPair.PM: raw[2], DirectionPair.MP: raw[2]}
        total = raw[0] + raw[1] + 2 * raw[2]
        cpl = CouplingSpec(1.0, {k: GAMMA * v / total for k, v in rates.items()},
                           Envelope.gaussian(rng.uniform(0.005, 0.05)))
        state = gaussian_biphoton(
            DirectionPair.PP, 1.0 + rng.uniform(-0.01, 0.01),
            rng.uniform(0.002, 0.04), rng.uniform(0.0, 0.02))
        probs = channel_probabilities(scatter(cpl, state))
        bound = probability_bounds(cpl)
        assert probs.reflection <= bound.reflection_max + 1e-6


def test_matched_filter_width_maximizes_reflection():
    beta = 0.02
    cpl = isotropic(width=beta)
    f, window = gaussian_sum_spectrum(1.0, beta)
    values = []
    for ratio in (0.5, 0.8, 1.0, 1.25, 2.0):
        h, hwindow = gaussian_difference_profile(ratio * beta)
        state = SeparableState(DirectionPair.PP, f, h, window, hwindow)
        values.append(channel_probabilities(scatter(cpl, state)).reflection)
    assert int(np.argmax(values)) == 2


def test_matched_reflection_closed_form_and_pin():
    alpha = 0.02
    cpl = isotropic(width=alpha)
    probs = channel_probabilities(scatter(cpl, matched_state(cpl, alpha)))
    ratio = GAMMA / alpha
    closed = (math.pi / (8.0 * math.sqrt(2.0 * math.pi))) * ratio \
        * erfcx(ratio / (2.0 * math.sqrt(2.0)))
    assert probs.reflection == pytest.approx(closed, rel=1e-9)
    assert probs.reflection == pytest.approx(0.028981559990468416, rel=1e-10)


def test_reflection_depends_only_on_width_ratios():
    for alpha, gamma in ((0.02, GAMMA), (0.002, GAMMA / 10.0)):
        cpl = isotropic(total=gamma, width=alpha)
        probs = channel_probabilities(scatter(cpl, matched_state(cpl, alpha)))
        assert probs.reflection == pytest.approx(0.028981559990468416,
                                                 rel=1e-9)


def test_grid_and_semianalytic_paths_agree():
    cpl = isotropic()
    grid = FrequencyGrid.for_scattering(cpl, 0.02, 256, 128)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
    analytic = scatter(cpl, state)
    gridded = scatter(cpl, state.on_grid(grid))
    out_a = analytic.output_on(grid)
    out_g = gridded.output
    peak = max(np.max(np.abs(out_a.channel(ch))) for ch in DirectionPair)
    diff = max(np.max(np.abs(out_a.channel(ch) - out_g.channel(ch)))
               for ch in DirectionPair)
    assert diff / peak < 1e-7
    pa = channel_probabilities(analytic)
    pg = channel_probabilities(gridded)
    for pair in DirectionPair:
        assert pg.values[pair] == pytest.approx(pa.values[pair], abs=2e-4)


def test_tabulated_envelope_grid_covers_its_samples():
    # Samples on [0, 1] reach far past ten input widths: the default grid
    # must span the sampled support, not 10 * input_width = 0.1.
    deltas = np.linspace(0.0, 1.0, 201)
    env = Envelope.tabulated(deltas, np.exp(-deltas ** 2 / (4 * 0.1 ** 2)))
    cpl = CouplingSpec.isotropic(GAMMA, env)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.01)
    grid = FrequencyGrid.for_scattering(cpl, 0.01, 256, 128)
    assert grid.delta[-1] == 1.0
    # Without an input width the grid spans the samples, not ten times them.
    assert FrequencyGrid.for_scattering(cpl, 0.0, 16, 8).delta[-1] == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        gridded = channel_probabilities(scatter(cpl, state.on_grid(grid)))
    separable = channel_probabilities(scatter(cpl, state))
    for pair in DirectionPair:
        assert gridded.values[pair] == pytest.approx(separable.values[pair],
                                                     abs=2e-4)


def test_tabulated_envelope_mass_is_that_of_its_interpolant():
    # Unequal spacing and a complex sample: the trapezoid of |samples|^2
    # misses the mass of the linear interpolant by about 10%.
    deltas = [0.0, 0.01, 0.03, 0.06, 0.1]
    env = Envelope.tabulated(deltas, [0.3, 1.0, 0.7 + 0.2j, 0.2, 0.0])
    pieces = [quad(lambda d: abs(env(d)) ** 2, a, b, epsabs=1e-14,
                   epsrel=1e-13)[0] for a, b in zip(deltas[:-1], deltas[1:])]
    assert math.fsum(pieces) == pytest.approx(1.0, abs=1e-12)
    assert env.squared_norm() == pytest.approx(2.0, abs=1e-12)
    partial = math.fsum(pieces[:2]) + quad(
        lambda d: abs(env(d)) ** 2, 0.03, 0.045, epsabs=1e-14)[0]
    assert env.half_line_mass(0.045) == pytest.approx(partial, abs=1e-12)
    # The separable formula assumes unit mass; a fine grid of the same
    # state measures the mass the interpolant actually carries.
    cpl = CouplingSpec.isotropic(GAMMA, env)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 5e-4)
    separable = channel_probabilities(scatter(cpl, state))
    grid = FrequencyGrid.for_scattering(cpl, 5e-4, 512, 2048)
    gridded = channel_probabilities(scatter(cpl, state.on_grid(grid)))
    assert gridded.reflection == pytest.approx(separable.reflection,
                                               rel=1e-3)
    assert gridded.total == pytest.approx(1.0, abs=1e-6)


def test_separable_scatter_integrates_each_quantity_once(quad_calls):
    cpl = isotropic()
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
    assert len(quad_calls) == 2  # the two factor masses, kept by the state
    quad_calls.clear()
    channel_probabilities(scatter(cpl, state))
    # Two for the complex envelope overlap, one for the line integral J.
    assert len(quad_calls) == 3


def test_scatter_rejects_zero_norm_input():
    f, window = gaussian_sum_spectrum(1.0, 0.02)
    h, hwindow = gaussian_difference_profile(0.02)
    empty = SeparableState(DirectionPair.PP, lambda x: 0.0 * x, h,
                           window, hwindow, scale=1.0)
    with pytest.raises(InvalidStateError):
        scatter(isotropic(), empty)


def test_closed_form_rejects_unsupported_configurations():
    cpl = isotropic(kind="lorentzian")
    grid = FrequencyGrid.for_scattering(cpl, 0.02, 64, 32)
    with pytest.raises(UnsupportedConfigurationError):
        gaussian_closed_form(cpl, 0.02, 0.5, 0.5, grid)
    with pytest.raises(ValueError):
        gaussian_closed_form(isotropic(), -0.02, 0.5, 0.5,
                             FrequencyGrid.for_scattering(isotropic(), 0.02,
                                                          64, 32))


def test_closed_form_far_detuned_input_is_untouched():
    cpl = isotropic(width=0.0004)
    sigma = GAMMA / 10.0
    center = 1.0 + 50.0 * GAMMA
    grid = FrequencyGrid.regular(center, 10 * sigma, 10 * 0.0004, 128, 64)
    out = gaussian_closed_form(cpl, sigma, center / 2.0, center / 2.0, grid)
    reference = gaussian_biphoton(DirectionPair.PP, center, sigma).on_grid(grid)
    peak = np.max(np.abs(reference.channel(DirectionPair.PP)))
    diff = max(np.max(np.abs(out.channel(ch) - reference.channel(ch)))
               for ch in DirectionPair)
    # Pointwise the leftover is the single-energy amplitude Gamma/(4 x 50
    # Gamma) = 5e-3; in probability it is quadratically smaller.
    assert diff / peak < 6e-3
    norm_in = reference.norm_squared()
    kept = grid.integrate(np.abs(out.channel(DirectionPair.PP)) ** 2) / norm_in
    assert kept == pytest.approx(1.0, abs=1e-3)
    for pair in (DirectionPair.PM, DirectionPair.MM):
        lost = grid.integrate(np.abs(out.channel(pair)) ** 2) / norm_in
        assert lost < 3e-5


def test_reflection_sweep_shape_and_extremes():
    sweep = reflection_sweep(0.02, (0.05, 1.0, 20.0), (GAMMA,))
    assert sweep.reflection.shape == (1, 3)
    center = sweep.reflection[0, 1]
    assert sweep.reflection[0, 0] < 0.2 * center
    assert sweep.reflection[0, 2] < 0.2 * center
    with pytest.raises(ValueError):
        reflection_sweep(-0.02, (1.0,), (GAMMA,))
    with pytest.raises(ValueError):
        reflection_sweep(0.02, (0.0,), (GAMMA,))
    with pytest.raises(ValueError):
        reflection_sweep(0.02, (1.0,), (0.0,))


def test_output_records_phase_convention():
    assert "phase" in scattering.PHASE_NOTE
    result = scatter(isotropic(), gaussian_biphoton(DirectionPair.PP, 1.0, 0.02))
    assert result.phase_note == scattering.PHASE_NOTE
