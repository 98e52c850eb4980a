"""Envelopes, couplings, grids, and biphoton states."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from quadwg import (
    CouplingSpec,
    DirectionPair,
    Envelope,
    FrequencyGrid,
    GridState,
    InvalidEnvelopeError,
    InvalidStateError,
    MarkovValidityWarning,
    SeparableState,
    TruncationWarning,
    decompose,
    gaussian_biphoton,
    project_on_envelope,
)
from quadwg.spectral import gaussian_difference_profile, gaussian_sum_spectrum

widths = st.floats(min_value=1e-3, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def test_direction_pair_string_roundtrip():
    for pair in DirectionPair:
        assert DirectionPair.from_string(pair.value) is pair
    assert DirectionPair.PM.swapped is DirectionPair.MP
    assert DirectionPair.PP.swapped is DirectionPair.PP
    assert DirectionPair.MM.swapped is DirectionPair.MM
    with pytest.raises(ValueError):
        DirectionPair.from_string("+*")


def test_gaussian_envelope_peak_intensity():
    beta = 0.02
    env = Envelope.gaussian(beta)
    target = math.sqrt(2.0 / (math.pi * beta * beta))
    assert abs(env(0.0)) ** 2 == pytest.approx(target, rel=1e-12)


def test_lorentzian_envelope_half_width_point():
    env = Envelope.lorentzian(1.0)
    # At half the width the squared modulus is 2/pi for unit width.
    assert abs(env(0.5)) ** 2 == pytest.approx(2.0 / math.pi, rel=1e-12)


@given(widths, st.floats(min_value=0.0, max_value=50.0))
def test_envelope_evenness(width, delta):
    for env in (Envelope.gaussian(width), Envelope.lorentzian(width)):
        assert env(-delta) == env(delta)


@given(widths)
def test_envelope_full_line_mass_is_two(width):
    assert Envelope.gaussian(width).squared_norm() == pytest.approx(2.0, rel=1e-10)
    assert Envelope.lorentzian(width).squared_norm() == pytest.approx(2.0, rel=1e-10)


def test_tabulated_box_mass():
    deltas = np.linspace(0.0, 1.0, 5)
    env = Envelope.tabulated(deltas, np.ones(5))
    # Half-line box of height 1 on [0, 1] already carries unit mass.
    assert env.squared_norm() == pytest.approx(2.0, rel=1e-14)
    assert env(0.5) == pytest.approx(1.0)


def test_tabulated_renormalization():
    deltas = np.linspace(0.0, 1.0, 5)
    env = Envelope.tabulated(deltas, 7.0 * np.ones(5))
    assert env(0.3) == pytest.approx(1.0, rel=1e-13)
    assert env.half_line_mass(1.0) == pytest.approx(1.0, rel=1e-13)
    # Linear interpolation, zero outside the sampled range.
    assert env(2.0) == 0.0
    # Samples starting above zero keep no mass below the first sample.
    late = Envelope.tabulated(np.linspace(0.2, 1.0, 5), np.ones(5))
    assert late.half_line_mass(0.1) == 0.0
    assert late.half_line_mass(0.2) == 0.0
    assert late.half_line_mass(0.6) == pytest.approx(0.5, rel=1e-13)


def test_tabulated_validation_errors():
    with pytest.raises(InvalidEnvelopeError):
        Envelope.tabulated([0.0], [1.0])
    with pytest.raises(InvalidEnvelopeError):
        Envelope.tabulated([0.0, 0.5, 0.4], [1.0, 1.0, 1.0])
    with pytest.raises(InvalidEnvelopeError):
        Envelope.tabulated([-0.1, 0.5], [1.0, 1.0])
    with pytest.raises(InvalidEnvelopeError):
        Envelope.tabulated([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(InvalidEnvelopeError):
        Envelope.gaussian(0.0)


def test_envelope_peak_density_must_be_finite():
    # Widths whose square is still positive but whose peak density is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidEnvelopeError, match="overflows"):
            Envelope.gaussian(1e-160)
        with pytest.raises(InvalidEnvelopeError, match="overflows"):
            Envelope.lorentzian(2.5e-162)  # width^2 / 4 underflows
        assert np.isfinite(Envelope.lorentzian(1e-160)(0.0))


def test_envelope_fwhm_values():
    assert Envelope.gaussian(0.02).fwhm() == pytest.approx(
        0.04 * math.sqrt(2.0 * math.log(2.0)), rel=1e-12)
    assert Envelope.lorentzian(0.03).fwhm() == pytest.approx(0.03)
    # Triangle peaked at zero: |u|^2 falls to half at delta = 1 - 1/sqrt(2).
    tri = Envelope.tabulated(np.linspace(0.0, 1.0, 4001),
                             1.0 - np.linspace(0.0, 1.0, 4001))
    assert tri.fwhm() == pytest.approx(2.0 * (1.0 - 2.0 ** -0.5), rel=1e-3)
    # First sample below half the peak, but before it: the width comes from
    # the descending segment, where |u|^2 of the interpolant is quadratic.
    tab = Envelope.tabulated([0.0, 0.01, 0.03, 0.06, 0.1],
                             [0.3, 1.0, 0.7 + 0.2j, 0.2, 0.0])
    half = float(np.max(np.abs(tab.values) ** 2)) / 2.0
    cross = brentq(lambda d: abs(tab(d)) ** 2 - half, 0.03, 0.06, xtol=1e-16)
    assert tab.fwhm() == pytest.approx(2.0 * cross, rel=1e-12)
    assert tab.fwhm() == pytest.approx(0.0623416708, rel=1e-9)


def test_half_line_mass_closed_forms():
    env = Envelope.gaussian(0.02)
    assert env.half_line_mass(0.02) == pytest.approx(math.erf(1.0 / math.sqrt(2.0)))
    lor = Envelope.lorentzian(0.02)
    assert lor.half_line_mass(0.01) == pytest.approx(0.5)  # atan(1) point
    assert lor.half_line_mass(1e4) == pytest.approx(1.0, abs=2e-4)


def test_coupling_total_rate_conventions():
    env = Envelope.gaussian(0.02)
    iso = CouplingSpec.isotropic(0.004, env, 1.0)
    assert iso.total_rate == pytest.approx(0.004)
    for pair in DirectionPair:
        assert iso.rate(pair) == pytest.approx(0.001)
    mirror = CouplingSpec.mirror(0.004, env, 1.0)
    assert mirror.total_rate == pytest.approx(0.004)
    assert mirror.rate(DirectionPair.PP) == pytest.approx(0.004)
    assert mirror.rate(DirectionPair.MM) == 0.0
    two = CouplingSpec(1.0, {DirectionPair.PP: 0.002, DirectionPair.MM: 0.002,
                             DirectionPair.PM: 0.0, DirectionPair.MP: 0.0}, env)
    assert two.total_rate == pytest.approx(0.004)


def test_coupling_cross_rate_fill_and_validation():
    env = Envelope.gaussian(0.02)
    cpl = CouplingSpec(1.0, {DirectionPair.PP: 0.001, DirectionPair.MM: 0.001,
                             DirectionPair.PM: 0.0005}, env)
    assert cpl.rate(DirectionPair.MP) == pytest.approx(0.0005)
    with pytest.raises(ValueError):
        CouplingSpec(1.0, {DirectionPair.PM: 0.001, DirectionPair.MP: 0.002},
                     env)
    with pytest.raises(ValueError):
        CouplingSpec(1.0, {DirectionPair.PP: -0.001}, env)
    with pytest.raises(ValueError):
        CouplingSpec(1.0, {DirectionPair.PP: 0.0}, env)
    with pytest.raises(ValueError):
        CouplingSpec(-1.0, {DirectionPair.PP: 0.001}, env)
    # String keys name the same pairs; unknown or repeated keys are errors.
    keyed = CouplingSpec(1.0, {"++": 0.004}, env)
    assert keyed.rate(DirectionPair.PP) == 0.004
    assert keyed.total_rate == 0.004
    assert keyed.rates == CouplingSpec.mirror(0.004, env).rates
    with pytest.raises(ValueError):
        CouplingSpec(1.0, {"+x": 0.004}, env)
    with pytest.raises(ValueError, match="given twice"):
        CouplingSpec(1.0, {"++": 0.004, DirectionPair.PP: 0.004}, env)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"omega0 must be finite"):
            CouplingSpec(bad, {DirectionPair.PP: 0.001}, env)
        with pytest.raises(ValueError, match=r"rates\['--'\] must be finite"):
            CouplingSpec(1.0, {DirectionPair.PP: 0.001, "--": bad}, env)
        with pytest.raises(InvalidEnvelopeError,
                           match="envelope width must be finite"):
            Envelope.gaussian(bad)
        with pytest.raises(InvalidEnvelopeError,
                           match="envelope width must be finite"):
            Envelope.lorentzian(bad)


def test_markov_validity_warning():
    env = Envelope.gaussian(0.02)
    with pytest.warns(MarkovValidityWarning):
        CouplingSpec.isotropic(0.1, env, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        CouplingSpec.isotropic(0.04, env, 1.0)


def test_regular_grid_axes():
    grid = FrequencyGrid.regular(1.0, 0.1, 0.05, 64, 33)
    assert grid.omegabar.size == 64 and grid.delta.size == 33
    assert grid.delta[0] == 0.0
    assert grid.omegabar[0] == pytest.approx(0.9)
    assert grid.omegabar[-1] == pytest.approx(1.1)
    assert grid.delta[-1] == pytest.approx(0.05)
    assert grid.shape == (64, 33)


def test_scattering_grid_window_scales_with_rates_and_width():
    coupling = CouplingSpec.isotropic(0.004, Envelope.gaussian(0.02), 1.0)
    grid = FrequencyGrid.for_scattering(coupling, 0.01, 128, 64)
    assert grid.omegabar[0] == pytest.approx(1.0 - 20 * 0.004)
    assert grid.omegabar[-1] == pytest.approx(1.0 + 20 * 0.004)
    # Difference window follows the wider of envelope and input widths.
    assert grid.delta[-1] == pytest.approx(0.2)


def test_grid_integrate_matches_analytic_mass():
    grid = FrequencyGrid.regular(0.0, 6.0, 6.0, 1201, 601)
    table = np.exp(-grid.omegabar[:, None] ** 2 / 2.0) \
        * np.exp(-grid.delta[None, :] ** 2)
    target = math.sqrt(2.0 * math.pi) * 0.5 * math.sqrt(math.pi)
    assert grid.integrate(table) == pytest.approx(target, rel=1e-6)


def test_separable_state_norm_and_channel_count():
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
    assert state.norm_squared() == pytest.approx(1.0, rel=1e-9)
    cross = gaussian_biphoton(DirectionPair.PM, 1.0, 0.02)
    # The shared cross amplitude counts twice in the norm.
    assert len(cross.channels) == 2
    assert cross.norm_squared() == pytest.approx(1.0, rel=1e-9)
    grid = FrequencyGrid.regular(1.0, 0.1, 0.1, 16, 8)
    expect = {
        DirectionPair.PP: (DirectionPair.PP,),
        DirectionPair.PM: (DirectionPair.PM, DirectionPair.MP),
        DirectionPair.MP: (DirectionPair.MP, DirectionPair.PM),
        DirectionPair.MM: (DirectionPair.MM,),
    }
    for pair, channels in expect.items():
        state = gaussian_biphoton(pair, 1.0, 0.02)
        assert state.channels == channels
        data = state.on_grid(grid).data
        lit = state.amplitude(pair, grid.omegabar[:, None],
                              grid.delta[None, :])
        assert np.any(lit != 0)
        for other in DirectionPair:
            if other in channels:
                np.testing.assert_array_equal(data[other.index], lit)
            else:
                assert not np.any(data[other.index])


def test_cross_channel_amplitudes_are_shared():
    state = gaussian_biphoton(DirectionPair.PM, 1.0, 0.02, 0.01)
    ob = np.linspace(0.95, 1.05, 7)
    dd = np.linspace(0.0, 0.05, 5)
    left = state.amplitude(DirectionPair.PM, ob[:, None], dd[None, :])
    right = state.amplitude(DirectionPair.MP, ob[:, None], dd[None, :])
    np.testing.assert_array_equal(left, right)
    off = state.amplitude(DirectionPair.PP, ob[:, None], dd[None, :])
    assert np.all(off == 0.0)


def test_gaussian_factors_have_stated_moments():
    f, window = gaussian_sum_spectrum(1.0, 0.02)
    x = np.linspace(window[0], window[1], 20001)
    w = np.abs(f(x)) ** 2
    w /= np.trapezoid(w, x)
    mean = np.trapezoid(x * w, x)
    var = np.trapezoid((x - mean) ** 2 * w, x)
    assert mean == pytest.approx(1.0, abs=1e-10)
    assert math.sqrt(var) == pytest.approx(0.02, rel=1e-8)

    h, hwindow = gaussian_difference_profile(0.015)
    d = np.linspace(0.0, hwindow[1], 20001)
    mass = np.trapezoid(np.abs(h(d)) ** 2, d)
    assert mass == pytest.approx(1.0, rel=1e-8)


def test_grid_state_roundtrip_and_validation():
    coupling = CouplingSpec.isotropic(0.004, Envelope.gaussian(0.02), 1.0)
    grid = FrequencyGrid.for_scattering(coupling, 0.02, 96, 48)
    state = gaussian_biphoton(DirectionPair.PM, 1.0, 0.02)
    grid_state = state.on_grid(grid)
    # The sum window ends at four input sigmas; 6e-5 of mass lives outside.
    assert grid_state.norm_squared() == pytest.approx(1.0, rel=1e-4)
    ob, dd = np.meshgrid(grid.omegabar, grid.delta, indexing="ij")
    np.testing.assert_allclose(
        grid_state.amplitude(DirectionPair.PM, ob, dd),
        grid_state.channel(DirectionPair.PM), atol=1e-12)
    bad = grid_state.data.copy()
    bad[DirectionPair.MP.index] *= 1.5
    with pytest.raises(InvalidStateError):
        GridState(grid, bad)


def test_grid_state_resampling_preserves_norm():
    coupling = CouplingSpec.isotropic(0.004, Envelope.gaussian(0.02), 1.0)
    coarse = FrequencyGrid.for_scattering(coupling, 0.02, 96, 48)
    fine = FrequencyGrid.for_scattering(coupling, 0.02, 192, 96)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02).on_grid(coarse)
    resampled = state.on_grid(fine)
    assert resampled.norm_squared() == pytest.approx(state.norm_squared(),
                                                     rel=5e-3)


def test_matched_projection_recovers_sum_spectrum():
    env = Envelope.gaussian(0.02)
    coupling = CouplingSpec.isotropic(0.004, env, 1.0)
    state = SeparableState(DirectionPair.PP,
                           gaussian_sum_spectrum(1.0, 0.02)[0],
                           lambda d: np.conj(env(d)),
                           gaussian_sum_spectrum(1.0, 0.02)[1],
                           (0.0, 0.3))
    p = project_on_envelope(state, env, DirectionPair.PP)
    ob = np.linspace(0.94, 1.06, 11)
    f, _ = gaussian_sum_spectrum(1.0, 0.02)
    np.testing.assert_allclose(p(ob), f(ob), rtol=1e-8)


def test_gaussian_overlap_matches_dense_trapezoid():
    beta, alpha = 0.03, 0.02
    env = Envelope.gaussian(beta)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.05, 0.0)
    h = gaussian_difference_profile(alpha)[0]
    state = SeparableState(DirectionPair.PP, state.f, h,
                           state.f_window, (0.0, 12 * alpha + 12 * beta))
    kappa = state.overlap_with_envelope(env)
    # Independent dense-trapezoid evaluation of the same half-line overlap.
    d = np.arange(0.0, 12 * alpha + 12 * beta, beta / 1000.0)
    hu = np.asarray(h(d), complex)
    hu /= math.sqrt(np.trapezoid(np.abs(hu) ** 2, d))
    reference = np.trapezoid(env(d) * hu, d)
    assert kappa == pytest.approx(reference, rel=1e-7)


def test_projection_vanishes_for_orthogonal_profile():
    env = Envelope.gaussian(0.02)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02, 0.0)
    _, orthogonal = decompose(state, env)
    p = project_on_envelope(orthogonal, env, DirectionPair.PP)
    ob = np.linspace(0.9, 1.1, 21)
    assert np.max(np.abs(p(ob))) < 1e-9


def test_decompose_reconstructs_and_is_orthogonal():
    env = Envelope.gaussian(0.02)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02, 0.01)
    parallel, orthogonal = decompose(state, env)
    ob = np.linspace(0.92, 1.08, 9)[:, None]
    dd = np.linspace(0.0, 0.2, 2001)[None, :]
    total = parallel.amplitude(DirectionPair.PP, ob, dd) \
        + orthogonal.amplitude(DirectionPair.PP, ob, dd)
    np.testing.assert_allclose(total,
                               state.amplitude(DirectionPair.PP, ob, dd),
                               atol=1e-9)
    leak = project_on_envelope(orthogonal, env, DirectionPair.PP, ob[:, 0])
    assert np.max(np.abs(leak)) < 1e-9


def test_decompose_is_idempotent():
    env = Envelope.gaussian(0.02)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02, 0.01)
    parallel, orthogonal = decompose(state, env)
    par2, orth2 = decompose(parallel, env)
    ob = np.linspace(0.95, 1.05, 7)[:, None]
    dd = np.linspace(0.0, 0.15, 301)[None, :]
    np.testing.assert_allclose(
        par2.amplitude(DirectionPair.PP, ob, dd),
        parallel.amplitude(DirectionPair.PP, ob, dd), atol=1e-9)
    assert np.max(np.abs(orth2.amplitude(DirectionPair.PP, ob, dd))) < 1e-9
    par3, _ = decompose(orthogonal, env)
    assert np.max(np.abs(par3.amplitude(DirectionPair.PP, ob, dd))) < 1e-9


def test_matched_input_has_no_orthogonal_part():
    env = Envelope.gaussian(0.02)
    f, window = gaussian_sum_spectrum(1.0, 0.02)
    state = SeparableState(DirectionPair.PP, f,
                           lambda d: np.conj(env(d)), window, (0.0, 0.3))
    _, orthogonal = decompose(state, env)
    ob = np.linspace(0.95, 1.05, 7)[:, None]
    dd = np.linspace(0.0, 0.15, 301)[None, :]
    assert np.max(np.abs(orthogonal.amplitude(DirectionPair.PP, ob, dd))) < 1e-9


def test_grid_decompose_obeys_pythagoras():
    env = Envelope.gaussian(0.02)
    coupling = CouplingSpec.isotropic(0.004, env, 1.0)
    grid = FrequencyGrid.for_scattering(coupling, 0.02, 128, 256)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02, 0.015).on_grid(grid)
    parallel, orthogonal = decompose(state, env)
    total = parallel.norm_squared() + orthogonal.norm_squared()
    assert total == pytest.approx(state.norm_squared(), rel=1e-8)


def test_truncation_warning_for_narrow_delta_window():
    env = Envelope.lorentzian(0.05)
    coupling = CouplingSpec.isotropic(0.004, env, 1.0)
    grid = FrequencyGrid.regular(1.0, 0.08, 0.1, 64, 32)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02).on_grid(grid)
    with pytest.warns(TruncationWarning):
        project_on_envelope(state, env, DirectionPair.PP)


@given(st.floats(min_value=0.2, max_value=5.0))
def test_separable_norm_invariant_under_factor_scaling(scale):
    f, window = gaussian_sum_spectrum(1.0, 0.02)
    h, hwindow = gaussian_difference_profile(0.02)
    base = SeparableState(DirectionPair.PP, f, h, window, hwindow)
    scaled = SeparableState(DirectionPair.PP,
                            lambda x: scale * f(x), h, window, hwindow)
    assert scaled.norm_squared() == pytest.approx(1.0, rel=1e-9)
    ob = np.array([1.0, 1.01])
    dd = np.array([0.0, 0.02])
    np.testing.assert_allclose(
        scaled.amplitude(DirectionPair.PP, ob[:, None], dd[None, :]),
        base.amplitude(DirectionPair.PP, ob[:, None], dd[None, :]),
        rtol=1e-9)
