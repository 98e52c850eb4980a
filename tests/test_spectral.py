"""Envelopes, couplings, grids, and biphoton states."""

import functools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad
from scipy.interpolate import RegularGridInterpolator
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
    channel_probabilities,
    decompose,
    gaussian_biphoton,
    project_on_envelope,
    scatter,
)
from quadwg import _quadpack, spectral
from quadwg.emission import default_emission_grid, joint_spectrum
from quadwg.gate import PulseShape
from quadwg.spectral import (EnvelopeKind, _integrals, _quad_options,
                             gaussian_difference_profile,
                             gaussian_sum_spectrum, resonance_denominator)

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


@given(widths, st.booleans())
def test_squared_norm_equals_its_one_node_form_bitwise(width, lorentzian):
    envelope = (Envelope.lorentzian if lorentzian else Envelope.gaussian)(width)
    expected = quad(lambda d: abs(envelope(d)) ** 2, 0.0, np.inf,
                    **_quad_options(0.0, np.inf))[0]
    assert envelope.squared_norm().hex() == (2.0 * expected).hex()


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
    with pytest.raises(InvalidEnvelopeError, match="needs samples"):
        Envelope(EnvelopeKind.TABULATED)


def test_envelope_peak_density_must_be_finite():
    # Widths whose square is still positive but whose peak density is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidEnvelopeError, match="overflows"):
            Envelope.gaussian(1e-160)
        with pytest.raises(InvalidEnvelopeError, match="overflows"):
            Envelope.lorentzian(2.5e-162)  # width^2 / 4 underflows
        assert np.isfinite(Envelope.lorentzian(1e-160)(0.0))


@pytest.mark.parametrize("make, too_large, largest", [
    # pi * 1e154**2 overflows though 1e154**2 does not
    (Envelope.gaussian, (1e154, 1e200, 1.7976931348623157e308), 1e153),
    (Envelope.lorentzian, (1.4e154, 1e200, 1.7976931348623157e308), 1e154),
], ids=["gaussian", "lorentzian"])
def test_envelope_peak_density_must_not_vanish(make, too_large, largest):
    # Such widths once gave a Gaussian of squared norm 0.0 yet half-line
    # mass 1.0, and a Lorentzian that is 0j everywhere.
    for width in too_large:
        with pytest.raises(InvalidEnvelopeError, match="too large"):
            make(width)
    assert abs(make(largest)(0.0)) > 0


def test_gaussian_envelope_exponent_scale_must_not_overflow():
    # 4 b^2 overflows above about 6.7e153 though pi b^2 does not; such a
    # Gaussian was flat at every finite node and nan at inf or 1e200.
    for width in (6.71e153, 7e153, 7.5e153):
        with pytest.raises(InvalidEnvelopeError, match="too large"):
            Envelope.gaussian(width)
    width = 6.7e153
    env = Envelope.gaussian(width)
    assert env(2 * width) == pytest.approx(env(0.0) * math.exp(-1.0),
                                           rel=1e-12)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert env(1e200) == 0.0
    assert env(math.inf) == 0.0


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
    # |u|^2 never falls to half its peak: the width is the sampled line.
    flat = Envelope.tabulated([0.0, 0.5, 1.5], [0.8, 1.0, 0.9])
    assert flat.fwhm() == 3.0


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
    twin = CouplingSpec(1.0, {DirectionPair.PP: 0.001, "-+": 0.0005}, env)
    assert twin.rate(DirectionPair.PM) == 0.0005
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


@pytest.mark.parametrize("omegabar, delta, message", [
    ([1.0], [0.0, 0.1], "omegabar axis needs at least two points"),
    ([1.0, 0.9], [0.0, 0.1], "omegabar axis must be strictly increasing"),
    ([0.9, 1.0, 1.2], [0.0, 0.1], "omegabar axis must be uniform"),
    ([0.9, 1.0], [0.1, 0.2], "delta axis must start at zero"),
], ids=["one-point", "decreasing", "non-uniform", "delta-off-zero"])
def test_frequency_grid_rejects_bad_axes(omegabar, delta, message):
    with pytest.raises(ValueError, match=message):
        FrequencyGrid(np.array(omegabar), np.array(delta))


@given(st.floats(-6.0, 6.0), st.sampled_from([-1.0, 0.0, 1.0]),
       st.floats(-9.0, 2.0), st.integers(2, 4096))
@example(0.0, 1.0, -5.0, 256)
def test_frequency_grid_accepts_every_linspace_axis(log_scale, sign,
                                                    log_ratio, size):
    # Half-widths down to 1e-9 of the centre: there linspace's rounding of
    # the step is far above the 1e-9 relative bound, yet the axis is as
    # uniform as float64 can make it.
    scale = 10.0 ** log_scale
    halfwidth = 10.0 ** log_ratio * scale
    grid = FrequencyGrid.regular(sign * scale, halfwidth, halfwidth,
                                 size, size)
    assert grid.shape == (size, size)


@pytest.mark.parametrize("center, halfwidth, size", [
    (1.0, 1e-5, 256), (1.0, 1e-4, 2048), (0.0, 1.0, 64)])
@pytest.mark.parametrize("name", ["omegabar", "delta"])
def test_frequency_grid_rejects_one_step_off_by_1e6(name, center, halfwidth,
                                                    size):
    axes = {"omegabar": np.linspace(center - halfwidth, center + halfwidth,
                                    size),
            "delta": np.linspace(0.0, halfwidth, size)}
    axis = axes[name]
    axis[size // 2:] += 1e-6 * (axis[1] - axis[0])
    with pytest.raises(ValueError, match=f"{name} axis must be uniform"):
        FrequencyGrid(**axes)


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


@pytest.mark.parametrize("sum_center, sigma, diff_center, name", [
    (math.nan, 0.02, 0.0, "center"),
    (math.inf, 0.02, 0.0, "center"),
    (1.0, math.inf, 0.0, "sigma"),
    (1.0, math.nan, 0.0, "sigma"),
    (1.0, 0.02, math.nan, "center"),
    (1.0, 0.02, -math.inf, "center"),
], ids=["nan-sum-center", "inf-sum-center", "inf-sigma", "nan-sigma",
        "nan-diff-center", "inf-diff-center"])
def test_gaussian_biphoton_rejects_non_finite_inputs(sum_center, sigma,
                                                     diff_center, name):
    # A nan center once built a state of nan scale, and an infinite sigma
    # failed as a zero norm.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        gaussian_biphoton(DirectionPair.PP, sum_center, sigma, diff_center)


@pytest.mark.parametrize("build", [
    lambda sigma: gaussian_sum_spectrum(1.0, sigma),
    gaussian_difference_profile,
    lambda sigma: gaussian_biphoton(DirectionPair.PP, 1.0, sigma),
], ids=["sum", "difference", "biphoton"])
@pytest.mark.parametrize("sigma, message", [
    (0.0, "sigma must be positive"),
    (1e-170, "too small"),
    (1.12e153, "too large"),
    (4e153, "too large"),
    (5e153, "too large"),
    (6e153, "too large"),
    (7e153, "too large"),
    (1e160, "too large"),
], ids=["zero", "1e-170", "1.12e153", "4e153", "5e153", "6e153", "7e153",
        "1e160"])
def test_gaussian_factors_reject_widths_out_of_range(build, sigma, message):
    # From about 1.12e153 the square of the 12-sigma half window overflows.
    # Such widths once warned and built states of scale 1.0008 (4e153),
    # 1.0074 (5e153), zero norm (6e153) or nan (7e153, 1e160).
    with pytest.raises(ValueError, match=message):
        build(sigma)


@pytest.mark.parametrize("diff_center", [1e3, 1e6, -1e3])
def test_difference_profile_far_from_zero_has_unit_mass(diff_center):
    # The window holds the peak at |center|, not only the range from 0,
    # where a single break point at its middle missed the peak.
    h, (lo, hi) = gaussian_difference_profile(0.02, diff_center)
    reach = 12.0 * 0.02
    assert (lo, hi) == (abs(diff_center) - reach, abs(diff_center) + reach)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02, diff_center)
    _, mass = state._factor_masses()
    # Nodes near 1e6 carry their difference from the centre to about 1e-10.
    assert mass == pytest.approx(1.0, rel=1e-12 if abs(diff_center) < 1e4
                                 else 1e-9)
    envelope = Envelope.gaussian(0.02)
    probabilities = channel_probabilities(scatter(
        CouplingSpec.isotropic(0.004, envelope), state))
    assert probabilities.transmission == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("diff_center, sigma", [(0.0, 0.02), (0.24, 0.02),
                                                (-0.1, 0.01)])
def test_difference_profile_near_zero_keeps_its_window(diff_center, sigma):
    # Within 12 sigma of zero the window starts at zero, as it always did.
    _, window = gaussian_difference_profile(sigma, diff_center)
    assert window == (0.0, abs(diff_center) + 12.0 * sigma)


def test_gaussian_biphoton_takes_the_widest_window_that_squares():
    # Warnings fail this suite, so the state builds without one.
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 1.1e153)
    assert state.norm_squared() == pytest.approx(1.0, rel=1e-12)


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
    pm, mp = DirectionPair.PM.index, DirectionPair.MP.index
    # Cross channels equal within 1e-8 of the largest amplitude pass, and
    # so do ones that differ only in the sign of a zero.
    near = grid_state.data.copy()
    near[mp] += 0.5e-8 * np.max(np.abs(near))
    assert not np.array_equal(near[pm], near[mp])
    GridState(grid, near)
    signed = grid_state.data.copy()
    signed[pm, 0, :] = 0.0
    signed[mp, 0, :] = complex(-0.0, -0.0)
    assert signed[pm].tobytes() != signed[mp].tobytes()
    GridState(grid, signed)
    bad = grid_state.data.copy()
    bad[mp] *= 1.5
    with pytest.raises(InvalidStateError):
        GridState(grid, bad)
    with pytest.raises(InvalidStateError, match="must have shape"):
        GridState(grid, grid_state.data[:3])


@pytest.mark.parametrize("pm_value, mp_value", [
    (math.nan, 0.0), (math.inf, 0.0), (math.inf, -math.inf),
    (complex(0.0, math.nan), 0.0), (math.nan, -math.nan)])
def test_grid_state_rejects_cross_channels_differing_through_non_finite_values(
        pm_value, mp_value):
    grid = FrequencyGrid(np.array([0.5, 1.0, 1.5, 2.0]),
                         np.array([0.0, 0.25, 0.5]))
    data = np.full((4, 4, 3), 0.5 + 0.25j)
    pm, mp = DirectionPair.PM.index, DirectionPair.MP.index
    data[pm, 1, 2], data[mp, 1, 2] = pm_value, mp_value
    with pytest.raises(InvalidStateError, match="cross channels"):
        GridState(grid, data)
    # The same non-finite bits in both channels agree, beside a nan in
    # another channel; a finite disagreement is caught beside them.
    data[mp, 1, 2] = data[pm, 1, 2]
    data[DirectionPair.PP.index, 0, 0] = math.nan
    GridState(grid, data)
    data[mp, 3, 0] *= 1.5
    with pytest.raises(InvalidStateError, match="cross channels"):
        GridState(grid, data)


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


def _tabulated_overlap_mpmath(deltas, samples, sigma):
    """``Int u h`` of the unit-mass linear interpolant ``u`` of real samples
    against the centred folded Gaussian ``h`` of width ``sigma``, segment by
    segment in 20-digit arithmetic."""
    mass, overlap = mpmath.mpf(0), mpmath.mpf(0)
    with mpmath.workdps(20):
        s = mpmath.mpf(sigma)
        amp = (2 / (mpmath.pi * s * s)) ** mpmath.mpf(0.25)
        for a, b, ua, ub in zip(deltas[:-1], deltas[1:],
                                samples[:-1], samples[1:]):
            a, b, ua, ub = (mpmath.mpf(float(x)) for x in (a, b, ua, ub))

            def u(x, a=a, b=b, ua=ua, ub=ub):
                return ua + (ub - ua) * (x - a) / (b - a)

            def uh(x, u=u):
                return u(x) * amp * mpmath.exp(-x * x / (4 * s * s))

            mass += mpmath.quad(lambda x, u=u: u(x) ** 2, [a, b],
                                method="gauss-legendre")
            overlap += mpmath.quad(uh, [a, b], method="gauss-legendre")
        return float(overlap / mpmath.sqrt(mass))


@pytest.mark.parametrize("n_samples", [61, 401])
def test_tabulated_overlap_matches_mpmath_interpolant(n_samples):
    # One quadrature window across the sample kinks warns at these counts
    # (fatal under this suite).
    deltas = np.linspace(0.0, 0.2, n_samples)
    samples = np.exp(-deltas ** 2 / (4 * 0.02 ** 2))
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
    kappa = state.overlap_with_envelope(Envelope.tabulated(deltas, samples))
    expected = _tabulated_overlap_mpmath(deltas, samples, 0.02)
    assert abs(kappa - expected) <= 1e-10 * abs(expected)


def _two_pass_complex_quad(fn, a, b, points=None):
    """The integral of complex ``fn`` without shared nodes: each pass
    evaluates ``fn`` afresh."""
    kw = _quad_options(a, b, points)
    re, _ = quad(lambda x: fn(x).real, a, b, **kw)
    im, _ = quad(lambda x: fn(x).imag, a, b, **kw)
    return re + 1j * im


def bits(z):
    return (z.real.hex(), z.imag.hex())


@pytest.mark.parametrize("envelope", [
    Envelope.gaussian(0.03),
    Envelope.lorentzian(0.03),
    Envelope.tabulated([0.0, 0.01, 0.03, 0.06, 0.1],
                       [0.3, 1.0, 0.7 + 0.2j, 0.2, 0.0]),
], ids=["gaussian", "lorentzian", "tabulated"])
def test_complex_quad_equals_two_pass_form_bitwise(envelope):
    f, f_window = gaussian_sum_spectrum(1.0, 0.02)
    h, (lo, hi) = gaussian_difference_profile(0.02, 0.015)
    state = SeparableState(DirectionPair.PP, f, h, f_window, (lo, hi))

    def overlap(a, b, points):
        return _two_pass_complex_quad(lambda d: envelope(d) * h(d), a, b,
                                      points)

    if envelope.kind is EnvelopeKind.TABULATED:
        # Integrated one sample segment at a time.
        hi = min(hi, float(envelope.deltas[-1]))
        mid = 0.5 * (lo + hi)
        nodes = envelope.deltas[envelope.deltas <= hi]
        expected = sum(overlap(a, b, [mid])
                       for a, b in zip(nodes[:-1], nodes[1:]))
    else:
        mid = 0.5 * (lo + hi)
        expected = overlap(lo, hi, [mid])
    assert bits(state.overlap_with_envelope(envelope)) \
        == bits(state.scale * expected)


def test_integrals_evaluate_each_node_array_once():
    # The parts of one integrand share their values: ``values`` is called
    # once a round, on the nodes of every unfinished integral of its job,
    # so as often as the integral with the most rule applications applies
    # its rule, each time on new nodes.  Two jobs run together give what
    # each gives alone.
    calls = []

    def parts(x):
        calls.append(x.tobytes())
        return 1.0 / (1e-4 + (x - 0.3) ** 2), np.cos(40.0 * x) * np.exp(-x * x)

    def other(x):
        return (np.exp(-(x - 0.5) ** 2),)

    segments, points = [(-1.0, 0.2), (0.2, 2.0), (2.0, np.inf)], [0.3, 1.0]
    options = [_quad_options(a, b, points) for a, b in segments]
    values, together = _integrals(spectral.quad,
                                  [(parts, 2, segments, points),
                                   (other, 1, [(-3.0, 3.0)], None)])
    rounds = list(calls)
    applications = []
    for i, value in enumerate(values):
        alone = 0
        for (a, b), kw in zip(segments, options):
            count = []
            alone += spectral.quad(lambda x, i=i: count.append(1)
                                   or parts(x)[i], a, b, **kw)[0]
            applications.append(len(count))
        assert value.hex() == alone.hex()
    assert len(rounds) == max(applications) > 10
    assert len(rounds) == len(set(rounds))
    assert together == _integrals(spectral.quad,
                                  [(other, 1, [(-3.0, 3.0)], None)])[0]


def test_integrals_keep_signed_zeros_apart():
    # A job places the nodes of intervals with equal bounds once, and
    # -0.0 == 0.0; that is sound, as either zero places the same nodes,
    # none of them a zero.  The integrand tells the signs apart.
    seen = []

    def sign(x):
        seen.append(x)
        return (np.copysign(1.0, x),)

    assert _integrals(spectral.quad, [(sign, 1, [(-0.0, 1.0), (0.0, 1.0),
                                                 (-1.0, -0.0)], None)]) \
        == [[1.0]]
    assert not np.any(np.concatenate(seen) == 0.0)
    assert _quadpack._nodes21([(-0.0, 1.0)]) == _quadpack._nodes21([(0.0, 1.0)])


# The scalar kernels quad calls, built from the sweeps' parameter ranges:
# total rates 1e-4..1e-2 around omega0 = 1, widths 1e-5 (the narrowest
# entropy-sweep envelope) to 1 (the gate's unit pulse).
_KERNELS = {
    "resonance_denominator":
        lambda rate, center, width: functools.partial(
            resonance_denominator, rate, center),
    "envelope_gaussian": lambda rate, center, width: Envelope.gaussian(width),
    "envelope_lorentzian":
        lambda rate, center, width: Envelope.lorentzian(width),
    "envelope_tabulated": lambda rate, center, width: Envelope.tabulated(
        [0.0, width, 3 * width], [1.0, 0.5 + 0.25j, 0.0]),
    "sum_spectrum":
        lambda rate, center, width: gaussian_sum_spectrum(center, width)[0],
    "difference_profile": lambda rate, center, width:
        gaussian_difference_profile(width, center - 1.0)[0],
    "pulse_gaussian":
        lambda rate, center, width: PulseShape.gaussian(center, width),
    "pulse_lorentzian":
        lambda rate, center, width: PulseShape.lorentzian(center, width),
}

# Nodes whose squares overflow or underflow, signed zeros and non-finite
# values.
_EDGE_NODES = (0.0, -0.0, 5e-324, 1e-170, 1e200, -1e200,
               1.7976931348623157e308, -1.7976931348623157e308,
               math.inf, -math.inf, math.nan)

_nodes = st.one_of(
    st.floats(0.9, 1.1),      # sum frequencies of the sweeps' windows
    st.floats(-0.5, 0.5),     # difference frequencies and pulse detunings
    st.floats(-1e8, 1e8),     # gate windows at large rates, quad's tails
    st.sampled_from(_EDGE_NODES),
    st.floats())


def _bits(value):
    """Bit patterns of the real and imaginary parts of a scalar value."""
    z = np.asarray(value, dtype=complex)
    assert z.shape == ()
    return z.reshape(1).view(np.uint64).tolist()


def _evaluate(kernel, node):
    """Value of ``kernel`` at ``node`` and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = kernel(node)
    return _bits(value), [w.category for w in caught]


@pytest.mark.parametrize("name", sorted(_KERNELS))
@given(st.floats(1e-4, 1e-2), st.floats(0.97, 1.03), st.floats(1e-5, 1.0),
       _nodes)
def test_kernel_gives_same_bits_for_float_and_array_nodes(
        name, rate, center, width, node):
    # A caller may pass a node as a Python float or as a 0-d array.  Both
    # must give the same bits and the same warnings.
    kernel = _KERNELS[name](rate, center, width)
    assert _evaluate(kernel, node) == _evaluate(kernel, np.asarray(node))


@pytest.mark.parametrize("kernel, node, expected, message", [
    (functools.partial(resonance_denominator, 0.004, 1e308),
     -1.7976931348623157e308, complex(math.nan, math.inf), "overflow"),
    # An overflowing square gives inf, and exp(-inf) or 1/inf gives zero.
    (Envelope.gaussian(0.02), 1e200, 0.0, "overflow"),
    (Envelope.lorentzian(0.02), -1e200, 0.0, "overflow"),
    (gaussian_sum_spectrum(1.0, 0.01)[0], 1e200, 0.0, "overflow"),
    (gaussian_difference_profile(0.01, 0.02)[0], -1e200, 0.0, "overflow"),
    (PulseShape.gaussian(0.0, 1.0), 1.7976931348623157e308, 0.0, "overflow"),
    (PulseShape.lorentzian(0.0, 1.0), 1e200, 0.0, "overflow"),
], ids=["denominator", "envelope-gaussian", "envelope-lorentzian",
        "sum-spectrum", "difference-profile", "pulse-gaussian-tail",
        "pulse-lorentzian-tail"])
def test_edge_nodes_give_ieee_values_with_a_warning(kernel, node, expected,
                                                     message):
    # Python float arithmetic would raise ZeroDivisionError or
    # OverflowError on these nodes; numpy gives inf or nan, in the result
    # or in the square that overflows, and warns.
    for x in (node, np.asarray(node)):
        with pytest.warns(RuntimeWarning) as record:
            value = kernel(x)
        assert any(message in str(w.message) for w in record)
        assert np.array_equal(np.asarray(value, dtype=complex),
                              np.asarray(expected, dtype=complex),
                              equal_nan=True)


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_kernel_keeps_its_bits_on_a_dense_array(name):
    # ``_integrals`` evaluates these kernels on arrays of nodes; each
    # element must have the bits of its node passed alone as a float.
    # numpy squares an array with x * x and a float node with libm pow,
    # which differ in about one square in a thousand.
    kernel = _KERNELS[name](0.004, 1.0, 0.02)
    nodes = np.linspace(-0.5, 1.5, 20001)
    alone = np.array([complex(kernel(x)) for x in nodes.tolist()])
    batch = np.asarray(kernel(nodes), dtype=complex)
    assert batch.view(np.uint64).tolist() == alone.view(np.uint64).tolist()


def _bisecting(center):
    """A line of half width 1e-3 at ``center``; its elements keep their
    bits in an array."""
    return (lambda x: 1.0 / (1e-6 + (x - center) * (x - center)),)


def _bisected(info, starts):
    """The intervals QUADPACK bisected, each with its level below the
    starting intervals, rebuilt from the final partition in ``info``."""
    last = info["last"]
    leaves = set(zip(info["alist"][:last].tolist(),
                     info["blist"][:last].tolist()))
    found = []

    def walk(a, b, level):
        if (a, b) in leaves:
            return
        assert level < 60, "the partition does not rebuild"
        found.append((a, b, level))
        c = 0.5 * (a + b)
        walk(a, c, level + 1)
        walk(c, b, level + 1)

    for a, b in starts:
        walk(a, b, 0)
    return found


@pytest.mark.parametrize("a, b, points, center", [
    (-1.0, 2.0, [], 0.3),
    (-1.0, 2.0, [0.3, 1.5], 0.3),
    (-1.0, 2.0, [0.25, 1.5], 0.3),
    (-np.inf, 0.2, [], 0.19),
    (0.2, np.inf, [], 0.21),
], ids=["window", "break-points", "off-break", "lower-tail", "upper-tail"])
def test_recorded_centres_are_those_quad_bisects_at(monkeypatch, a, b,
                                                    points, center):
    # Each call of the integrand after the first holds the two halves of
    # the interval the port bisects; these are the intervals scipy's
    # QUADPACK bisects, rebuilt from its final partition.
    rules = []

    def recording(nodes):
        def recorded(*args):
            rules.append(args[-1])
            return nodes(*args)
        return recorded

    monkeypatch.setattr(_quadpack, "_nodes21", recording(_quadpack._nodes21))
    monkeypatch.setattr(_quadpack, "_nodes15i",
                        recording(_quadpack._nodes15i))
    kw = _quad_options(a, b, points)
    (bisecting,) = _bisecting(center)
    value, _ = spectral.quad(bisecting, a, b, **kw)
    expected, _, info = quad(lambda x: bisecting(np.array([x]))[0], a, b,
                             full_output=1, **kw)
    assert value.hex() == expected.hex()
    if math.isfinite(a) and math.isfinite(b):
        edges = [a, *sorted(p for p in points if a < p < b), b]
        starts = list(zip(edges[:-1], edges[1:]))
    else:
        starts = [(0.0, 1.0)]     # QUADPACK's t interval of a half line
    first, *halves = rules
    assert first == starts
    bisected = _bisected(info, starts)
    assert max(level for *_, level in bisected) >= 3
    assert all(h1 == h2 for (_, h1), (h2, _) in halves)
    assert sorted((lo, hi) for (lo, _), (_, hi) in halves) \
        == sorted((lo, hi) for lo, hi, _ in bisected)


def test_overlap_with_envelope_samples_outside_the_window_is_zero():
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
    far = Envelope.tabulated([10.0, 11.0], [1.0, 1.0])
    assert state.overlap_with_envelope(far) == 0.0


def test_envelope_overlaps_have_the_bits_of_their_one_envelope_cases():
    # Analytic and tabulated envelopes, one outside the window, in one call.
    state = gaussian_biphoton(DirectionPair.PM, 1.0, 0.02, 0.01)
    envelopes = [Envelope.gaussian(0.02),
                 Envelope.tabulated([10.0, 11.0], [1.0, 1.0]),
                 Envelope.tabulated([0.0, 0.01, 0.03, 0.06, 0.1],
                                    [0.3, 1.0, 0.7 + 0.2j, 0.2, 0.0]),
                 Envelope.lorentzian(0.004)]

    def bits(overlaps):
        return [(z.real.hex(), z.imag.hex()) for z in map(complex, overlaps)]

    together = state._envelope_overlaps(envelopes)
    assert together[1] == 0.0
    assert bits(together) \
        == bits(state.overlap_with_envelope(e) for e in envelopes)


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


# Copies of the grid code as it was before ``SeparableState.on_grid`` went
# through ``amplitude``, ``GridState`` used one interpolator per part and
# the grid projections shared ``_grid_overlaps``; the current code must
# reproduce them bit for bit.
def _reference_on_grid(state, grid):
    fvals = state.scale * np.asarray(state.f(grid.omegabar), dtype=complex)
    hvals = np.asarray(state.h(grid.delta), dtype=complex)
    values = fvals[:, None] * hvals[None, :]
    data = np.zeros((4,) + values.shape, dtype=complex)
    for pair in state.channels:
        data[pair.index] = values
    return data


def _reference_amplitude(state, pair, omegabar, delta):
    axes = (state.grid.omegabar, state.grid.delta)
    interp_re = RegularGridInterpolator(
        axes, state.data[pair.index].real, bounds_error=False, fill_value=0.0)
    interp_im = RegularGridInterpolator(
        axes, state.data[pair.index].imag, bounds_error=False, fill_value=0.0)
    pts = np.broadcast_arrays(np.asarray(omegabar, dtype=float),
                              np.asarray(delta, dtype=float))
    stack = np.stack([p.ravel() for p in pts], axis=-1)
    return (interp_re(stack) + 1j * interp_im(stack)).reshape(pts[0].shape)


def _reference_project(state, envelope, pair):
    u = envelope(state.grid.delta)
    return state.grid.integrate_delta(u[None, :] * state.channel(pair))


def _reference_decompose(state, envelope):
    u = envelope(state.grid.delta)
    unorm = float(state.grid.integrate_delta(np.abs(u)[None, :] ** 2)[0])
    par = np.empty_like(state.data)
    for pair in DirectionPair:
        p = state.grid.integrate_delta(u[None, :] * state.channel(pair))
        if unorm > 0:
            p = p / unorm
        par[pair.index] = p[:, None] * np.conj(u)[None, :]
    return par, state.data - par


_GRID_ENVELOPES = {
    "gaussian": Envelope.gaussian(0.02),
    "lorentzian": Envelope.lorentzian(0.004),
    "tabulated": Envelope.tabulated([0.0, 0.01, 0.03, 0.06, 0.1],
                                    [0.3, 1.0, 0.7 + 0.2j, 0.2, 0.0]),
}


@pytest.mark.parametrize("kind", sorted(_GRID_ENVELOPES))
@pytest.mark.parametrize("channel", [DirectionPair.PP, DirectionPair.PM,
                                     DirectionPair.MM])
def test_grid_paths_equal_reference_bitwise(kind, channel):
    env = _GRID_ENVELOPES[kind]
    coupling = CouplingSpec.isotropic(0.004, env, 1.0)
    grid = FrequencyGrid.for_scattering(coupling, 0.02, 48, 40)
    state = gaussian_biphoton(channel, 1.003, 0.015, diff_center=0.01)
    gridded = state.on_grid(grid)
    assert gridded.data.tobytes() == _reference_on_grid(state, grid).tobytes()
    with warnings.catch_warnings():
        # The Lorentzian tails reach past this grid.
        warnings.simplefilter("ignore", TruncationWarning)
        for pair in DirectionPair:
            assert project_on_envelope(gridded, env, pair).tobytes() \
                == _reference_project(gridded, env, pair).tobytes()
        parts = decompose(gridded, env)
    for part, ref in zip(parts, _reference_decompose(gridded, env)):
        assert part.data.tobytes() == ref.tobytes()
    rng = np.random.default_rng(7)
    ob = np.append(rng.uniform(0.85, 1.15, 500), [1.0, 1.0])
    dd = np.append(rng.uniform(-0.05, 0.3, 500), [-0.0, 0.0])
    assert gridded.amplitude(channel, ob, dd).tobytes() \
        == _reference_amplitude(gridded, channel, ob, dd).tobytes()


# The grid rule (run deeper with --hypothesis-profile=parity -k grid_rule):
# each draw of an input pair, envelope and grid size, for a map's grid or
# a time-domain band (hold), either gets the axes that the constructor's
# own expressions give, bit for bit, or a fault that names the quantity
# the grid cannot hold or resolve.
_RULE_ENVELOPES = (Envelope.gaussian(0.02), Envelope.lorentzian(0.01),
                   Envelope.tabulated(0.004 * np.arange(6),
                                      [1.0, 0.9 - 0.1j, 0.7, 0.4, 0.15, 0.0]))


def _rule_axes(coupling, halfwidth_rates, reach, shape):
    """The sum axis about ``omega0`` and the difference axis out to the
    larger of the envelope reach and ``reach``."""
    env, half = coupling.envelope, halfwidth_rates * coupling.total_rate
    env_reach = float(env.deltas[-1]) if env.kind is EnvelopeKind.TABULATED \
        else 10.0 * env.width
    return (np.linspace(coupling.omega0 - half, coupling.omega0 + half,
                        shape[0]),
            np.linspace(0.0, max(env_reach, reach), shape[1]))


@given(envelope=st.sampled_from(_RULE_ENVELOPES),
       total_rate=st.floats(1e-4, 0.04),
       resonant=st.booleans(),
       sum_center=st.floats(0.5, 1.5),
       sum_width=st.floats(1e-4, 0.1),
       diff_center=st.floats(-2.0, 2.0),
       diff_width=st.floats(1e-4, 0.1),
       shape=st.tuples(st.integers(2, 300), st.integers(2, 300)),
       hold=st.booleans())
# Time-domain bands (hold) get the map's difference-profile rule: verify's
# 0.02 input once ran on 4 differences, and a 5e-4 one on 48.
@example(envelope=_RULE_ENVELOPES[0], total_rate=0.004, resonant=True,
         sum_center=1.0, sum_width=0.02, diff_center=0.0, diff_width=0.02,
         shape=(256, 4), hold=True)
@example(envelope=_RULE_ENVELOPES[0], total_rate=0.004, resonant=True,
         sum_center=1.0, sum_width=0.02, diff_center=0.0, diff_width=0.02,
         shape=(256, 8), hold=True)
@example(envelope=_RULE_ENVELOPES[0], total_rate=0.004, resonant=True,
         sum_center=1.0, sum_width=5e-4, diff_center=0.0, diff_width=5e-4,
         shape=(128, 48), hold=True)
@example(envelope=_RULE_ENVELOPES[0], total_rate=0.004, resonant=True,
         sum_center=1.0, sum_width=5e-4, diff_center=0.0, diff_width=5e-4,
         shape=(128, 300), hold=True)
def test_grid_rule_keeps_the_axes_or_names_the_quantity(
        envelope, total_rate, resonant, sum_center, sum_width, diff_center,
        diff_width, shape, hold):
    coupling = CouplingSpec.isotropic(total_rate, envelope)
    if resonant:   # one width stands for the resonant pair of that width
        pair = sum_width
        sum_center, diff_center, diff_width = 1.0, 0.0, sum_width
    else:
        pair = (sum_center, sum_width, diff_center, diff_width)
    ob, dd = _rule_axes(coupling, 20.0, 10.0 * max(diff_width,
                                                   abs(diff_center)), shape)
    scale = sum_width * math.sqrt(2.0)
    kept = (math.erf((ob[-1] - sum_center) / scale)
            - math.erf((ob[0] - sum_center) / scale)) / 2
    if not (sum_center - 12 * sum_width < ob[-1]
            and sum_center + 12 * sum_width > ob[0]):
        fault = f"at sum_center={sum_center:g} misses the output grid's sum"
    elif abs(diff_center) > 12 * diff_width and dd[1] > diff_width:
        fault = f"exceeds diff_width={diff_width:g}, so its map cannot"
    elif abs(diff_center) <= 12 * diff_width and abs(
            np.trapezoid(np.abs(gaussian_difference_profile(
                diff_width, diff_center)[0](dd)) ** 2, dd) - 1.0) > 1e-3:
        fault = f"gives the difference profile of diff_width={diff_width:g}"
    elif hold and kept < 0.999:
        fault = f"keeps only {kept:.4g} of the sum intensity"
    else:
        grid = FrequencyGrid.for_scattering(coupling, pair, *shape,
                                            hold=hold)
        assert grid.omegabar.tobytes() == ob.tobytes()
        assert grid.delta.tobytes() == dd.tobytes()
        return
    with pytest.raises(ValueError, match=re.escape(fault)):
        FrequencyGrid.for_scattering(coupling, pair, *shape, hold=hold)


def test_grid_rule_names_a_pair_field_it_cannot_read():
    coupling = CouplingSpec.isotropic(0.004, Envelope.gaussian(0.02))
    # Once a bare ZeroDivisionError: a zero width is no input on its axis.
    grid = FrequencyGrid.for_scattering(coupling, (1.0, 0.02, 0.5, 0.0),
                                        64, 32)
    assert grid.delta[-1] == 5.0
    # Once "raise n_delta to at least -499", and an inverted sum window
    # [1.24, 0.76].
    for pair, name, value in [((1.0, 0.02, 0.5, -0.01), "diff_width", -0.01),
                              ((1.0, -0.02, 0.0, 0.02), "sum_width", -0.02)]:
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be nonnegative, got {value!r}")):
            FrequencyGrid.for_scattering(coupling, pair, 64, 32)
    for i, name in enumerate(("sum_center", "sum_width", "diff_center",
                              "diff_width")):
        for bad in (math.inf, -math.inf, math.nan):
            pair = [1.0, 0.02, 0.0, 0.02]
            pair[i] = bad
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be finite, got {bad!r}")):
                FrequencyGrid.for_scattering(coupling, tuple(pair), 64, 32)


@given(envelope=st.sampled_from(_RULE_ENVELOPES),
       total_rate=st.floats(1e-4, 0.03),
       omega0=st.sampled_from((0.7, 1.0, 1.3)),
       shape=st.tuples(st.integers(2, 400), st.integers(2, 400)))
# The emit default is silent for both analytic kinds; the coarse emits of
# the command-line tests warn.
@example(envelope=_RULE_ENVELOPES[0], total_rate=0.004, omega0=1.0,
         shape=(1024, 512))
@example(envelope=_RULE_ENVELOPES[1], total_rate=0.004, omega0=1.0,
         shape=(1024, 512))
@example(envelope=_RULE_ENVELOPES[0], total_rate=0.004, omega0=1.0,
         shape=(32, 16))
@example(envelope=_RULE_ENVELOPES[1], total_rate=0.004, omega0=1.0,
         shape=(3, 5000))
def test_grid_rule_of_the_default_emission_grid(envelope, total_rate, omega0,
                                                shape):
    # The grid warns exactly when the total emission probability read off
    # it misses one by half a unit in its sixth printed decimal or more.
    coupling = CouplingSpec.isotropic(total_rate, envelope, omega0)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        grid = default_emission_grid(coupling, *shape)
    ob, dd = _rule_axes(coupling, 10.0, 0.0, shape)
    assert grid.omegabar.tobytes() == ob.tobytes()
    assert grid.delta.tobytes() == dd.tobytes()
    error = joint_spectrum(coupling, grid).total_probability() - 1.0
    if abs(error) < 5e-7:
        assert record == []
        return
    (warning,) = record
    assert warning.category is TruncationWarning
    message = str(warning.message)
    assert message.startswith(f"the {shape[0]}x{shape[1]} emission grid"
                              " cannot resolve the emitted line and envelope")
    assert float(re.search(r"off by (\S+);", message)[1]) \
        == pytest.approx(error, rel=1e-2)
