"""Spontaneous pair emission spectra and their correlation structure."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from quadwg import (
    CouplingSpec,
    DirectionPair,
    Envelope,
    FrequencyGrid,
    TruncationWarning,
    UndefinedCorrelationError,
    emitted_amplitude,
    excited_amplitude,
    joint_spectrum,
)
from quadwg.emission import (
    EmissionSpectrum,
    _channel_sum,
    _total_probability,
    _window_summaries,
    default_emission_grid,
    pearson_correlation,
)
from quadwg.spectral import _CHUNK_POINTS, PAIRS, _row_chunks

GAMMA = 0.004


def coarse_emission_grid(cpl, n_omegabar, n_delta):
    """``default_emission_grid`` on a grid too coarse for the six printed
    decimals of the total emission probability, which it must say."""
    with pytest.warns(TruncationWarning, match="emission grid cannot resolve"):
        return default_emission_grid(cpl, n_omegabar, n_delta)


def coupling(ratio, kind="gaussian", total=GAMMA):
    """Coupling whose envelope FWHM is ``ratio`` times the linewidth."""
    if kind == "gaussian":
        width = ratio * total / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        env = Envelope.gaussian(width)
    else:
        env = Envelope.lorentzian(ratio * total)
    return CouplingSpec.isotropic(total, env, 1.0)


def test_excited_amplitude_decay_markers():
    cpl = coupling(1.0)
    assert excited_amplitude(cpl, 0.0) == pytest.approx(1.0)
    assert abs(excited_amplitude(cpl, 2.0 / GAMMA)) == pytest.approx(
        math.exp(-1.0), rel=1e-12)
    assert excited_amplitude(cpl, -1.0) == 0.0
    t = np.array([-1.0, 0.0, 1.0 / GAMMA])
    mags = np.abs(excited_amplitude(cpl, t))
    np.testing.assert_allclose(mags, [0.0, 1.0, math.exp(-0.5)], atol=1e-12)


def test_emitted_amplitude_peak_value():
    beta = 0.02
    env = Envelope.gaussian(beta)
    cpl = CouplingSpec.isotropic(GAMMA, env, 1.0)
    value = emitted_amplitude(cpl, DirectionPair.PM, 1.0, 0.0)
    rate = cpl.rate(DirectionPair.PM)
    target = (1.0 / (2.0 * math.pi)) * rate \
        * math.sqrt(2.0 / (math.pi * beta * beta)) / (GAMMA ** 2 / 4.0)
    assert abs(value) ** 2 == pytest.approx(target, rel=1e-12)


def test_emitted_amplitude_keeps_its_bits():
    # The amplitude as written before it shared the resonance kernel; the
    # emission data files depend on every bit of it.
    cpl = CouplingSpec(1.7, {DirectionPair.PP: 0.001, DirectionPair.PM: 0.0005,
                             DirectionPair.MM: 0.002}, Envelope.lorentzian(0.02))
    detune = cpl.total_rate * np.geomspace(1e-9, 1e3, 60)
    ob = np.concatenate([cpl.omega0 - detune, [cpl.omega0],
                         cpl.omega0 + detune])[:, None]
    dd = np.linspace(0.0, 0.1, 7)[None, :]
    line = 1.0 / (0.5 * cpl.total_rate - 1j * (ob - cpl.omega0))
    for pair in DirectionPair:
        ref = 1j * math.sqrt(cpl.rate(pair) / (2.0 * math.pi)) * line \
            * np.conj(cpl.envelope(dd))
        value = emitted_amplitude(cpl, pair, ob, dd)
        assert np.array_equal(value, ref)
        assert value.tobytes() == ref.tobytes()


def test_emitted_amplitude_linewidth():
    cpl = coupling(1.0)
    peak = abs(emitted_amplitude(cpl, DirectionPair.PP, 1.0, 0.0)) ** 2
    for sign in (-1.0, 1.0):
        half = abs(emitted_amplitude(cpl, DirectionPair.PP,
                                     1.0 + sign * GAMMA / 2.0, 0.0)) ** 2
        assert half == pytest.approx(peak / 2.0, rel=1e-12)


def test_joint_spectrum_total_probability():
    for kind in ("gaussian", "lorentzian"):
        spec = joint_spectrum(coupling(1.0, kind))
        assert spec.total_probability() == pytest.approx(1.0, abs=1e-4)


def test_default_grid_window():
    cpl = coupling(1.0)
    spec = joint_spectrum(cpl)
    assert spec.grid.omegabar[0] == pytest.approx(1.0 - 10 * GAMMA)
    assert spec.grid.omegabar[-1] == pytest.approx(1.0 + 10 * GAMMA)
    assert spec.grid.delta[-1] == pytest.approx(10 * cpl.envelope.width)


def test_density_is_rank_one():
    spec = joint_spectrum(coupling(2.0))
    singular = np.linalg.svd(spec.channel(DirectionPair.PP),
                             compute_uv=False)
    assert singular[1] / singular[0] < 1e-12


def test_channel_densities_scale_with_rates():
    env = Envelope.gaussian(0.002)
    cpl = CouplingSpec(1.0, {DirectionPair.PP: 0.002, DirectionPair.MM: 0.001,
                             DirectionPair.PM: 0.0005}, env)
    spec = joint_spectrum(cpl)
    dpp = spec.density(DirectionPair.PP)
    dmm = spec.density(DirectionPair.MM)
    dpm = spec.density(DirectionPair.PM)
    dmp = spec.density(DirectionPair.MP)
    np.testing.assert_array_equal(dpm, dmp)
    mask = dpp > dpp.max() * 1e-12
    np.testing.assert_allclose(dmm[mask] / dpp[mask], 0.5, rtol=1e-10)
    np.testing.assert_allclose(dpm[mask] / dpp[mask], 0.25, rtol=1e-10)


def test_lorentzian_envelope_correlation_closed_form():
    # On the default self-scaled window the correlation reduces to
    # (1 - x^2) / (1 + x^2) in the width ratio x.
    for ratio in (0.2, 1.0, 5.0):
        corr = joint_spectrum(coupling(ratio, "lorentzian")) \
            .spectrum_correlation()
        target = (1.0 - ratio ** 2) / (1.0 + ratio ** 2)
        assert corr == pytest.approx(target, abs=1e-6)


def test_gaussian_envelope_correlation_signs():
    narrow = joint_spectrum(coupling(0.2)).spectrum_correlation()
    wide = joint_spectrum(coupling(5.0)).spectrum_correlation()
    assert narrow > 0.9
    assert wide < -0.1


def test_correlation_crosses_zero_once():
    for kind in ("gaussian", "lorentzian"):
        ratios = np.geomspace(0.2, 5.0, 8)
        corr = np.array([joint_spectrum(coupling(r, kind))
                        .spectrum_correlation() for r in ratios])
        assert np.all(np.diff(corr) < 0.0)
        signs = np.sign(corr)
        assert np.count_nonzero(np.diff(signs)) == 1


def test_isotropic_density_has_zero_correlation():
    grid = FrequencyGrid.regular(1.0, 0.05, 0.05, 256, 129)
    # Equal spreads along the sum and difference axes: an isotropic blob
    # in (omega, omega') coordinates, so no correlation either way.
    density = np.exp(-((grid.omegabar[:, None] - 1.0) ** 2
                       + grid.delta[None, :] ** 2) / (2 * 0.01 ** 2))
    assert pearson_correlation(grid, density) == pytest.approx(0.0, abs=1e-8)


def test_correlation_error_paths():
    grid = FrequencyGrid.regular(0.0, 1.0, 1.0, 33, 17)
    with pytest.raises(UndefinedCorrelationError):
        pearson_correlation(grid, np.zeros(grid.shape))
    point = np.zeros(grid.shape)
    # All mass at the exactly representable node (0, 0): zero spread.
    point[16, 0] = 1.0
    with pytest.raises(UndefinedCorrelationError):
        pearson_correlation(grid, point)


def test_total_probability_of_an_empty_window_is_undefined():
    # The envelope is zero on the whole difference axis [0, 0.005], so the
    # window holds no weight and its kept envelope mass is zero too; the
    # two summaries share one walk, whose empty window raises first.
    env = Envelope.tabulated([0, 0.01, 0.02, 0.03], [0, 0, 1, 0])
    grid = FrequencyGrid.regular(1.0, 0.04, 0.005, 64, 16)
    spec = joint_spectrum(CouplingSpec.isotropic(0.004, env, 1.0), grid)
    with pytest.raises(UndefinedCorrelationError, match="no weight"):
        spec.total_probability()
    with pytest.raises(UndefinedCorrelationError, match="no weight"):
        spec.spectrum_correlation()


def whole_array_spectrum(cpl, grid):
    """The whole-array expressions the emission spectrum was first built
    from: the stacked ``emitted_amplitude`` fill, the channel sum of
    ``np.abs(data) ** 2``, and its ``grid.integrate`` window mass and
    frequency correlation.  Returns ``(data, density, mass, correlation)``;
    every ``EmissionSpectrum`` method must keep their bits.
    """
    ob, dd = grid.omegabar, grid.delta
    data = np.empty((4, ob.size, dd.size), dtype=complex)
    for pair in PAIRS:
        data[pair.index] = emitted_amplitude(cpl, pair, ob[:, None],
                                             dd[None, :])
    density = np.sum(np.abs(data) ** 2, axis=0)
    mass = float(grid.integrate(density))
    mean_ob = float(grid.integrate(density * ob[:, None])) / mass
    var_ob = float(grid.integrate(density * (ob[:, None] - mean_ob) ** 2)) \
        / mass
    var_dd = float(grid.integrate(density * dd[None, :] ** 2)) / mass
    return data, density, mass, (var_ob - var_dd) / (var_ob + var_dd)


@pytest.mark.parametrize("step", [1, 5, 16, 66, 67, 200])
def test_window_summaries_by_row_chunks_have_the_whole_grid_bits(step):
    # A tabulated envelope with a phase, and anisotropic rates with no --
    # weight; 67 sum rows in chunks of ``step``.
    env = Envelope.tabulated(0.002 * np.arange(8),
                             [1.0, 0.95 - 0.1j, 0.8 - 0.3j, 0.55 - 0.4j,
                              0.3 - 0.35j, 0.12 - 0.2j, 0.03 - 0.06j, 0.0])
    cpl = CouplingSpec(1.0, {DirectionPair.PP: 0.003,
                             DirectionPair.PM: 0.0005,
                             DirectionPair.MP: 0.0005}, env)
    grid = coarse_emission_grid(cpl, 67, 40)
    data, _, mass, corr = whole_array_spectrum(cpl, grid)
    chunks = [slice(start, start + step) for start in range(0, 67, step)]
    window, r = _window_summaries(grid, lambda rows: _channel_sum(
        lambda pair: data[pair.index, rows], (0, 1, 2, 3)), chunks)
    assert (window.hex(), r.hex()) == (mass.hex(), corr.hex())
    # The library's summaries are its case of ``_row_chunks``, and
    # ``pearson_correlation`` its one-chunk case.
    spec = joint_spectrum(cpl, grid)
    assert spec.spectrum_correlation().hex() == corr.hex()
    assert pearson_correlation(grid, spec.total_density()).hex() == corr.hex()
    assert spec.total_probability().hex() \
        == _total_probability(cpl, grid, mass).hex()


def test_emission_state_norm_and_marginals():
    spec = joint_spectrum(coupling(1.0))
    state = spec.state()
    # The raw grid norm carries the window fraction of the Lorentzian line;
    # ten half widths keep (2/pi) atan(20) of it.
    window_fraction = (2.0 / math.pi) * math.atan(20.0)
    assert state.norm_squared() == pytest.approx(window_fraction, abs=5e-4)
    line = spec.sum_marginal()
    assert line.shape == spec.grid.omegabar.shape
    peak_at = spec.grid.omegabar[np.argmax(line)]
    assert peak_at == pytest.approx(1.0, abs=spec.grid.d_omegabar)
    profile = spec.difference_marginal()
    assert profile.shape == spec.grid.delta.shape
    assert np.argmax(profile) == 0


_parts = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64))),
    st.floats(-1e3, 1e3),
    st.sampled_from((0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e154, -1.4e154,
                     1e200, 1.7976931348623157e308, math.inf, -math.inf,
                     math.nan)))
_blocks = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: arrays(complex, (4,) + shape,
                         elements=st.builds(complex, _parts, _parts)))


_NAN_1 = float(np.uint64(0x7FF8000000000001).view(np.float64))  # payload 1


def _canonical_first(choices):
    """For each channel, the first channel it copies: channel i copies the
    channel that ``choices[i]`` (at most i) copies."""
    first = []
    for i, j in enumerate(choices):
        first.append(first[j] if j < i else i)
    return tuple(first)


# Which earlier channel each channel repeats: all distinct, all alike
# (isotropic), three alike (mirror), equal cross channels, or any other.
_firsts = st.one_of(
    st.sampled_from(((0, 1, 2, 3), (0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 1, 3))),
    st.tuples(*[st.integers(0, i) for i in range(len(PAIRS))])
    .map(_canonical_first))


@given(_blocks, _firsts)
# Squares added in another order round differently; squares that
# overflow, signed zeros, subnormals, and nan beside inf.
@example(np.array([1e8, 1.0, 1.0, 0.0]).reshape(4, 1, 1), (0, 1, 2, 3))
@example(np.array([1e200, -0.0, 1.0, 1.0 + 1e154j]).reshape(4, 1, 1),
         (0, 1, 2, 3))
@example(np.array([[-0.0, complex(math.inf, math.nan)],
                   [complex(5e-324, -0.0), math.nan],
                   [complex(-0.0, -0.0), -math.inf],
                   [1e-170, complex(math.nan, 1.0)]]).reshape(4, 1, 2),
         (0, 1, 2, 3))
# Two channels nan at one point, whose squares are nans with different
# payloads: an in-place add keeps the second's, the stacked sum the
# first's.
@example(np.array([0.0, 0.0, complex(0.0, _NAN_1),
                   complex(math.nan, 0.0)]).reshape(4, 1, 1), (0, 1, 2, 3))
@example(np.array([complex(0.0, _NAN_1), complex(math.nan, 0.0),
                   1e200, 1.0]).reshape(4, 1, 1), (0, 1, 1, 0))
def test_channel_sum_has_the_bits_of_the_stacked_sum(data, first):
    # Four channels as drawn, each squared.
    with np.errstate(all="ignore"):
        expected = np.sum(np.abs(data) ** 2, axis=0)
        total = _channel_sum(lambda pair: data[pair.index], (0, 1, 2, 3))
    assert total.shape == expected.shape
    assert total.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    # The same channels repeated as ``first`` says: each distinct block is
    # asked for and squared once, in channel order.
    copies = data[list(first)]
    squared = []

    def block(pair):
        squared.append(first[pair.index])
        return copies[pair.index]

    with np.errstate(all="ignore"):
        expected = np.sum(np.abs(copies) ** 2, axis=0)
        total = _channel_sum(block, first)
    assert squared == sorted(set(first))
    assert total.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


_WIDE = _CHUNK_POINTS + 5   # more differences than a chunk holds
_TABULATED = Envelope.tabulated(
    0.004 * np.arange(8), [1.0, 0.95 - 0.1j, 0.8 - 0.3j, 0.55 - 0.4j,
                           0.3 - 0.35j, 0.12 - 0.2j, 0.03 - 0.06j, 0.0])


@given(envelope=st.sampled_from((Envelope.gaussian(0.02),
                                 Envelope.lorentzian(0.01), _TABULATED)),
       rates=st.one_of(
           st.sampled_from(("isotropic", "mirror")),
           # ++, the two equal cross rates and --.
           st.tuples(*[st.sampled_from((0.0, 0.0005, 0.001, 0.0025))] * 3)
           .filter(any).map(lambda r: (r[0], r[1], r[1], r[2]))),
       omega0=st.sampled_from((1.0, 0.7, 1.3)),
       offset=st.sampled_from((0.0, 3.0, -7.5)),
       shape=st.one_of(st.tuples(st.integers(2, 70), st.integers(2, 80)),
                       st.tuples(st.integers(2, 3), st.just(_WIDE))))
# Rows wider than a chunk; 67 rows of 64 differences, 32 rows a chunk,
# so the last chunk is partial; two sum rows of two differences.
@example(envelope=_TABULATED, rates="mirror", omega0=1.0, offset=0.0,
         shape=(3, _WIDE))
@example(envelope=Envelope.gaussian(0.02), rates=(0.001, 0.0, 0.0, 0.0025),
         omega0=1.3, offset=3.0, shape=(67, 64))
@example(envelope=Envelope.lorentzian(0.01), rates="isotropic", omega0=0.7,
         offset=-7.5, shape=(2, 2))
def test_spectrum_methods_have_the_bits_of_the_whole_arrays(
        envelope, rates, omega0, offset, shape):
    if rates == "isotropic":
        cpl = CouplingSpec.isotropic(GAMMA, envelope, omega0)
    elif rates == "mirror":
        cpl = CouplingSpec.mirror(GAMMA, envelope, omega0)
    else:
        cpl = CouplingSpec(omega0, dict(zip(PAIRS, rates)), envelope)
    g = cpl.total_rate
    grid = FrequencyGrid.regular(omega0 + offset * g, 10.0 * g,
                                 FrequencyGrid.for_scattering(
                                     cpl, 0.0, 2, 2).delta[-1], *shape)
    spec = joint_spectrum(cpl, grid)
    data, density, mass, corr = whole_array_spectrum(cpl, grid)
    assert _same_bits(spec.data, data)
    assert _same_bits(spec.state().data, data)
    for pair in PAIRS:
        assert _same_bits(spec.channel(pair), data[pair.index])
        assert _same_bits(spec.block(pair), data[pair.index])
        assert _same_bits(spec.density(pair), np.abs(data[pair.index]) ** 2)
        for rows in _row_chunks(grid) + [slice(1, None, 2)]:
            assert _same_bits(spec.block(pair, rows), data[pair.index, rows])
    assert _same_bits(spec.total_density(), density)
    assert _same_bits(spec.total_density(slice(1, None)), density[1:])
    assert _same_bits(spec.sum_marginal(), grid.integrate_delta(density))
    assert _same_bits(spec.difference_marginal(),
                      np.trapezoid(density, grid.omegabar, axis=0))
    assert spec.total_probability().hex() \
        == _total_probability(cpl, grid, mass).hex()
    assert spec.spectrum_correlation().hex() == corr.hex()
    assert pearson_correlation(grid, density).hex() == corr.hex()


# distinct: channels whose factors differ from every earlier channel's.
@pytest.mark.parametrize("rates, distinct", [
    ("isotropic", 1), ("mirror", 2), ((0.001, 0.0005, 0.0005, 0.0025), 3),
    ((0.0, 0.0005, 0.0005, 0.0025), 3), ((0.001, 0.0, 0.0, 0.001), 2)])
def test_total_density_squares_each_distinct_channel_once(monkeypatch, rates,
                                                          distinct):
    env = Envelope.gaussian(0.02)
    if rates == "isotropic":
        cpl = CouplingSpec.isotropic(GAMMA, env)
    elif rates == "mirror":
        cpl = CouplingSpec.mirror(GAMMA, env)
    else:
        cpl = CouplingSpec(1.0, dict(zip(PAIRS, rates)), env)
    spec = joint_spectrum(cpl, coarse_emission_grid(cpl, 67, 64))
    data = spec.data
    calls = []
    block = EmissionSpectrum.block

    def counted(self, pair, rows=slice(None)):
        calls.append(pair)
        return block(self, pair, rows)

    monkeypatch.setattr(EmissionSpectrum, "block", counted)
    for rows in _row_chunks(spec.grid) + [slice(None)]:
        calls.clear()
        density = spec.total_density(rows)
        assert len(calls) == len(set(calls)) == distinct
        assert _same_bits(density, np.sum(np.abs(data[:, rows]) ** 2, axis=0))


def test_spectrum_and_summaries_hold_no_whole_block():
    # At the emit defaults one channel block is 8.4 MB and the four-channel
    # array 33.6 MB; the spectrum keeps its factors and sums the densities
    # one chunk of rows at a time.
    cpl = coupling(1.0)
    grid = default_emission_grid(cpl, 1024, 512)
    tracemalloc.start()
    try:
        spec = joint_spectrum(cpl, grid)
        spec.total_probability()
        spec.spectrum_correlation()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("center", [1.03, 1.2])
def test_total_probability_on_a_window_off_resonance(center):
    # The sum window [center - 0.04, center + 0.04] holds the resonance
    # off its middle (1.03) or not at all (1.2); the line's mass inside
    # it is taken between its two edges.
    cpl = CouplingSpec.isotropic(GAMMA, Envelope.gaussian(0.02))
    grid = FrequencyGrid.regular(center, 0.04, 0.2, 256, 64)
    assert joint_spectrum(cpl, grid).total_probability() \
        == pytest.approx(1.0, abs=1e-4)
