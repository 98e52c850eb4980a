"""Two-photon scattering amplitudes, probabilities, and bounds."""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfcx

from conftest import matched_state
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
    decompose,
    gaussian_biphoton,
    gaussian_closed_form,
    probability_bounds,
    project_on_envelope,
    reflection_sweep,
    scatter,
    scattering_amplitude,
    transfer_coefficient,
)
from quadwg import errors, scattering, spectral
from quadwg.spectral import (PAIRS, EnvelopeKind, _abs2, _quad_options,
                             gaussian_difference_profile,
                             gaussian_sum_spectrum, resonance_denominator)

GAMMA = 0.004


def isotropic(total=GAMMA, width=0.02, omega0=1.0, kind="gaussian"):
    env = Envelope.gaussian(width) if kind == "gaussian" \
        else Envelope.lorentzian(width)
    return CouplingSpec.isotropic(total, env, omega0)


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
    out_g = gridded.output_on(grid)
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
    for _ in range(2):
        quad_calls.clear()
        channel_probabilities(scatter(cpl, state))
        # Two for the complex envelope overlap, one for the line integral
        # J, taken afresh by each scatter.
        assert sorted(quad_calls) \
            == ["quadwg.scattering"] + ["quadwg.spectral"] * 2


def bits(values):
    return [float(v).hex() for v in values]


def scattered_bits(coupling, state, grid):
    result = scatter(coupling, state)
    probs = channel_probabilities(result).values
    return bits(probs[p] for p in PAIRS), result.output_on(grid).data.tobytes()


def test_kept_integrals_follow_the_coupling():
    def fresh():
        return gaussian_biphoton(DirectionPair.PM, 1.0005, 0.003, 0.004)

    deltas = [0.0, 0.01, 0.03, 0.06]
    couplings = [
        isotropic(),
        isotropic(omega0=1.001),
        isotropic(total=0.006),
        isotropic(width=0.03),
        isotropic(kind="lorentzian"),
        CouplingSpec.isotropic(
            GAMMA, Envelope.tabulated(deltas, [1.0, 0.8, 0.3, 0.0])),
        CouplingSpec.isotropic(
            GAMMA, Envelope.tabulated(deltas, [0.2, 1.0, 0.5j, 0.0])),
        isotropic(),
    ]
    # 40 differences resolve the input's difference profile (width 0.003);
    # at 8 its trapezoid mass reads 1.111 and every output_on warns.
    grid = FrequencyGrid.regular(1.0, 0.05, 0.1, 16, 40)
    shared = fresh()
    seen = set()
    for coupling in couplings:
        # The Lorentzian tails reach past this grid.
        with pytest.warns(TruncationWarning) \
                if coupling.envelope.kind is EnvelopeKind.LORENTZIAN \
                else contextlib.nullcontext():
            expect = scattered_bits(coupling, fresh(), grid)
            assert scattered_bits(coupling, shared, grid) == expect
        seen.add(tuple(expect[0]))
    assert len(seen) == len(couplings) - 1  # every variant moves the result


def test_reflection_sweep_quadrature_count(quad_calls):
    reflection_sweep(0.002, (0.5, 1.0, 2.0, 1.0), (0.0004, 0.002, 0.0004))
    # Two factor masses and a complex overlap per distinct ratio in
    # spectral, J per distinct rate in scattering.
    assert sorted(quad_calls) \
        == ["quadwg.scattering"] * 2 + ["quadwg.spectral"] * (2 + 2 * 3)


@settings(max_examples=20)
@given(alpha=st.floats(5e-4, 0.02),
       ratios=st.lists(st.sampled_from((0.35, 1.0, 2.83))
                       | st.floats(0.2, 5.0), min_size=1, max_size=4),
       rates=st.lists(st.sampled_from((4e-4, 0.01)) | st.floats(1e-4, 0.02),
                      min_size=1, max_size=3),
       omega0=st.floats(0.5, 2.0))
@example(alpha=0.002, ratios=[0.35, 1.0, 2.83, 1.0], rates=[4e-4, 0.01, 4e-4],
         omega0=1.0)
def test_reflection_sweep_equals_fresh_points_bitwise(alpha, ratios, rates,
                                                      omega0):
    sweep = reflection_sweep(alpha, ratios, rates, omega0)
    for i, g in enumerate(rates):
        for j, ratio in enumerate(ratios):
            coupling = CouplingSpec.isotropic(
                g, Envelope.gaussian(ratio * alpha), omega0)
            state = gaussian_biphoton(DirectionPair.PP, omega0, alpha)
            point = channel_probabilities(scatter(coupling, state))
            assert sweep.reflection[i, j].hex() == point.reflection.hex()


def test_direct_scatter_output_of_grid_state_equals_scatter():
    cpl = isotropic()
    grid = FrequencyGrid.for_scattering(cpl, 0.02, 16, 8)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02).on_grid(grid)
    direct = scattering.ScatterOutput(cpl, state)
    via = scatter(cpl, state)
    assert direct.output_on(grid).data.tobytes() == via.output_on(grid).data.tobytes()
    # Six differences 0.04 apart give the profile 1.014 of its mass.
    other = FrequencyGrid.for_scattering(cpl, 0.02, 12, 9)
    assert direct.output_on(other).data.tobytes() \
        == via.output_on(other).data.tobytes()


def test_scatter_rejects_zero_norm_input():
    f, window = gaussian_sum_spectrum(1.0, 0.02)
    h, hwindow = gaussian_difference_profile(0.02)
    empty = SeparableState(DirectionPair.PP, lambda x: 0.0 * x, h,
                           window, hwindow, scale=1.0)
    with pytest.raises(InvalidStateError):
        scatter(isotropic(), empty)
    # Built directly, the output checks the norm when asked for channels.
    direct = scattering.ScatterOutput(isotropic(), empty)
    with pytest.raises(InvalidStateError, match="zero norm"):
        channel_probabilities(direct)


@pytest.mark.parametrize("call", [
    lambda state: scatter(isotropic(), state),
    lambda state: project_on_envelope(state, Envelope.gaussian(0.02),
                                      DirectionPair.PP),
    lambda state: decompose(state, Envelope.gaussian(0.02)),
], ids=["scatter", "project_on_envelope", "decompose"])
def test_a_non_state_is_a_type_error(call):
    with pytest.raises(TypeError, match="SeparableState or GridState"):
        call(np.zeros((4, 3, 3), dtype=complex))


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


def test_channel_probabilities_reject_a_rate_whose_norms_overflow():
    # Past a total rate of about 1e154, J underflows to zero while
    # rate * w * w overflows: the probabilities were nan.
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 2e-3)
    envelope = Envelope.gaussian(2e-3)
    with warnings.catch_warnings():
        # The flat-band warning of such rates, and the overflow warnings
        # of the far quadrature nodes.
        warnings.simplefilter("ignore")
        probs = channel_probabilities(
            scatter(CouplingSpec.isotropic(1e154, envelope, 1.0), state))
        assert probs.total == pytest.approx(1.0)
        result = scatter(CouplingSpec.isotropic(1e155, envelope, 1.0), state)
        with pytest.raises(errors._UnresolvableRateError,
                           match=r"total rate 1e\+155 is too large"):
            channel_probabilities(result)


def test_output_records_phase_convention():
    assert "phase" in scattering.PHASE_NOTE
    result = scatter(isotropic(), gaussian_biphoton(DirectionPair.PP, 1.0, 0.02))
    assert result.phase_note == scattering.PHASE_NOTE


def _reference_output(coupling, state, grid):
    """Outgoing table as the scattering code wrote it before one
    re-emission step served both input kinds: a per-channel loop for a
    separable input, the broadcast form on its own grid for a grid input."""
    if isinstance(state, SeparableState):
        data = state.on_grid(grid).data.copy()
        u = coupling.envelope(grid.delta)
        kappa = state.overlap_with_envelope(coupling.envelope)
        w = sum(math.sqrt(coupling.rate(c)) for c in state.channels)
        drive = kappa * w * np.asarray(state.f(grid.omegabar), dtype=complex) \
            / resonance_denominator(coupling.total_rate, coupling.omega0,
                                    grid.omegabar)
        for pair in PAIRS:
            data[pair.index] -= math.sqrt(coupling.rate(pair)) \
                * drive[:, None] * np.conj(u)[None, :]
        return data
    g = state.grid
    u = coupling.envelope(g.delta)
    roots = coupling.sqrt_rates()
    q = g.integrate_delta(u[None, None, :] * state.data)
    drive = (roots[:, None] * q).sum(axis=0) \
        / resonance_denominator(coupling.total_rate, coupling.omega0,
                                g.omegabar)
    return state.data - roots[:, None, None] \
        * drive[None, :, None] * np.conj(u)[None, None, :]


@pytest.mark.parametrize("rates", [
    {"++": 0.001, "+-": 0.0015, "-+": 0.0015, "--": 0.0005},
    {"++": 0.004},
], ids=["anisotropic", "mirror"])
@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
def test_scatter_output_equals_reference_bitwise(rates, kind):
    env = Envelope.gaussian(0.02) if kind == "gaussian" \
        else Envelope.lorentzian(0.004)
    cpl = CouplingSpec(1.0, rates, env)
    grid = FrequencyGrid.for_scattering(cpl, 0.02, 40, 24)
    cross = gaussian_biphoton(DirectionPair.PM, 1.002, 0.015,
                              diff_center=0.01)
    # The Lorentzian tails reach past this grid.
    with pytest.warns(TruncationWarning) if kind == "lorentzian" \
            else contextlib.nullcontext():
        assert scatter(cpl, cross).output_on(grid).data.tobytes() \
            == _reference_output(cpl, cross, grid).tobytes()
        for state in (cross, gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)):
            gridded = state.on_grid(grid)
            result = scatter(cpl, gridded)
            assert result.output_on(grid).data.tobytes() \
                == _reference_output(cpl, gridded, grid).tobytes()
    assert not hasattr(result, "output")


@pytest.mark.parametrize("call", [
    lambda cpl, state: project_on_envelope(state, cpl.envelope,
                                           DirectionPair.PP),
    lambda cpl, state: decompose(state, cpl.envelope),
    lambda cpl, state: scatter(cpl, state),
    lambda cpl, state: scattering.ScatterOutput(cpl, state),
], ids=["project_on_envelope", "decompose", "scatter", "ScatterOutput"])
def test_grid_truncation_warning_names_the_calling_line(call):
    cpl = isotropic(kind="lorentzian", width=0.05)
    grid = FrequencyGrid.regular(1.0, 0.08, 0.1, 16, 8)
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02).on_grid(grid)
    with pytest.warns(TruncationWarning) as record:
        call(cpl, state)
    assert [w.filename for w in record] == [__file__]


def test_separable_output_warns_when_its_grid_truncates_the_envelope():
    # A Lorentzian envelope on its default grid keeps (2/pi) atan(20) of its
    # mass; the separable output must say so exactly as a grid input does.
    coupling = isotropic(kind="lorentzian")
    state = gaussian_biphoton(DirectionPair.PP, 1.0, 0.02)
    grid = FrequencyGrid.for_scattering(coupling, 0.02, 32, 16)
    result = scatter(coupling, state)
    with pytest.warns(TruncationWarning) as record:
        result.output_on(grid)
    assert [w.filename for w in record] == [__file__]
    assert "96.8" in str(record[0].message)
    with pytest.warns(TruncationWarning) as gridded:
        scatter(coupling, state.on_grid(grid))
    assert [str(w.message) for w in record] \
        == [str(w.message) for w in gridded]


def test_separable_output_warns_when_its_grid_misses_the_sum_window():
    # The library's case of the scatter command's exit 1: a detuned input
    # whose sum window, 1.5 +- 0.24, misses a default grid's 0.92 to 1.08.
    coupling = isotropic(0.004)
    result = scatter(coupling, gaussian_biphoton(DirectionPair.PP, 1.5, 0.02))
    grid = FrequencyGrid.for_scattering(coupling, 0.02, 32, 16)
    with pytest.warns(TruncationWarning) as record:
        out = result.output_on(grid)
    assert [str(w.message) for w in record] == [
        "the input's sum window [1.26, 1.74] at sum_center=1.5 misses the"
        " output grid's sum axis [0.92, 1.08], so its map would be empty;"
        " bring sum_center nearer omega0=1"]
    assert record[0].filename == __file__
    assert np.max(np.abs(out.data)) < 1e-40
    # A window that reaches into the axis is mapped without a word.
    near = scatter(coupling, gaussian_biphoton(DirectionPair.PP, 1.3, 0.02))
    assert np.max(np.abs(near.output_on(grid).data)) > 0


def test_separable_output_warns_on_an_unresolved_difference_profile():
    # A centred difference profile far narrower than the spacing: the map
    # put all of it on delta = 0, 62.8 times its own mass, without a word.
    coupling = isotropic(0.004)
    f, f_window = spectral.gaussian_sum_spectrum(1.0, 0.02)
    grid = FrequencyGrid.for_scattering(coupling, 0.02, 32, 128)
    for width, center, mass in [(1e-5, 0.0, "62.83"), (5e-4, 0.0, "1.274"),
                                (1e-4, 0.05, "0.002706")]:
        h, h_window = gaussian_difference_profile(width, center)
        result = scatter(coupling, SeparableState(DirectionPair.PP, f, h,
                                                  f_window, h_window))
        with pytest.warns(TruncationWarning) as record:
            result.output_on(grid)
        assert [str(w.message) for w in record] == [
            "the output grid's difference spacing 0.0015748 gives the"
            f" input's difference profile a trapezoid mass of {mass} times"
            " its own, so its map cannot resolve it; raise n_delta or widen"
            " the profile"]
        assert record[0].filename == __file__
    # The scatter command's default profile, 0.02 wide, is mapped silently.
    h, h_window = gaussian_difference_profile(0.02)
    scatter(coupling, SeparableState(DirectionPair.PP, f, h, f_window,
                                     h_window)).output_on(grid)


def _one_node_quad(fn, lo, hi, points):
    """``quad`` evaluating ``fn`` afresh at every node it visits."""
    return quad(fn, lo, hi, **_quad_options(lo, hi, points))[0]


def _one_node_integrals(state, envelope, total_rate, omega0):
    """The integrals a scatter of ``state`` takes, each integrated one node
    at a time as the scalar integrands stood before array evaluation:
    the factor masses, the scaled envelope overlap and the resonance
    weight J."""
    masses = tuple(
        _one_node_quad(lambda x, fn=fn: abs(fn(x)) ** 2, lo, hi,
                       [0.5 * (lo + hi)])
        for fn, (lo, hi) in ((state.f, state.f_window),
                             (state.h, state.h_window)))
    lo, hi = state.h_window
    points = [0.5 * (lo + hi)]
    overlap = state.scale * (
        _one_node_quad(lambda x: (envelope(x) * state.h(x)).real, lo, hi,
                       points)
        + 1j * _one_node_quad(lambda x: (envelope(x) * state.h(x)).imag,
                              lo, hi, points))

    def weight(ob):
        d = resonance_denominator(total_rate, omega0, ob)
        return abs(state.f(ob)) ** 2 / (d.real ** 2 + d.imag ** 2)

    lo, hi = state.f_window
    resonance = _one_node_quad(weight, lo, hi,
                               sorted({omega0, 0.5 * (lo + hi)}))
    return masses, overlap, resonance


def _point_integrals(state, envelope, total_rate, omega0):
    """The integrals a scatter of ``state`` takes, through the point
    functions: the kept factor masses, the scaled envelope overlap and
    the resonance weight J."""
    (resonance,) = scattering._resonance_weights(state, [total_rate], omega0)
    return (state._factor_masses(), state.overlap_with_envelope(envelope),
            resonance)


def _integral_bits(integrals):
    masses, overlap, resonance = integrals
    return [float(x).hex() for x in (*masses, overlap.real, overlap.imag,
                                     resonance)]


@settings(max_examples=25)
@given(sum_center=st.floats(0.98, 1.02), sum_width=st.floats(1e-3, 0.03),
       diff_width=st.floats(2e-3, 0.04), diff_center=st.floats(0.0, 0.03),
       total_rate=st.floats(1e-5, 1e-2), omega0=st.floats(0.99, 1.01),
       width=st.floats(2e-3, 0.05), lorentzian=st.booleans())
def test_kept_integrals_equal_their_one_node_forms_bitwise(
        sum_center, sum_width, diff_width, diff_center, total_rate, omega0,
        width, lorentzian):
    # ``_integrals`` evaluates the Gaussian factors on arrays; every
    # integral keeps the bits of its one-node-at-a-time form.  Rates down
    # to 1/3000 of the sum width make J bisect deeply.
    envelope = (Envelope.lorentzian if lorentzian else Envelope.gaussian)(width)
    f, f_window = gaussian_sum_spectrum(sum_center, sum_width)
    h, h_window = gaussian_difference_profile(diff_width, diff_center)
    state = SeparableState(DirectionPair.PP, f, h, f_window, h_window)
    assert _integral_bits(_point_integrals(state, envelope, total_rate, omega0)) \
        == _integral_bits(_one_node_integrals(state, envelope, total_rate,
                                              omega0))


def _array_integrals(state, envelope, total_rate, omega0):
    """The integrals a scatter of ``state`` takes, each its own
    ``spectral.quad`` of an integrand that evaluates the factors on node
    arrays: the factor masses, the scaled envelope overlap and the
    resonance weight J."""
    def integral(fn, lo, hi, points):
        return spectral.quad(fn, lo, hi, **_quad_options(lo, hi, points))[0]

    masses = tuple(
        integral(lambda x, fn=fn: _abs2(fn(x)), lo, hi, [0.5 * (lo + hi)])
        for fn, (lo, hi) in ((state.f, state.f_window),
                             (state.h, state.h_window)))
    lo, hi = state.h_window
    points = [0.5 * (lo + hi)]
    overlap = state.scale * complex(
        integral(lambda x: (envelope(x) * state.h(x)).real, lo, hi, points),
        integral(lambda x: (envelope(x) * state.h(x)).imag, lo, hi, points))

    def weight(ob):
        d = resonance_denominator(total_rate, omega0, ob)
        return _abs2(state.f(ob)) / (np.float_power(d.real, 2.0)
                                     + np.float_power(d.imag, 2.0))

    lo, hi = state.f_window
    resonance = integral(weight, lo, hi, sorted({omega0, 0.5 * (lo + hi)}))
    return masses, overlap, resonance


def test_user_factors_are_evaluated_on_node_arrays():
    seen = []

    def f(x):
        seen.append(x)
        return np.exp(-(x - 1.0) ** 2 / 8e-4)

    def h(x):
        seen.append(x)
        return np.exp(-x ** 2 / 8e-4)

    state = SeparableState(DirectionPair.PP, f, h, (0.9, 1.1), (0.0, 0.2))
    envelope = Envelope.gaussian(0.02)
    coupling = CouplingSpec.isotropic(1e-3, envelope)
    channel_probabilities(scatter(coupling, state))
    assert len(seen) > 10
    assert all(isinstance(x, np.ndarray) and x.dtype == np.float64
               and x.ndim == 1 and x.size > 1 for x in seen)
    assert _integral_bits(_point_integrals(state, envelope, 1e-3, 1.0)) \
        == _integral_bits(_array_integrals(state, envelope, 1e-3, 1.0))


@pytest.mark.parametrize("envelope", [
    Envelope.gaussian(0.02),
    Envelope.lorentzian(0.004),
    Envelope.tabulated([0.0, 0.01, 0.03, 0.06, 0.1],
                       [0.3, 1.0, 0.7 + 0.2j, 0.2, 0.0]),
], ids=["gaussian", "lorentzian", "tabulated"])
def test_every_node_quad_visits_comes_from_an_array_fill(monkeypatch,
                                                         envelope):
    # Every factor is evaluated on arrays: each node quad visits comes from
    # an array of many nodes the factors were evaluated on, never alone.
    # Each integral also runs alone, as its own quad takes it, to record
    # the nodes it visits; the factors do not count those calls.
    visited, filled, alone = [], [], []

    def recording(quad):
        def recorded(fn, a, b, defer=False, **kwargs):
            def visit(x):
                visited.extend(x.tolist())
                return fn(x)
            alone.append(True)
            try:
                quad(visit, a, b, **kwargs)
            finally:
                alone.pop()
            return quad(fn, a, b, defer=defer, **kwargs)
        return recorded

    def counted(factor):
        def fill(x):
            assert isinstance(x, np.ndarray) and x.size > 1
            if not alone:
                filled.extend(x.tolist())
            return factor(x)
        return fill

    if envelope.kind is not EnvelopeKind.TABULATED:
        assert envelope.squared_norm() == pytest.approx(2.0, rel=1e-12)
    monkeypatch.setattr(spectral, "quad", recording(spectral.quad))
    monkeypatch.setattr(scattering, "quad", recording(scattering.quad))
    # A resonance 200 times narrower than the sum width: J bisects deeply.
    coupling = CouplingSpec.isotropic(1e-4, envelope)
    f, f_window = gaussian_sum_spectrum(1.003, 0.02)
    h, h_window = gaussian_difference_profile(0.02, 0.01)
    state = SeparableState(DirectionPair.PM, counted(f), counted(h),
                           f_window, h_window)
    channel_probabilities(scatter(coupling, state))
    assert len(visited) > 1000 and set(visited) <= set(filled)
