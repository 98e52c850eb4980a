"""Mirror response, controlled-phase overlap, and gate fidelity."""

import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfcx

from quadwg import (
    GateReport,
    InvalidOverlapError,
    PulseShape,
    gate_overlap,
    gate_report,
    infidelity_sweep,
    truth_table,
    worst_case_fidelity,
)
from quadwg import gate, spectral
from quadwg.errors import TruncationError
from quadwg.gate import mirror_bracket, mirror_reflection
from quadwg.spectral import EnvelopeKind, _integrals, _quad_options

GAMMA = 1.0
OMEGA0 = 1.0


def pulse_power(pulse):
    lo, hi = pulse.support()
    mass, _ = quad(lambda w: abs(pulse(w)) ** 2, lo, hi, limit=200)
    return mass


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
@pytest.mark.parametrize("fwhm_on_power", [False, True])
def test_pulse_normalization_and_width(kind, fwhm_on_power):
    fwhm = 0.37
    pulse = getattr(PulseShape, kind)(OMEGA0, fwhm, fwhm_on_power=fwhm_on_power)
    assert pulse_power(pulse) == pytest.approx(1.0, rel=1e-8)
    peak = abs(pulse(OMEGA0))
    edge = abs(pulse(OMEGA0 + fwhm / 2))
    if fwhm_on_power:
        assert edge ** 2 / peak ** 2 == pytest.approx(0.5, rel=1e-12)
    else:
        assert edge / peak == pytest.approx(0.5, rel=1e-12)
    assert abs(pulse(OMEGA0 - fwhm / 2)) == pytest.approx(edge, rel=1e-12)


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
@pytest.mark.parametrize("fwhm_on_power", [False, True])
def test_pulse_scale_square_must_not_underflow(kind, fwhm_on_power):
    make = getattr(PulseShape, kind)
    with pytest.raises(ValueError, match="underflows"):
        make(0.0, 1e-170, fwhm_on_power=fwhm_on_power)
    assert make(0.0, 1e-150, fwhm_on_power=fwhm_on_power).scale > 0


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
@pytest.mark.parametrize("center, fwhm, name", [
    (math.nan, 1.0, "center"), (math.inf, 1.0, "center"),
    (0.0, math.nan, "fwhm"), (0.0, math.inf, "fwhm"),
], ids=["nan-center", "inf-center", "nan-fwhm", "inf-fwhm"])
def test_pulse_rejects_non_finite_parameters(kind, center, fwhm, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        getattr(PulseShape, kind)(center, fwhm)


@pytest.mark.parametrize("fwhm_on_power", [False, True])
def test_lorentzian_pulse_scale_cube_must_not_overflow(fwhm_on_power):
    # The amplitude takes 2 g^3; its cube once raised a bare OverflowError
    # from gate_overlap.
    for fwhm in (1e155, 1e103):
        with pytest.raises(ValueError, match="cube"):
            PulseShape.lorentzian(0.0, fwhm, fwhm_on_power=fwhm_on_power)
    pulse = PulseShape.lorentzian(0.0, 5e102, fwhm_on_power=fwhm_on_power)
    assert gate_overlap(pulse, 1.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("fwhm_on_power", [False, True])
def test_gaussian_pulse_support_square_must_not_overflow(fwhm_on_power):
    # From a FWHM of about 5.6e152 (7.9e152 on the amplitude) the square of
    # the 40-scale half support overflows: gate_overlap warned there, and
    # at 1e160 failed with a captured pulse mass of nan.
    for fwhm in (1e153, 1e160):
        with pytest.raises(ValueError, match="too large"):
            PulseShape.gaussian(0.0, fwhm, fwhm_on_power=fwhm_on_power)
    # The overlap is scale free: the widest pulse gives the unit pulse's.
    pulse = PulseShape.gaussian(0.0, 1e152, fwhm_on_power=fwhm_on_power)
    unit = gate.unit_pulse("gaussian", fwhm_on_power)
    assert gate_overlap(pulse, 1e151) == pytest.approx(
        gate_overlap(unit, 0.1), rel=1e-12)


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
def test_pulse_width_and_rate_must_be_positive(kind):
    with pytest.raises(ValueError, match="fwhm must be positive"):
        getattr(PulseShape, kind)(0.0, 0.0)
    with pytest.raises(ValueError, match="gamma must be positive"):
        gate_overlap(gate.unit_pulse(kind), 0.0)


@pytest.mark.parametrize("omega0", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [gate_overlap, gate_report, truth_table,
                                  mirror_reflection],
                         ids=["gate_overlap", "gate_report", "truth_table",
                              "mirror_reflection"])
def test_gate_rejects_a_non_finite_resonance(call, omega0):
    # A nan resonance once gave a report of nans with only an
    # IntegrationWarning.
    with pytest.raises(ValueError, match="omega0 must be finite"):
        call(PulseShape.gaussian(0.0, 1.0), GAMMA, omega0)


def test_gate_overlap_raises_on_a_nan_pulse_mass():
    # Built past the checks of PulseShape.gaussian: the pulse is nan at its
    # centre, so the captured mass is nan, which must not pass the check.
    pulse = PulseShape(EnvelopeKind.GAUSSIAN, 0.0, 1e-170, 1e-170)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TruncationError, match="mass nan"):
            gate_overlap(pulse, GAMMA)


@pytest.mark.parametrize("gamma", [math.inf, 5e-324, 1e-308,
                                   np.float64(1e-308), np.float32(math.inf)],
                         ids=["inf", "5e-324", "1e-308", "float64-1e-308",
                              "float32-inf"])
def test_gate_overlap_rejects_a_rate_whose_inverse_overflows(gamma):
    # An infinite rate once gave nan, and 5e-324 a bare ZeroDivisionError.
    with pytest.raises(ValueError, match="2 / gamma finite"):
        gate_overlap(PulseShape.gaussian(0.0, 1.0), gamma)


@pytest.mark.parametrize("gamma", [math.inf, 5e-324],
                         ids=["inf", "5e-324"])
def test_mirror_reflection_rejects_the_rates_gate_overlap_rejects(gamma):
    # An infinite rate once reflected nan+nanj, and 5e-324 raised a bare
    # ZeroDivisionError at resonance.
    with pytest.raises(ValueError, match="2 / gamma finite"):
        mirror_reflection(PulseShape.gaussian(0.0, 1.0), gamma)


# QUADPACK refuses to bisect [0, gamma] up to this rate (see
# gate._check_resolvable), and warned or skewed the pulse mass below it.
_LARGEST_UNRESOLVABLE = 4.4501477170146006e-305


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
@pytest.mark.parametrize("fwhm_on_power", [False, True])
def test_gate_overlap_rejects_rates_quad_cannot_resolve(kind, fwhm_on_power):
    pulse = gate.unit_pulse(kind, fwhm_on_power)
    for gamma in (1.2e-308, 3e-305, _LARGEST_UNRESOLVABLE):
        with pytest.raises(ValueError, match="too small"):
            gate_overlap(pulse, gamma)
    # The next float up is resolved: no warning (fatal under this suite)
    # and the transparent limit.
    overlap = gate_overlap(pulse, math.nextafter(_LARGEST_UNRESOLVABLE, 1.0))
    assert overlap == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
@pytest.mark.parametrize("gamma", [1e178, 1e300])
def test_gate_rejects_rates_whose_break_points_outnumber_quads_limit(
        kind, gamma):
    # The ladder of pulse-scale break points across a window 80 gamma wide
    # outgrew quad's 400 subintervals, and quad refused with its own
    # ValueError.
    pulse = gate.unit_pulse(kind)
    match = f"gamma {re.escape(repr(gamma))} is too large"
    with pytest.raises(gate._UnresolvableRateError, match=match):
        gate_overlap(pulse, gamma)
    with pytest.raises(gate._UnresolvableRateError, match=match):
        infidelity_sweep([gamma], shapes=(kind,))


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
@pytest.mark.parametrize("gamma", [1e150, 1e160, 1e170])
def test_infidelity_survives_a_pair_factor_whose_square_underflows(
        kind, gamma):
    # |z|^2 underflowed to zero and x* = Re z / |z|^2 divided by it.
    with warnings.catch_warnings():
        # numpy's overflow warnings of these rates (ROADMAP item 1).
        warnings.simplefilter("ignore", RuntimeWarning)
        sweep = infidelity_sweep([1e140, gamma], shapes=(kind,))
    assert sweep.fidelity.tolist() == [[1.0, 1.0]]
    near, far = sweep.log10_infidelity[0]
    # 1 - F falls as (fwhm / gamma)^2 until the 1e-300 clip.
    assert far == pytest.approx(max(near - 2 * math.log10(gamma / 1e140),
                                    -300.0), abs=1e-9)


def _old_fidelity(z):
    """``_fidelity`` as written before the scaled branch."""
    norm2 = abs(z) ** 2
    x_star = min(max(z.real / norm2, 0.0), 1.0)
    infidelity = x_star * (2.0 * z.real - x_star * norm2)
    return 1.0 - infidelity, x_star, infidelity


@given(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                          allow_infinity=False))
def test_fidelity_keeps_its_bits_where_the_square_is_normal(z):
    assume(abs(z) ** 2 >= np.finfo(float).tiny and abs(z - 1.0) <= 1.0)
    assert _float_bits(gate._fidelity(z)) == _float_bits(_old_fidelity(z))


@pytest.mark.parametrize("z", [complex(3e-160, 4e-160),
                               complex(-3e-160, 4e-160),
                               complex(1e-321, 1e-160),
                               complex(2e-170, -1e-300),
                               complex(5e-324, 0.0)])
def test_fidelity_of_a_pair_factor_whose_square_is_not_normal(z):
    mpmath.mp.prec = 200
    re, im = mpmath.mpf(z.real), mpmath.mpf(z.imag)
    norm2 = re * re + im * im
    x_star = min(max(re / norm2, 0), 1)
    infidelity = x_star * (2 * re - x_star * norm2)
    fidelity, got_x, got_infidelity = gate._fidelity(z)
    assert got_x == pytest.approx(float(x_star), rel=1e-15)
    # Subnormal results keep only the digits their exponent leaves.
    assert got_infidelity == pytest.approx(float(infidelity), rel=1e-15,
                                           abs=1e-323)
    assert fidelity == 1.0


@pytest.mark.parametrize("shape", ["gaussian", "lorentzian"])
@pytest.mark.parametrize("ratio", [1.0, 100.0])
def test_gate_overlap_takes_a_float32_rate_as_float64(shape, ratio):
    # Once computed in complex64, 6e-9 off, with an IntegrationWarning.
    pulse = gate.unit_pulse(shape)
    rate = np.float32(ratio)
    single = gate_overlap(pulse, rate)   # the suite errors on any warning
    double = gate_overlap(pulse, np.float64(rate))
    assert _float_bits([single.real, single.imag]) \
        == _float_bits([double.real, double.imag])


def test_tabulated_pulse_sampling_and_support():
    pulse = PulseShape.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    # Normalization uses the mass of the linear interpolant, which for a
    # triangle is 2/3 of its squared peak.
    peak = math.sqrt(1.5)
    assert pulse(1.0) == pytest.approx(peak, rel=1e-12)
    assert pulse(0.5) == pytest.approx(peak / 2, rel=1e-12)
    assert pulse.center == 1.0
    assert pulse(-0.5) == 0.0
    assert pulse(2.5) == 0.0
    assert pulse.support() == (0.0, 2.0)


_GAUSS13 = np.linspace(-3.0, 3.0, 13)


@pytest.mark.parametrize("freqs, vals, expected", [
    # Int 1.5 (1-|x|)^2 (1 - 1/(1/2 - i x)) dx over [-1, 1], in closed form.
    ([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0],
     1.0 - 1.5 * (1.0 - math.log(5.0) + 1.5 * math.atan(2.0))),
    (_GAUSS13, np.exp(-_GAUSS13 ** 2 / 2.0), None),
], ids=["triangle", "gaussian-13"])
def test_tabulated_pulse_interpolant_has_unit_mass(freqs, vals, expected):
    pulse = PulseShape.tabulated(freqs, vals)
    mass = sum(quad(lambda w: pulse(w) ** 2, a, b, epsabs=1e-14,
                    epsrel=1e-13)[0]
               for a, b in zip(pulse.freqs[:-1], pulse.freqs[1:]))
    assert mass == pytest.approx(1.0, abs=1e-12)
    # Normalized on the samples, both pulses raised TruncationError here.
    overlap = gate_overlap(pulse, 1.0)
    assert abs(overlap) <= 1.0
    if expected is not None:
        assert overlap == pytest.approx(expected, abs=1e-9)


def test_tabulated_pulse_validation():
    with pytest.raises(ValueError):
        PulseShape.tabulated([0.0], [1.0])
    with pytest.raises(ValueError):
        PulseShape.tabulated([0.0, 1.0, 0.5], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        PulseShape.tabulated([0.0, 1.0, 2.0], [0.0, -1.0, 0.0])
    with pytest.raises(ValueError):
        PulseShape.tabulated([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])


def test_narrow_spikes_are_integrated_segment_by_segment():
    # Two triangles 2e-9 wide carry all the mass of the interpolant, each
    # in proportion to its width in floating point, and each sees the
    # bracket at its apex.
    eps = 1e-9
    freqs = [0.0, 0.7 - eps, 0.7, 0.7 + eps, 1.3 - eps, 1.3, 1.3 + eps, 2.0]
    vals = [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    pulse = PulseShape.tabulated(freqs, vals)
    gamma, omega0 = 0.5, 1.0
    widths = [freqs[3] - freqs[1], freqs[6] - freqs[4]]
    brackets = [1.0 - gamma / (gamma / 2 + 1j * (omega0 - x))
                for x in (freqs[2], freqs[5])]
    expected = np.dot(widths, brackets) / sum(widths)
    overlap = gate_overlap(pulse, gamma, omega0=omega0)
    # Quadrature nodes round to 1e-16 on segments 1e-9 wide.
    assert overlap == pytest.approx(expected, rel=1e-7)


def _interpolant_overlap_mpmath(freqs, vals, gamma, omega0):
    """``Int f^2 bracket / Int f^2`` of the linear interpolant of the
    samples, segment by segment in 20-digit arithmetic."""
    mass, overlap = mpmath.mpf(0), mpmath.mpc(0)
    with mpmath.workdps(20):
        for a, b, fa, fb in zip(freqs[:-1], freqs[1:], vals[:-1], vals[1:]):
            a, b, fa, fb = (mpmath.mpf(float(x)) for x in (a, b, fa, fb))

            def power(x, a=a, b=b, fa=fa, fb=fb):
                return (fa + (fb - fa) * (x - a) / (b - a)) ** 2

            def reflected(x, power=power):
                return power(x) * (1 - gamma / (mpmath.mpf(gamma) / 2
                                                + 1j * (omega0 - x)))

            mass += mpmath.quad(power, [a, b], method="gauss-legendre")
            overlap += mpmath.quad(reflected, [a, b], method="gauss-legendre")
        return complex(overlap / mass)


@pytest.mark.parametrize("n_samples", [61, 121])
def test_tabulated_overlap_matches_mpmath_interpolant(n_samples):
    # One quadrature window across the sample kinks warns at these counts
    # (fatal under this suite) and loses accuracy at 121 samples.
    freqs = np.linspace(-3.0, 3.0, n_samples)
    vals = np.exp(-freqs ** 2 / 2.0)
    overlap = gate_overlap(PulseShape.tabulated(freqs, vals), 1.0, omega0=0.0)
    expected = _interpolant_overlap_mpmath(freqs, vals, 1.0, 0.0)
    assert abs(overlap - expected) <= 1e-10 * abs(expected)


def test_mirror_bracket_on_and_off_resonance():
    assert mirror_bracket(GAMMA, OMEGA0, OMEGA0) == -1.0
    above = mirror_bracket(GAMMA, OMEGA0, OMEGA0 + 10 * GAMMA)
    below = mirror_bracket(GAMMA, OMEGA0, OMEGA0 - 10 * GAMMA)
    assert above == np.conj(below)
    # Ten linewidths out the response has mostly recovered transmission.
    assert above.real == pytest.approx(1.0, rel=5e-3)
    assert 0.09 < abs(above - 1.0) < 0.11


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_mirror_bracket_is_unimodular(detuning):
    value = mirror_bracket(GAMMA, OMEGA0, OMEGA0 + detuning * GAMMA)
    assert abs(value) == pytest.approx(1.0, abs=1e-12)


def test_mirror_bracket_keeps_its_bits():
    # The bracket as written before it shared the resonance kernel.  The
    # gate data files come from gate._node_values, not from the bracket;
    # mirror_reflection and callers of the public bracket keep these bits.
    detune = np.geomspace(1e-9, 1e3, 60)
    for gamma in (GAMMA, np.float64(3.7e-3)):
        omegabar = np.concatenate([OMEGA0 - gamma * detune, [OMEGA0],
                                   OMEGA0 + gamma * detune])
        ref = 1.0 - gamma / (gamma / 2.0 + 1j * (OMEGA0 - omegabar))
        value = mirror_bracket(gamma, OMEGA0, omegabar)
        assert np.array_equal(value, ref)
        assert value.tobytes() == ref.tobytes()


def test_mirror_reflection_is_pulse_times_bracket():
    pulse = PulseShape.gaussian(OMEGA0, 0.2)
    reflected = mirror_reflection(pulse, GAMMA)
    omegabar = OMEGA0 + np.linspace(-0.5, 0.5, 11)
    expected = pulse(omegabar) * mirror_bracket(GAMMA, OMEGA0, omegabar)
    np.testing.assert_allclose(reflected(omegabar), expected, rtol=1e-12)
    assert reflected(OMEGA0) == pytest.approx(-pulse(OMEGA0))


@pytest.mark.parametrize("ratio", [3.0, 100.0])
def test_gaussian_overlap_closed_form(ratio):
    pulse = PulseShape.gaussian(OMEGA0, GAMMA / ratio)
    overlap = gate_overlap(pulse, GAMMA)
    x = (GAMMA / 2) / pulse.scale
    expected = 1.0 - 2.0 * x * math.sqrt(math.pi) * erfcx(x)
    assert overlap.real == pytest.approx(expected, rel=1e-12)
    assert abs(overlap.imag) < 1e-12


@pytest.mark.parametrize("ratio", [3.0, 100.0])
def test_lorentzian_overlap_closed_form(ratio):
    fwhm = GAMMA / ratio
    pulse = PulseShape.lorentzian(OMEGA0, fwhm)
    overlap = gate_overlap(pulse, GAMMA)
    g, a = fwhm / 2, GAMMA / 2
    expected = (g * g - 2 * a * g - a * a) / (g + a) ** 2
    assert overlap.real == pytest.approx(expected, rel=1e-12)
    assert abs(overlap.imag) < 1e-12


@pytest.mark.parametrize("ratio", [1e3, 1e4, 1e5, 1e6])
def test_narrow_pulse_overlaps_match_closed_forms(ratio):
    # The window spans forty rates, up to 4e7 pulse widths; the pulse tails
    # must still be resolved.
    pulse = PulseShape.gaussian(OMEGA0, GAMMA / ratio)
    x = (GAMMA / 2) / pulse.scale
    expected = 1.0 - 2.0 * x * math.sqrt(math.pi) * erfcx(x)
    overlap = gate_overlap(pulse, GAMMA)
    assert abs(overlap.real - expected) < 4e-15
    assert abs(overlap.imag) < 1e-12

    pulse = PulseShape.lorentzian(OMEGA0, GAMMA / ratio)
    g, a = pulse.scale, GAMMA / 2
    expected = 1.0 - GAMMA * (a + 2 * g) / (a + g) ** 2
    overlap = gate_overlap(pulse, GAMMA)
    assert abs(overlap.real - expected) < 4e-15
    assert abs(overlap.imag) < 1e-12


def test_narrow_gaussian_reference_point():
    pulse = PulseShape.gaussian(OMEGA0, GAMMA / 100)
    overlap = gate_overlap(pulse, GAMMA)
    assert overlap.real == pytest.approx(-0.9999278730516818, rel=1e-12)
    fidelity, occupation = worst_case_fidelity(overlap)
    assert fidelity == pytest.approx(0.9998557513056604, rel=1e-12)
    assert occupation == pytest.approx(1.0)


def _sampled_gaussian():
    """A Gaussian pulse a third of ``GAMMA`` wide, tabulated at 4,001
    samples over six widths each side, and the pulse itself."""
    fwhm = GAMMA / 3
    grid = OMEGA0 + np.linspace(-6 * fwhm, 6 * fwhm, 4001)
    analytic = PulseShape.gaussian(OMEGA0, fwhm)
    return PulseShape.tabulated(grid, np.abs(analytic(grid))), analytic


def test_tabulated_pulse_matches_analytic_overlap():
    sampled, analytic = _sampled_gaussian()
    overlap = gate_overlap(sampled, GAMMA)
    assert overlap == pytest.approx(gate_overlap(analytic, GAMMA), rel=1e-5)


def _traced_peak(fn, *args):
    """Traced Python memory peak of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_tabulated_overlap_runs_in_a_bounded_window():
    # One job of 12,000 integrals, three per segment: the lockstep keeps a
    # fixed window of them live and only the outcome of each finished one,
    # about 2 MB in all.  Run all at once, they peaked at 29.1 MB.
    sampled, _ = _sampled_gaussian()
    assert _traced_peak(gate_overlap, sampled, GAMMA) <= 5.6e6


def test_infidelity_sweep_memory_does_not_grow_with_its_points():
    # Both curves run in one lockstep whose live integrals a fixed window
    # bounds; four times the points add only their outcomes, about 0.2
    # MB.  Run a curve at a time without the window, the peak grew from
    # 5.2 to 20.4 MB.
    _traced_peak(infidelity_sweep, np.geomspace(1.0, 1e4, 5))
    growth = _traced_peak(infidelity_sweep, np.geomspace(1.0, 1e4, 244)) \
        - _traced_peak(infidelity_sweep, np.geomspace(1.0, 1e4, 61))
    assert growth <= 0.5e6


@pytest.mark.parametrize("gamma", np.geomspace(1e-17, 1e-13, 9).tolist())
def test_gate_overlap_resolves_a_detuned_resonance_a_few_ulps_wide(gamma):
    # In obar the break points 0.3 +- gamma sat a few ulps apart, and at
    # 1e-16 QUADPACK refused to bisect between them ("extremely bad
    # integrand behavior") and returned a magnitude above one.  Warnings
    # are errors in this suite.
    overlap = gate_overlap(gate.unit_pulse("gaussian"), gamma, 0.3)
    assert abs(overlap) <= 1.0


@pytest.mark.parametrize("omega0", [5.7353605093906255e-15, -5.7e-15, 1e-14,
                                    2.2250738585072014e-308])
@pytest.mark.parametrize("gamma", [1.0, 8.0])
def test_gate_overlap_merges_break_points_a_few_ulps_apart(gamma, omega0):
    # The pulse's break points (centre, centre +- fwhm, its ladder) a few
    # ulps, or a few tiny, from the resonance's (omega0, omega0 +- gamma)
    # bounded intervals QUADPACK refused to bisect, with "extremely bad
    # integrand behavior"; warnings are errors in this suite.
    overlap = gate_overlap(gate.unit_pulse("gaussian"), gamma, omega0)
    assert abs(overlap) <= 1.0


def test_gate_overlap_quadrature_count(quad_calls):
    gate_overlap(PulseShape.gaussian(OMEGA0, 0.2), GAMMA)
    # Per segment (window and two tails): one real pulse-mass integral and
    # the real and imaginary parts of the overlap, each the gate's own.
    assert quad_calls == ["quadwg.gate"] * 9


def _two_pass_gate_overlap(f, gamma, omega0=None):
    """``gate_overlap`` without shared nodes: the mass pass and the real
    and imaginary passes over ``z = 1 + overlap`` each evaluate the pulse
    afresh, one node at a time, in ``t = obar - origin``: ``origin = w0``
    for an analytic pulse, ``0`` for a tabulated one."""
    gamma = float(gamma)
    w0 = f.center if omega0 is None else float(omega0)
    origin = 0.0 if f.kind is EnvelopeKind.TABULATED else w0
    r = w0 - origin
    lo, hi = f.support()
    lo = min(lo - origin, r - 40.0 * gamma)
    hi = max(hi - origin, r + 40.0 * gamma)
    c = f.center - origin
    pts = [c - f.fwhm, c, c + f.fwhm, r - gamma, r, r + gamma]
    if f.kind is EnvelopeKind.TABULATED:
        segments = list(zip(f.freqs[:-1].tolist(), f.freqs[1:].tolist()))
    else:
        segments = [(lo, hi), (-np.inf, lo), (hi, np.inf)]
        reach = max(c - lo, hi - c)
        step = 8.0 * f.fwhm
        while step < reach:
            pts += [c - step, c + step]
            step *= 8.0
    mass = sum(quad(lambda t: float(f(origin + t)) ** 2, a, b,
                    **_quad_options(a, b, pts))[0] for a, b in segments)

    def part(index):
        return lambda t: float(
            _scalar_integrands(f, gamma, origin, r, t)[index])

    val = 0.0
    for a, b in segments:
        kw = _quad_options(a, b, pts)
        re, _ = quad(part(1), a, b, **kw)
        im, _ = quad(part(2), a, b, **kw)
        val += re + 1j * im
    return complex(val) / mass - 1.0


def bits(z):
    return (z.real.hex(), z.imag.hex())


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
@pytest.mark.parametrize("ratio", [1.0, 30.0, 1e3, 1e6])
def test_gate_overlap_equals_two_pass_form_bitwise(kind, ratio):
    pulse = getattr(PulseShape, kind)(0.0, 1.0)
    assert bits(gate_overlap(pulse, ratio)) \
        == bits(_two_pass_gate_overlap(pulse, ratio))


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
def test_detuned_gate_overlap_equals_two_pass_form_bitwise(kind):
    pulse = getattr(PulseShape, kind)(OMEGA0, 0.2)
    omega0 = OMEGA0 + 0.3
    assert bits(gate_overlap(pulse, GAMMA, omega0)) \
        == bits(_two_pass_gate_overlap(pulse, GAMMA, omega0))


def _tabulated_gaussian(center, fwhm, n_samples):
    grid = center + np.linspace(-6 * fwhm, 6 * fwhm, n_samples)
    return PulseShape.tabulated(
        grid, np.abs(PulseShape.gaussian(center, fwhm)(grid)))


@pytest.mark.parametrize("pulse, gamma, omega0", [
    (PulseShape.lorentzian(OMEGA0, 0.2), GAMMA, None),
    (PulseShape.gaussian(OMEGA0, 0.2), GAMMA, OMEGA0 + 0.3),
    (PulseShape.gaussian(0.0, 1.0), np.float64(1e4), None),
    (PulseShape.lorentzian(0.0, 1.0), np.float64(1e6), None),
    (_tabulated_gaussian(OMEGA0, GAMMA / 3, 401), GAMMA, None),
], ids=["lorentzian", "gaussian-detuned", "gaussian-1e4", "lorentzian-1e6",
        "tabulated"])
def test_gate_overlap_prefetches_every_node_quad_visits(
        monkeypatch, pulse, gamma, omega0):
    filled, visited, alone = [], [], []

    def recording(quad):
        def recorded(fn, a, b, defer=False, **kwargs):
            # Each integral also runs alone, as its own quad takes it, to
            # record the nodes it visits.
            def visit(t):
                visited.extend(t.tolist())
                return fn(t)
            alone.append(True)
            try:
                quad(visit, a, b, **kwargs)
            finally:
                alone.pop()
            return quad(fn, a, b, defer=defer, **kwargs)
        return recorded

    def counted(*args):
        if not alone:
            filled.append(args[-1])
        return node_values(*args)

    node_values = gate._node_values
    monkeypatch.setattr(gate, "_node_values", counted)
    monkeypatch.setattr(gate, "quad", recording(gate.quad))
    monkeypatch.setattr(spectral, "quad", recording(spectral.quad))
    overlap = gate_overlap(pulse, gamma, omega0)
    # The integrands see arrays only, one a round holding the nodes of all
    # three integrals over every segment, and the overlap has the bits of
    # three passes that each evaluate the pulse afresh.
    assert all(isinstance(t, np.ndarray) and t.ndim == 1 and t.size > 1
               for t in filled)
    keys = [t.tobytes() for t in filled]
    assert len(keys) == len(set(keys))
    assert visited and set(visited) == set(np.concatenate(filled).tolist())
    assert bits(overlap) == bits(_two_pass_gate_overlap(pulse, gamma, omega0))


def _scalar_integrands(f, gamma, origin, r, t):
    """``gate_overlap``'s integrands at one Python-float node ``t = obar -
    origin``, the resonance at ``t = r``, as the quadrature evaluated them
    one node at a time: ``|f|^2`` and the real and imaginary parts of
    ``|f|^2 (1 + bracket)``, in numpy-scalar arithmetic (``math.hypot``
    rounds a few moduli differently)."""
    amp = float(f(origin + t))
    d = r - t
    h = np.hypot(gamma / 2.0, d)
    s = d / h
    power = amp ** 2
    return power, power * (2.0 * s * s), power * ((gamma / h) * s)


def _float_bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _warned(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(*args)
    return value, {w.category for w in caught}


_PULSES = {
    "gaussian": lambda center, fwhm: PulseShape.gaussian(center, fwhm),
    "lorentzian": lambda center, fwhm: PulseShape.lorentzian(center, fwhm),
    "tabulated": lambda center, fwhm: _tabulated_gaussian(center, fwhm, 13),
}
_MAX = 1.7976931348623157e308
# quad's nodes are finite; these are the far ones, where the pulse's
# square overflows, and the signed zeros.
_FAR_NODES = (0.0, -0.0, 5e-324, 1e8, -1e8, 1e15, -1e15, 1e200, -1e200,
              _MAX, -_MAX)


@pytest.mark.parametrize("rate_type",
                         [int, float, np.float64, np.asarray],
                         ids=["int", "float", "float64", "0-d"])
@pytest.mark.parametrize("shape", sorted(_PULSES))
@settings(max_examples=15)
@given(ratio=st.floats(1e-2, 1e6), center=st.floats(-2.0, 2.0),
       fwhm=st.floats(1e-3, 10.0), detuning=st.floats(-3.0, 3.0),
       resonant=st.booleans(),
       nodes=st.lists(st.floats(-50.0, 50.0) | st.floats(
           allow_nan=False, allow_infinity=False), max_size=16))
def test_node_values_have_the_bits_of_one_node(
        rate_type, shape, ratio, center, fwhm, detuning, resonant, nodes):
    # The batch of nodes against each node on a one-element array, and
    # against the one-node form in numpy scalars at the rate as a float:
    # the bits do not depend on the type of the rate.
    pulse = _PULSES[shape](center, fwhm)
    rate = ratio * fwhm
    gamma = rate_type(max(rate, 1.0) if rate_type is int else rate)
    w0 = center if resonant else center + detuning * fwhm
    x = [w0, center, center - fwhm, center + fwhm, w0 + float(gamma)]
    if shape == "tabulated":
        x += [*pulse.freqs[[0, 5, -1]], pulse.freqs[0] - fwhm,
              0.5 * (pulse.freqs[3] + pulse.freqs[4])]
    # quad's nodes are t = obar - origin, the resonance at t = r.
    origin = 0.0 if shape == "tabulated" else w0
    r = w0 - origin
    x = [node - origin for node in x] + [*_FAR_NODES, *nodes]
    single, single_warnings = [], set()
    for node in x:
        values, caught = _warned(gate._node_values, pulse, gamma, origin, r,
                                 np.array([node], dtype=float))
        single.append(np.ravel(values))
        single_warnings |= caught
    single = np.array(single).T
    batch, caught = _warned(gate._node_values, pulse, gamma, origin, r,
                            np.array(x, dtype=float))
    assert _float_bits(batch) == _float_bits(single)
    # Prefetched nodes warn only as quad's own nodes would.
    assert caught <= single_warnings
    scalar = [_warned(_scalar_integrands, pulse, float(gamma), origin, r,
                      float(node))[0] for node in x]
    assert _float_bits(single) == _float_bits(np.array(scalar).T)


@pytest.mark.parametrize("shape", ["gaussian", "lorentzian"])
def test_node_values_square_the_pulse_as_python_does(shape):
    # Python's ``amp ** 2`` calls libm pow, which on glibc 2.36 rounds a few
    # of these 20001 squares differently from ``amp * amp``.
    pulse = _PULSES[shape](0.0, 1.0)
    x = np.linspace(-3.0, 3.0, 20001)
    power, _, _ = gate._node_values(pulse, 1.0, 0.0, 0.0, x)
    assert _float_bits(power) == _float_bits(
        [amp ** 2 for amp in pulse(x).tolist()])


@pytest.mark.parametrize("a, b, points, integrand", [
    (-1.0, 1.0, [], lambda x: np.ones_like(x)),
    (-1.0, 3.0, [0.25, 2.0, 9.0], lambda x: np.ones_like(x)),
    (-np.inf, 2.5, [], lambda x: 1.0 / (1.0 + np.abs(x - 2.5)) ** 2),
    (0.7, np.inf, [], lambda x: 1.0 / (1.0 + np.abs(x - 0.7)) ** 2),
], ids=["window", "break-points", "lower-tail", "upper-tail"])
def test_predicted_nodes_are_those_of_quads_first_pass(a, b, points,
                                                       integrand):
    # quad's first rule integrates each integrand exactly, so it never
    # bisects: a constant on a finite interval, and on a half line, which
    # quad maps to t in (0, 1] by x = bound +- (1 - t) / t, an integrand
    # whose product with dx/dt is constant.  The one array ``_integrals``
    # evaluates holds exactly the nodes scipy's quad visits, in its order:
    # one rule per starting interval.
    calls, visited = [], []

    def kernel(x):
        calls.append(x)
        return (integrand(x),)

    _integrals(spectral.quad, [(kernel, 1, [(a, b)], points)])
    (fill,) = calls
    quad(lambda x: visited.append(x) or float(integrand(np.array(x))),
         a, b, **_quad_options(a, b, points))
    assert fill.tolist() == visited
    starts = 1 + len([p for p in points if a < p < b])
    rule = 21 if math.isfinite(a) and math.isfinite(b) else 15
    assert len(set(visited)) == len(visited) == starts * rule


def test_worst_case_reference_points():
    assert worst_case_fidelity(-1.0) == (1.0, 1.0)
    fidelity, occupation = worst_case_fidelity(1.0)
    assert fidelity == pytest.approx(0.0, abs=1e-15)
    assert occupation == pytest.approx(0.5)
    fidelity, occupation = worst_case_fidelity(-0.9 + 0.1j)
    assert fidelity == pytest.approx(0.82, rel=1e-12)
    assert occupation == pytest.approx(1.0)


def test_worst_case_rejects_unphysical_overlap():
    with pytest.raises(InvalidOverlapError):
        worst_case_fidelity(1.2)
    with pytest.raises(InvalidOverlapError):
        worst_case_fidelity(-(1.0 + 1e-5))
    # A non-finite overlap once gave (nan, nan).
    for overlap in (math.nan, complex(0.0, math.inf), complex(math.nan, 0.5)):
        with pytest.raises(InvalidOverlapError, match="magnitude (nan|inf)"):
            worst_case_fidelity(overlap)
    # Round-off just past the unit circle is tolerated.
    fidelity, _ = worst_case_fidelity(1.0 + 1e-9)
    assert fidelity == pytest.approx(0.0, abs=1e-8)


@given(st.complex_numbers(max_magnitude=0.999, allow_nan=False,
                          allow_infinity=False))
def test_worst_case_agrees_with_grid_search(overlap):
    fidelity, occupation = worst_case_fidelity(overlap)
    grid = np.linspace(0.0, 1.0, 100001)
    values = np.abs(1.0 - grid * (1.0 + overlap)) ** 2
    index = int(np.argmin(values))
    assert fidelity <= values[index] + 1e-12
    assert abs(fidelity - values[index]) < 1e-9
    assert abs(occupation - grid[index]) < 2e-5
    assert 0.0 <= occupation <= 1.0


def test_truth_table_entries():
    pulse = PulseShape.gaussian(OMEGA0, GAMMA / 100)
    overlap = gate_overlap(pulse, GAMMA)
    table = truth_table(pulse, GAMMA)
    assert set(table) == {"00", "01", "10", "11"}
    assert table["00"] == 1.0
    assert table["01"] == 1.0
    assert table["10"] == 1.0
    assert table["11"] == overlap
    for t in (0.0, 0.3, 1.0):
        entry = truth_table(pulse, GAMMA, transmission=t)["11"]
        expected = (2 * t - 1) ** 2 + 4 * t * (1 - t) * overlap
        assert entry == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        truth_table(pulse, GAMMA, transmission=1.5)
    with pytest.raises(ValueError):
        truth_table(pulse, GAMMA, transmission=-0.1)


def test_infidelity_sweep_trends():
    ratios = np.geomspace(1.0, 1e4, 9)
    sweep = infidelity_sweep(ratios)
    assert sweep.shapes == ("gaussian", "lorentzian")
    assert sweep.fidelity.shape == (2, 9)
    for row in sweep.fidelity:
        assert np.all(np.diff(row) > 0)
    gaussian = sweep.curve("gaussian")
    lorentzian = sweep.curve("lorentzian")
    np.testing.assert_array_equal(gaussian, sweep.log10_infidelity[0])
    mask = ratios >= 10.0
    assert np.all(gaussian[mask] < lorentzian[mask])
    assert sweep.fidelity[:, -1].min() > 1 - 1e-3
    np.testing.assert_allclose(sweep.log10_infidelity,
                               np.log10(1.0 - sweep.fidelity))


def _resonant_infidelity_mpmath(shape, ratio):
    """Worst-case infidelity of a resonant pulse of unit amplitude FWHM at
    ``gamma = ratio``, from the closed form of ``z = 1 + overlap`` in
    40-digit arithmetic."""
    with mpmath.workdps(40):
        a = mpmath.mpf(ratio) / 2
        if shape == "gaussian":
            # |f|^2 = exp(-nu^2 / s^2) / (s sqrt(pi)); f halves at nu = 1/2.
            x = a * mpmath.sqrt(8 * mpmath.log(2))
            z = 2 * (1 - x * mpmath.sqrt(mpmath.pi) * mpmath.exp(x * x)
                     * mpmath.erfc(x))
        else:
            # |f|^2 = (2 g^3 / pi) / (nu^2 + g^2)^2 with g = 1/2.
            g = mpmath.mpf(1) / 2
            z = 2 * g * g / (a + g) ** 2
        # z is real and positive on resonance; |1 - x z|^2 is least at
        # x = 1 / z, clipped to [0, 1].
        x_star = min(1 / z, 1)
        return float(1 - (1 - x_star * z) ** 2)


@pytest.mark.parametrize("shape", ["gaussian", "lorentzian"])
def test_infidelity_matches_mpmath(shape):
    # 1 - |1 - x (1 + overlap)|^2 with the overlap near -1 cancelled away
    # the infidelity: 1e-4 off at 1e6 and the -300 clip at 1e8.
    ratios = [1.0, 1e2, 1e4, 1e6, 1e8]
    sweep = infidelity_sweep(ratios, shapes=(shape,))
    expected = [_resonant_infidelity_mpmath(shape, r) for r in ratios]
    np.testing.assert_allclose(10.0 ** sweep.curve(shape), expected,
                               rtol=1e-8)


def test_infidelity_sweep_validation():
    with pytest.raises(ValueError):
        infidelity_sweep([1.0], shapes=("triangle",))
    with pytest.raises(ValueError):
        infidelity_sweep([-1.0])
    with pytest.raises(ValueError):
        infidelity_sweep([1.0]).curve("box")


def test_fwhm_convention_changes_the_sweep():
    amplitude = infidelity_sweep([10.0], shapes=("gaussian",))
    power = infidelity_sweep([10.0], shapes=("gaussian",), fwhm_on_power=True)
    # Power fwhm means a wider amplitude profile, hence lower fidelity.
    assert power.fidelity[0, 0] < amplitude.fidelity[0, 0]


def test_gate_report_is_consistent():
    pulse = PulseShape.lorentzian(OMEGA0, GAMMA / 40)
    report = gate_report(pulse, GAMMA)
    assert isinstance(report, GateReport)
    assert report.overlap == gate_overlap(pulse, GAMMA)
    fidelity, occupation = worst_case_fidelity(report.overlap)
    assert report.worst_case_fidelity == fidelity
    assert report.minimizing_occupation == occupation
