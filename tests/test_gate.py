"""Mirror response, controlled-phase overlap, and gate fidelity."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from quadwg.spectral import EnvelopeKind, _node_parts, _quad_options

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
    # The bracket as written before it shared the resonance kernel; the gate
    # data files depend on every bit of it.
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


def test_tabulated_pulse_matches_analytic_overlap():
    fwhm = GAMMA / 3
    grid = OMEGA0 + np.linspace(-6 * fwhm, 6 * fwhm, 4001)
    analytic = PulseShape.gaussian(OMEGA0, fwhm)
    sampled = PulseShape.tabulated(grid, np.abs(analytic(grid)))
    overlap = gate_overlap(sampled, GAMMA)
    assert overlap == pytest.approx(gate_overlap(analytic, GAMMA), rel=1e-5)


def test_gate_overlap_quadrature_count(quad_calls):
    gate_overlap(PulseShape.gaussian(OMEGA0, 0.2), GAMMA)
    # Per segment (window and two tails): one real pulse-mass integral and
    # the real and imaginary parts of the overlap.
    assert len(quad_calls) == 9


def _two_pass_gate_overlap(f, gamma, omega0=None):
    """``gate_overlap`` without shared nodes: the mass pass and the real
    and imaginary passes over ``z = 1 + overlap`` each evaluate the pulse
    afresh, one node at a time."""
    gamma = float(gamma)
    w0 = f.center if omega0 is None else float(omega0)
    lo, hi = f.support()
    lo = min(lo, w0 - 40.0 * gamma)
    hi = max(hi, w0 + 40.0 * gamma)
    pts = [f.center - f.fwhm, f.center, f.center + f.fwhm,
           w0 - gamma, w0, w0 + gamma]
    if f.kind is EnvelopeKind.TABULATED:
        segments = [(float(f.freqs[0]), float(f.freqs[-1]))]
    else:
        segments = [(lo, hi), (-np.inf, lo), (hi, np.inf)]
        reach = max(f.center - lo, hi - f.center)
        step = 8.0 * f.fwhm
        while step < reach:
            pts += [f.center - step, f.center + step]
            step *= 8.0
    mass = sum(quad(lambda x: float(f(x)) ** 2, a, b,
                    **_quad_options(a, b, pts))[0] for a, b in segments)

    def part(index):
        return lambda x: float(_scalar_integrands(f, gamma, w0, x)[index])

    val = 0.0
    for a, b in segments:
        kw = _quad_options(a, b, pts)
        re, _ = quad(part(1), a, b, **kw)
        im, _ = quad(part(2), a, b, **kw)
        val += re + 1j * im
    return complex(val) / mass - 1.0


class CountingPulse:
    """A pulse that records every argument it is evaluated at."""

    def __init__(self, pulse):
        self.pulse = pulse
        self.nodes = []

    def __getattr__(self, name):
        return getattr(self.pulse, name)

    def __call__(self, omegabar):
        self.nodes.append(omegabar)
        return self.pulse(omegabar)


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
    visited = []

    def recording(quad):
        def recorded(fn, a, b, **kwargs):
            return quad(lambda x: visited.append(x) or fn(x), a, b, **kwargs)
        return recorded

    monkeypatch.setattr(gate, "quad", recording(gate.quad))
    monkeypatch.setattr(spectral, "quad", recording(spectral.quad))
    counting = CountingPulse(pulse)
    gate_overlap(counting, gamma, omega0)
    # The pulse sees only the node engine's array fills: a node missing
    # from every fill would take a call on a one-element array.
    assert all(isinstance(x, np.ndarray) and x.ndim == 1 and x.size > 1
               for x in counting.nodes)
    filled = set(np.concatenate(counting.nodes).tolist())
    assert visited and set(visited) <= filled


def test_gate_overlap_evaluates_a_missing_node_on_its_own(monkeypatch):
    # With no array fill, every node quad visits is a miss: the pulse sees
    # one-element arrays, once per node for all three tables, and the
    # overlap keeps its bits.
    monkeypatch.setattr(spectral._NodeEngine, "_fill",
                        lambda self, groups: None)
    counting = CountingPulse(PulseShape.lorentzian(OMEGA0, 0.2))
    overlap = gate_overlap(counting, GAMMA)
    assert bits(overlap) == bits(
        _two_pass_gate_overlap(PulseShape.lorentzian(OMEGA0, 0.2), GAMMA))
    assert all(x.shape == (1,) for x in counting.nodes)
    nodes = [float(x[0]) for x in counting.nodes]
    assert len(nodes) == len(set(nodes))


def _scalar_integrands(f, gamma, w0, x):
    """``gate_overlap``'s integrands at one Python-float node, as the
    quadrature evaluated them one node at a time: ``|f|^2`` and the real
    and imaginary parts of ``|f|^2 (1 + bracket)``, in numpy-scalar
    arithmetic (``math.hypot`` rounds a few moduli differently)."""
    amp = float(f(x))
    d = w0 - x
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
    # The batch of nodes against each node on a one-element array, as the
    # node engine evaluates a node it did not prefetch, and against the
    # one-node form in numpy scalars at the rate as a float: the bits do
    # not depend on the type of the rate.
    pulse = _PULSES[shape](center, fwhm)
    rate = ratio * fwhm
    gamma = rate_type(max(rate, 1.0) if rate_type is int else rate)
    w0 = center if resonant else center + detuning * fwhm
    x = [w0, center, center - fwhm, center + fwhm, w0 + float(gamma),
         *_FAR_NODES, *nodes]
    if shape == "tabulated":
        x += [*pulse.freqs[[0, 5, -1]], pulse.freqs[0] - fwhm,
              0.5 * (pulse.freqs[3] + pulse.freqs[4])]
    single, single_warnings = [], set()
    for node in x:
        values, caught = _warned(gate._node_values, pulse, gamma, w0,
                                 np.array([node], dtype=float))
        single.append(np.ravel(values))
        single_warnings |= caught
    single = np.array(single).T
    batch, caught = _warned(gate._node_values, pulse, gamma, w0,
                            np.array(x, dtype=float))
    assert _float_bits(batch) == _float_bits(single)
    # Prefetched nodes warn only as quad's own nodes would.
    assert caught <= single_warnings
    scalar = [_warned(_scalar_integrands, pulse, float(gamma), w0,
                      float(node))[0] for node in x]
    assert _float_bits(single) == _float_bits(np.array(scalar).T)


@pytest.mark.parametrize("shape", ["gaussian", "lorentzian"])
def test_node_values_square_the_pulse_as_python_does(shape):
    # Python's ``amp ** 2`` calls libm pow, which on glibc 2.36 rounds a few
    # of these 20001 squares differently from ``amp * amp``.
    pulse = _PULSES[shape](0.0, 1.0)
    x = np.linspace(-3.0, 3.0, 20001)
    power, _, _ = gate._node_values(pulse, 1.0, 0.0, x)
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
    # whose product with dx/dt is constant.  The engine's first array pass
    # holds every node quad visits: one rule per starting interval.
    calls, visited = [], []

    def kernel(x):
        calls.append(x)
        return (integrand(x),)

    (table,) = _node_parts(kernel, 1, [(a, b)], points)
    quad(lambda x: visited.append(x) or table(x), a, b,
         **_quad_options(a, b, points))
    # A zero node is left out of the fill and evaluated alone.
    fill, *zeros = calls
    assert [x.tolist() for x in zeros] == [[x] for x in visited if x == 0.0]
    assert set(visited) - {0.0} <= set(fill.tolist())
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
