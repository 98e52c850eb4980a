"""Filtered two-qubit states, entropy, and Bell fidelities.

The parity tests hold ``postselect_filtered_state``, ``entanglement_entropy``
and ``entropy_sweeps`` bit for bit to a reference built here from the public
``emitted_amplitude`` on arrays, and within 2 eps to one built from its
scalar calls; run them deeper with
``pytest tests/test_entanglement.py --hypothesis-profile=parity``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadwg import cli

from quadwg import (
    CouplingSpec,
    DirectionPair,
    EmptyPostselectionError,
    Envelope,
    FilterPair,
    TwoQubitState,
    bell_fidelity,
    emitted_amplitude,
    entanglement_entropy,
    entropy_sweeps,
    postselect_filtered_state,
)

GAMMA = 1e-3


def lorentzian_coupling(beta_over_gamma, total=GAMMA):
    env = Envelope.lorentzian(beta_over_gamma * total)
    return CouplingSpec.isotropic(total, env, 1.0)


amplitude = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
).map(lambda ab: complex(*ab))

four_amplitudes = st.tuples(amplitude, amplitude, amplitude, amplitude) \
    .filter(lambda cs: sum(abs(c) ** 2 for c in cs) > 1e-4)


def test_symmetric_filters_straddle_half_resonance():
    cpl = lorentzian_coupling(1.0)
    filters = FilterPair.symmetric(cpl, 10 * GAMMA)
    assert filters.omega_a == pytest.approx(0.5 - 10 * GAMMA)
    assert filters.omega_b == pytest.approx(0.5 + 10 * GAMMA)
    assert filters.detuning == pytest.approx(10 * GAMMA)
    with pytest.raises(ValueError):
        FilterPair.symmetric(cpl, -1.0)
    with pytest.raises(ValueError):
        FilterPair(0.6, 0.4)


@pytest.mark.parametrize("build, name", [
    (lambda cpl: FilterPair(math.nan, 1.0), "omega_a"),
    (lambda cpl: FilterPair(0.4, math.inf), "omega_b"),
    (lambda cpl: FilterPair.symmetric(cpl, math.nan), "detuning"),
    (lambda cpl: FilterPair.symmetric(cpl, math.inf), "detuning"),
    (lambda cpl: postselect_filtered_state(
        cpl, FilterPair.symmetric(cpl, GAMMA), math.nan), "bandwidth"),
    (lambda cpl: postselect_filtered_state(
        cpl, FilterPair.symmetric(cpl, GAMMA), math.inf), "bandwidth"),
], ids=["nan-omega_a", "inf-omega_b", "nan-detuning", "inf-detuning",
        "nan-bandwidth", "inf-bandwidth"])
def test_filters_reject_non_finite_frequencies(build, name):
    # Each once ended in "all filtered amplitudes vanish", or passed.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        build(lorentzian_coupling(1.0))


def test_two_qubit_state_layout_and_normalization():
    state = TwoQubitState.from_unnormalized(2.0, 0.0, 0.0, 0.0)
    assert state.c_aa == pytest.approx(1.0)
    vec = state.as_vector()
    np.testing.assert_allclose(vec, [1.0, 0.0, 0.0, 0.0])
    matrix = TwoQubitState(0.0, 1.0, 0.0, 0.0).as_matrix()
    # Rows index the first detected photon, columns the second.
    assert matrix[0, 1] == pytest.approx(1.0)
    assert matrix[1, 0] == pytest.approx(0.0)
    with pytest.raises(EmptyPostselectionError):
        TwoQubitState.from_unnormalized(0.0, 0.0, 0.0, 0.0)
    # Each once gave a NaN or zero state with entropy 0.
    for amplitudes in [(math.inf, 0.0, 0.0, 0.0), (math.nan, 1.0, 0.0, 0.0),
                       (1.0, complex(0.0, -math.inf), 0.0, 0.0),
                       (1e308, 1e308, 0.0, 0.0), (1e200, 0.0, 0.0, 0.0)]:
        with pytest.raises(ValueError, match="finite norm"):
            TwoQubitState.from_unnormalized(*amplitudes)
    # Large amplitudes whose squared norm stays finite still normalize.
    state = TwoQubitState.from_unnormalized(1e150, 0.0, 0.0, 1e150)
    assert entanglement_entropy(state) == pytest.approx(1.0)


def test_entropy_reference_values():
    product = TwoQubitState(0.5, 0.5, 0.5, 0.5)
    assert entanglement_entropy(product) == pytest.approx(0.0, abs=1e-12)
    bell = TwoQubitState(1 / math.sqrt(2), 0.0, 0.0, -1 / math.sqrt(2))
    assert entanglement_entropy(bell) == pytest.approx(1.0, abs=1e-12)
    lopsided = TwoQubitState(math.sqrt(0.9), 0.0, 0.0, math.sqrt(0.1))
    target = -0.9 * math.log2(0.9) - 0.1 * math.log2(0.1)
    assert entanglement_entropy(lopsided) == pytest.approx(target, rel=1e-10)
    assert target == pytest.approx(0.469, abs=5e-4)


def test_bell_fidelity_reference_values():
    psi = TwoQubitState(1 / math.sqrt(2), 0.0, 0.0, -1 / math.sqrt(2))
    assert bell_fidelity(psi, "psi-minus") == pytest.approx(1.0)
    assert bell_fidelity(psi, "phi-plus") == pytest.approx(0.0, abs=1e-12)
    assert bell_fidelity(psi, "psi_minus") == pytest.approx(1.0)
    product = TwoQubitState(0.5, 0.5, 0.5, 0.5)
    assert bell_fidelity(product, "psi-minus") == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        bell_fidelity(psi, "sigma-plus")


@given(four_amplitudes, st.floats(min_value=-math.pi, max_value=math.pi))
def test_entropy_invariances(amplitudes, phase):
    state = TwoQubitState.from_unnormalized(*amplitudes)
    base = entanglement_entropy(state)
    rotated = TwoQubitState.from_unnormalized(
        *(c * np.exp(1j * phase) for c in amplitudes))
    assert entanglement_entropy(rotated) == pytest.approx(base, abs=1e-9)
    swapped = TwoQubitState(state.c_aa, state.c_ba, state.c_ab, state.c_bb)
    assert entanglement_entropy(swapped) == pytest.approx(base, abs=1e-9)
    relabeled = TwoQubitState(state.c_bb, state.c_ba, state.c_ab, state.c_aa)
    assert entanglement_entropy(relabeled) == pytest.approx(base, abs=1e-9)


@given(four_amplitudes)
def test_reduced_density_eigenvalues(amplitudes):
    state = TwoQubitState.from_unnormalized(*amplitudes)
    matrix = state.as_matrix()
    rho = matrix @ matrix.conj().T
    eigenvalues = np.linalg.eigvalsh(rho)
    assert np.all(eigenvalues > -1e-12)
    assert eigenvalues.sum() == pytest.approx(1.0, abs=1e-12)


def test_emitted_state_is_exchange_symmetric():
    cpl = lorentzian_coupling(0.3)
    state = postselect_filtered_state(cpl, FilterPair.symmetric(cpl, 5 * GAMMA))
    assert state.c_ab == state.c_ba


def test_degenerate_filters_give_product_state():
    cpl = lorentzian_coupling(1.0)
    state = postselect_filtered_state(cpl, FilterPair.symmetric(cpl, 0.0))
    assert entanglement_entropy(state) == pytest.approx(0.0, abs=1e-12)


def test_matched_width_state_is_separable():
    cpl = lorentzian_coupling(1.0)
    state = postselect_filtered_state(cpl, FilterPair.symmetric(cpl, 10 * GAMMA))
    assert entanglement_entropy(state) == pytest.approx(0.0, abs=1e-10)


def test_asymptotic_filter_limit_eigenvalues():
    # Far-detuned filters: the reduced state eigenvalues approach
    # (1 +- r)^2 / (2 (1 + r^2)) with r the width-to-linewidth ratio.
    for r in (0.5, 2.0):
        cpl = lorentzian_coupling(r)
        state = postselect_filtered_state(
            cpl, FilterPair.symmetric(cpl, 1e4 * GAMMA))
        matrix = state.as_matrix()
        eigenvalues = np.sort(np.linalg.eigvalsh(matrix @ matrix.conj().T))
        low = (1 - r) ** 2 / (2 * (1 + r * r))
        high = (1 + r) ** 2 / (2 * (1 + r * r))
        np.testing.assert_allclose(eigenvalues, [low, high], atol=1e-8)


def test_bell_limits_of_the_filtered_state():
    narrow = lorentzian_coupling(1e-2)
    state = postselect_filtered_state(
        narrow, FilterPair.symmetric(narrow, 10 * GAMMA))
    assert bell_fidelity(state, "psi-minus") > 0.99
    wide = lorentzian_coupling(1e2)
    state = postselect_filtered_state(
        wide, FilterPair.symmetric(wide, 10 * GAMMA))
    assert bell_fidelity(state, "phi-plus") > 0.99


def test_postselection_requires_cross_coupling():
    env = Envelope.lorentzian(GAMMA)
    cpl = CouplingSpec(1.0, {DirectionPair.PP: GAMMA / 2,
                             DirectionPair.MM: GAMMA / 2,
                             DirectionPair.PM: 0.0,
                             DirectionPair.MP: 0.0}, env)
    mirror = CouplingSpec.mirror(GAMMA, env, 1.0)
    for coupling in (cpl, mirror):
        for bandwidth in (0.0, GAMMA / 100):
            with pytest.raises(EmptyPostselectionError,
                               match="cross-channel rate is zero"):
                postselect_filtered_state(
                    coupling, FilterPair.symmetric(coupling, GAMMA),
                    bandwidth)


def test_finite_filter_bandwidth_converges_to_point_filters():
    cpl = lorentzian_coupling(0.5)
    filters = FilterPair.symmetric(cpl, 8 * GAMMA)
    point = postselect_filtered_state(cpl, filters)
    averaged = postselect_filtered_state(cpl, filters, bandwidth=GAMMA / 100)
    np.testing.assert_allclose(averaged.as_vector(), point.as_vector(),
                               atol=1e-4)
    with pytest.raises(ValueError):
        postselect_filtered_state(cpl, filters, bandwidth=-1.0)


@pytest.mark.parametrize("bandwidth", [1e-12, 1e-13, 3e-16])
def test_narrow_box_average_is_the_point_state(bandwidth):
    # Dividing by the nominal bandwidth ** 2 put 1e-12 7e-5 off and 1e-13
    # 7e-4 off: the nodes' rounded spans differ from box to box.
    cpl = lorentzian_coupling(0.5)
    filters = FilterPair.symmetric(cpl, 8 * GAMMA)
    point = postselect_filtered_state(cpl, filters)
    averaged = postselect_filtered_state(cpl, filters, bandwidth)
    np.testing.assert_allclose(averaged.as_vector(), point.as_vector(),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bandwidth", [1e-100, 1e-170, 5e-324, 1e160,
                                       1.7e308])
def test_unresolvable_bandwidth_is_rejected(bandwidth):
    # These raised a false "outside the envelope support",
    # ZeroDivisionError or OverflowError.
    cpl = lorentzian_coupling(0.5)
    filters = FilterPair.symmetric(cpl, 8 * GAMMA)
    with pytest.raises(ValueError, match="bandwidth"):
        postselect_filtered_state(cpl, filters, bandwidth)


def test_entropy_sweeps_shapes_and_features():
    widths = np.geomspace(1e-2, 1e2, 9)
    detunings = np.array([1.0, 2.0, 4.0, 8.0, 10.0, 16.0, 20.0])
    sweeps = entropy_sweeps(widths, detunings)
    assert sweeps.entropy.shape == (9, 7)
    against_width = sweeps.vs_width(10.0)
    assert int(np.argmin(against_width)) == 4  # widths[4] == 1
    assert against_width[0] > 0.95
    assert against_width[-1] > 0.95
    against_detuning = sweeps.vs_detuning(1e-2)
    assert np.all(np.diff(against_detuning) > -1e-12)
    with pytest.raises(ValueError, match="width ratios must be positive"):
        entropy_sweeps([0.0], [1.0])


@pytest.mark.parametrize("args, name", [
    (([1.0], [math.nan]), "detuning ratios"),
    (([math.nan], [1.0]), "width ratios"),
    (([1.0], [1.0], -0.004), "total_rate"),
    (([1.0], [1.0], 0.0), "total_rate"),
    (([1.0], [1.0], math.nan), "total_rate"),
    (([1.0], [1.0], math.inf), "total_rate"),
], ids=["nan-detuning", "nan-width", "negative-rate", "zero-rate",
        "nan-rate", "inf-rate"])
def test_entropy_sweeps_errors_name_their_parameter(args, name):
    # A bad rate once blamed the envelope width, and a nan ratio omega_a.
    with pytest.raises(ValueError, match=name):
        entropy_sweeps(*args)


def _combinations(filters):
    """The four filter combinations ``(aa, ab, ba, bb)``."""
    wa, wb = filters.omega_a, filters.omega_b
    return [(wa, wa), (wa, wb), (wb, wa), (wb, wb)]


def _array_amplitudes(coupling, filters):
    """``emitted_amplitude`` at the four filter combinations, in one array
    call."""
    pairs = _combinations(filters)
    return emitted_amplitude(coupling, DirectionPair.PM,
                             np.array([x + y for x, y in pairs]),
                             np.array([abs(y - x) for x, y in pairs]))


def _scalar_amplitudes(coupling, filters):
    """``emitted_amplitude`` at the four filter combinations, one scalar
    call each: numpy rounds the complex products of one element otherwise
    than those of an array."""
    return np.array([complex(emitted_amplitude(coupling, DirectionPair.PM,
                                               x + y, abs(y - x)))
                     for x, y in _combinations(filters)])


def _reference_state(coupling, filters, amplitudes=_array_amplitudes):
    """The unit state vector from the filter combinations' ``amplitudes``,
    with the library's postselection rules written out."""
    if coupling.rate(DirectionPair.PM) <= 0:
        raise EmptyPostselectionError(
            "cross-channel rate is zero; no counter-propagating pairs")
    amps = amplitudes(coupling, filters)
    if max(abs(a) for a in amps) < 1e-300:
        raise EmptyPostselectionError(
            "filters sit outside the envelope support")
    norm = float(np.linalg.norm(amps))
    if not norm > 1e-150:
        raise EmptyPostselectionError(
            "all filtered amplitudes vanish; nothing to postselect")
    amps /= norm
    return amps


def _reference_entropy(vector):
    """Von Neumann entropy of a unit state vector, one eigenvalue at a
    time."""
    m = vector.reshape(2, 2)
    evals = np.clip(np.linalg.eigvalsh(m @ m.conj().T).real, 0.0, 1.0)
    s = 0.0
    for lam in evals:
        if lam > 0.0:
            s -= lam * math.log2(lam)
    return min(max(s, 0.0), 1.0)


def _per_point_entropies(betas, deltas, total_rate, omega0):
    """``entropy_sweeps`` as one loop over its points, by the reference."""
    table = np.empty((len(betas), len(deltas)))
    for i, b in enumerate(np.asarray(betas, dtype=float)):
        cpl = CouplingSpec.isotropic(total_rate,
                                     Envelope.lorentzian(b * total_rate),
                                     omega0)
        for j, d in enumerate(np.asarray(deltas, dtype=float)):
            state = _reference_state(
                cpl, FilterPair.symmetric(cpl, d * total_rate))
            table[i, j] = _reference_entropy(state)
    return table


def _assert_sweep_is_per_point(betas, deltas, total_rate, omega0):
    swept = entropy_sweeps(betas, deltas, total_rate, omega0).entropy
    expected = _per_point_entropies(betas, deltas, total_rate, omega0)
    assert swept.view(np.uint64).tolist() \
        == expected.view(np.uint64).tolist()


def test_entropy_sweeps_equal_the_per_point_path_on_the_cli_grid():
    # The entangle defaults, whose width ratio 1 makes a product state:
    # its entropy is a rounding residue, which the arrays keep.
    entangle, common = cli.DEFAULTS["entangle"], cli.DEFAULTS["common"]
    betas, deltas = (np.array(entangle[key][0].split(","), dtype=float)
                     for key in ("width_ratios", "detuning_ratios"))
    _assert_sweep_is_per_point(betas, deltas,
                               float(common["total_rate"][0]),
                               float(common["omega0"][0]))


@settings(max_examples=20)
@given(betas=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
       deltas=st.lists(st.floats(0.0, 50.0), max_size=6),
       total_rate=st.floats(1e-6, 1e-2), omega0=st.floats(0.5, 10.0))
def test_entropy_sweeps_equal_the_per_point_path(betas, deltas, total_rate,
                                                 omega0):
    _assert_sweep_is_per_point(betas, [0.0, *deltas], total_rate, omega0)


@st.composite
def filtered_pairs(draw):
    """A coupling and a filter pair: three envelope kinds; isotropic,
    anisotropic and mirror rates; asymmetric and degenerate filters."""
    omega0 = draw(st.floats(0.3, 5.0))
    total = draw(st.floats(1e-7, 2e-3))
    width = total * draw(st.floats(1e-2, 1e2))
    kind = draw(st.sampled_from(["gaussian", "lorentzian", "tabulated"]))
    if kind == "tabulated":
        # Samples that may start away from zero, so that every filter
        # combination can fall outside the support.
        n = draw(st.integers(2, 8))
        start = draw(st.sampled_from([0.0, width]))
        values = draw(st.lists(
            st.builds(complex, st.floats(0.1, 1.0), st.floats(-1.0, 1.0)),
            min_size=n, max_size=n))
        envelope = Envelope.tabulated(start + width * np.arange(n), values)
    else:
        envelope = getattr(Envelope, kind)(width)
    rates = draw(st.sampled_from(["isotropic", "anisotropic", "mirror"]))
    if rates == "anisotropic":
        pp, mm, pm = draw(st.tuples(*[st.floats(0.05, 1.0)] * 3))
        scale = total / (pp + mm + 2 * pm)
        coupling = CouplingSpec(omega0, {
            DirectionPair.PP: pp * scale, DirectionPair.MM: mm * scale,
            DirectionPair.PM: pm * scale}, envelope)
    else:
        coupling = getattr(CouplingSpec, rates)(total, envelope, omega0)
    first = omega0 / 2 + total * draw(st.floats(-40.0, 40.0))
    if draw(st.booleans()):
        second = first
    else:
        second = omega0 / 2 + total * draw(st.floats(-40.0, 40.0))
    return coupling, FilterPair(min(first, second), max(first, second))


def _outcome(build):
    try:
        return build()
    except EmptyPostselectionError as exc:
        return str(exc)


@given(filtered_pairs())
def test_filtered_state_and_entropy_equal_the_reference(case):
    coupling, filters = case
    expected = _outcome(lambda: _reference_state(coupling, filters))
    state = _outcome(lambda: postselect_filtered_state(coupling, filters))
    if isinstance(expected, str):
        assert state == expected
        return
    assert not isinstance(state, str), state
    assert state.as_vector().view(np.uint64).tolist() \
        == expected.view(np.uint64).tolist()
    entropy = entanglement_entropy(state)
    assert type(entropy) is float
    assert np.float64(entropy).view(np.uint64) \
        == np.float64(_reference_entropy(expected)).view(np.uint64)


@given(filtered_pairs())
def test_filtered_state_and_entropy_stay_near_the_scalar_path(case):
    # The state was once built from four scalar calls of
    # emitted_amplitude; the array call moves it by at most 2 eps.
    coupling, filters = case
    expected = _outcome(lambda: _reference_state(coupling, filters,
                                                 _scalar_amplitudes))
    state = _outcome(lambda: postselect_filtered_state(coupling, filters))
    if isinstance(expected, str):
        assert state == expected
        return
    assert not isinstance(state, str), state
    eps = np.finfo(float).eps
    assert np.max(np.abs(state.as_vector() - expected)) <= 2 * eps
    assert abs(entanglement_entropy(state) - _reference_entropy(expected)) \
        <= 1e-14
