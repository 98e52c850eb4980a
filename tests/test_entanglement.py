"""Filtered two-qubit states, entropy, and Bell fidelities."""

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
    (lambda cpl: FilterPair.symmetric(cpl, math.nan), "omega_a"),
    (lambda cpl: FilterPair.symmetric(cpl, math.inf), "omega_a"),
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
    with pytest.raises(EmptyPostselectionError):
        postselect_filtered_state(cpl, FilterPair.symmetric(cpl, GAMMA))


def test_finite_filter_bandwidth_converges_to_point_filters():
    cpl = lorentzian_coupling(0.5)
    filters = FilterPair.symmetric(cpl, 8 * GAMMA)
    point = postselect_filtered_state(cpl, filters)
    averaged = postselect_filtered_state(cpl, filters, bandwidth=GAMMA / 100)
    np.testing.assert_allclose(averaged.as_vector(), point.as_vector(),
                               atol=1e-4)
    with pytest.raises(ValueError):
        postselect_filtered_state(cpl, filters, bandwidth=-1.0)


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


def _per_point_entropies(betas, deltas, total_rate, omega0):
    """``entropy_sweeps`` as one loop over its points."""
    table = np.empty((len(betas), len(deltas)))
    for i, b in enumerate(np.asarray(betas, dtype=float)):
        cpl = CouplingSpec.isotropic(total_rate,
                                     Envelope.lorentzian(b * total_rate),
                                     omega0)
        for j, d in enumerate(np.asarray(deltas, dtype=float)):
            state = postselect_filtered_state(
                cpl, FilterPair.symmetric(cpl, d * total_rate))
            table[i, j] = entanglement_entropy(state)
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
