"""Frequency-bin entanglement of counter-propagating emitted pairs.

Two narrow filters at frequencies ``omega_a < omega_b`` turn each photon of
a counter-propagating pair into a qubit.  Evaluating the cross-channel
emission amplitude at the four filter combinations and renormalizing gives a
two-qubit state whose entanglement is controlled by the ratio of envelope
width to emitter linewidth and by the filter detuning.

Because the emitted pair carries total frequency near the resonance
``omega0``, the two filters straddle half the resonance:
``omega_a = omega0 / 2 - detuning`` and ``omega_b = omega0 / 2 + detuning``
for the symmetric arrangement.  The diagnostic Bell targets are
``(|aa> - |bb>) / sqrt(2)`` (labeled ``psi-minus``) and
``(|ab> + |ba>) / sqrt(2)`` (labeled ``phi-plus``), both unit norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .emission import emitted_amplitude
from .errors import EmptyPostselectionError
from .spectral import CouplingSpec, DirectionPair, Envelope, _check_finite

__all__ = [
    "FilterPair",
    "TwoQubitState",
    "postselect_filtered_state",
    "entanglement_entropy",
    "bell_fidelity",
    "EntropySweeps",
    "entropy_sweeps",
]


@dataclass(frozen=True)
class FilterPair:
    """Two narrow filter frequencies defining the qubit basis.

    ``omega_a <= omega_b``; equality is the degenerate single-bin case.
    """

    omega_a: float
    omega_b: float

    def __post_init__(self) -> None:
        _check_finite("omega_a", self.omega_a)
        _check_finite("omega_b", self.omega_b)
        if self.omega_a > self.omega_b:
            raise ValueError("omega_a must not exceed omega_b")

    @classmethod
    def symmetric(cls, coupling: CouplingSpec, detuning: float) -> "FilterPair":
        """Filters at ``omega0 / 2 -/+ detuning``.

        Pairs drawn from these bins have total frequency ``omega0 - 2 d``,
        ``omega0`` or ``omega0 + 2 d``, i.e. they sit symmetrically on the
        emission line.
        """
        if detuning < 0:
            raise ValueError("detuning must be nonnegative")
        half = 0.5 * coupling.omega0
        return cls(half - detuning, half + detuning)

    @property
    def detuning(self) -> float:
        return 0.5 * (self.omega_b - self.omega_a)


@dataclass(frozen=True)
class TwoQubitState:
    """Normalized filtered pair state ``sum c_xy |x, y>`` with x, y in {a, b}."""

    c_aa: complex
    c_ab: complex
    c_ba: complex
    c_bb: complex

    @classmethod
    def from_unnormalized(cls, c_aa, c_ab, c_ba, c_bb) -> "TwoQubitState":
        vec = np.array([c_aa, c_ab, c_ba, c_bb], dtype=complex)
        norm = float(np.linalg.norm(vec))
        if not norm > 1e-150:
            raise EmptyPostselectionError(
                "all filtered amplitudes vanish; nothing to postselect")
        vec /= norm
        return cls(*vec)

    def as_matrix(self) -> np.ndarray:
        """Amplitudes as a 2x2 matrix indexed (first slot, second slot)."""
        return np.array([[self.c_aa, self.c_ab],
                         [self.c_ba, self.c_bb]], dtype=complex)

    def as_vector(self) -> np.ndarray:
        return np.array([self.c_aa, self.c_ab, self.c_ba, self.c_bb],
                        dtype=complex)


def postselect_filtered_state(coupling: CouplingSpec, filters: FilterPair,
                              bandwidth: float = 0.0) -> TwoQubitState:
    """Filtered two-qubit state of the counter-propagating emitted pair.

    The cross-channel emission amplitude is evaluated at the four filter
    combinations ``(omega_x, omega_y)``, mapped to half-plane coordinates
    ``obar = omega_x + omega_y`` and ``delta = |omega_y - omega_x|``, and
    renormalized.  ``bandwidth > 0`` replaces the pointwise evaluation by a
    box average over square windows of that full width, to gauge how narrow
    real filters must be for the ideal-filter answer to hold.
    """
    if coupling.rate(DirectionPair.PM) <= 0:
        raise EmptyPostselectionError(
            "cross-channel rate is zero; no counter-propagating pairs")
    _check_finite("bandwidth", bandwidth)
    if bandwidth < 0:
        raise ValueError("bandwidth must be nonnegative")

    def point(w1: float, w2: float) -> complex:
        return complex(emitted_amplitude(coupling, DirectionPair.PM,
                                         w1 + w2, abs(w2 - w1)))

    def sample(w1: float, w2: float) -> complex:
        if bandwidth == 0.0:
            return point(w1, w2)
        xs = np.linspace(w1 - bandwidth / 2, w1 + bandwidth / 2, 33)
        ys = np.linspace(w2 - bandwidth / 2, w2 + bandwidth / 2, 33)
        vals = emitted_amplitude(
            coupling, DirectionPair.PM,
            xs[:, None] + ys[None, :], np.abs(ys[None, :] - xs[:, None]))
        inner = np.trapezoid(vals, ys, axis=1)
        return complex(np.trapezoid(inner, xs)) / bandwidth ** 2

    wa, wb = filters.omega_a, filters.omega_b
    amps = [sample(wa, wa), sample(wa, wb), sample(wb, wa), sample(wb, wb)]
    if max(abs(a) for a in amps) < 1e-300:
        raise EmptyPostselectionError(
            "filters sit outside the envelope support")
    return TwoQubitState.from_unnormalized(*amps)


def entanglement_entropy(state: TwoQubitState) -> float:
    """Von Neumann entropy (base 2) of either photon's reduced state.

    Zero for product states, one for Bell states.  ``0 log 0`` counts as
    zero.
    """
    m = state.as_matrix()
    rho = m @ m.conj().T
    evals = np.linalg.eigvalsh(rho)
    evals = np.clip(evals.real, 0.0, 1.0)
    s = 0.0
    for lam in evals:
        if lam > 0.0:
            s -= lam * math.log2(lam)
    return float(min(max(s, 0.0), 1.0))


_BELL_TARGETS = {
    "psi-minus": np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0),
    "phi-plus": np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0),
}


def bell_fidelity(state: TwoQubitState, target: str) -> float:
    """Squared overlap with a unit-norm Bell target, global phase ignored.

    ``target`` is ``psi-minus`` for ``(|aa> - |bb>) / sqrt(2)`` or
    ``phi-plus`` for ``(|ab> + |ba>) / sqrt(2)``.
    """
    key = target.replace("_", "-").lower()
    if key not in _BELL_TARGETS:
        raise ValueError(f"unknown Bell target {target!r}")
    overlap = np.vdot(_BELL_TARGETS[key], state.as_vector())
    return float(abs(overlap) ** 2)


@dataclass(frozen=True)
class EntropySweeps:
    """Entropy of the filtered state over a (width, detuning) parameter grid.

    ``entropy[i, j]`` belongs to envelope-width ratio
    ``beta_over_gamma[i]`` and filter detuning ratio ``delta_over_gamma[j]``.
    """

    beta_over_gamma: np.ndarray
    delta_over_gamma: np.ndarray
    entropy: np.ndarray

    def vs_detuning(self, beta_ratio: float) -> np.ndarray:
        """Entropy against detuning at the given width ratio."""
        i = int(np.argmin(np.abs(self.beta_over_gamma - beta_ratio)))
        return self.entropy[i, :]

    def vs_width(self, delta_ratio: float = 10.0) -> np.ndarray:
        """Entropy against width ratio at the given detuning ratio."""
        j = int(np.argmin(np.abs(self.delta_over_gamma - delta_ratio)))
        return self.entropy[:, j]


def entropy_sweeps(beta_over_gamma: Sequence[float],
                   delta_over_gamma: Sequence[float],
                   total_rate: float = 1e-3,
                   omega0: float = 1.0) -> EntropySweeps:
    """Tabulate the filtered-pair entropy for Lorentzian envelopes.

    Both parameters are quoted relative to the total rate; the entropy
    depends only on these ratios.  Along detuning the entropy grows and
    saturates; along width it dips to zero at ratio one and approaches one
    (a Bell state) at both extremes.

    Each entry has the bits of ``entanglement_entropy(
    postselect_filtered_state(coupling, FilterPair.symmetric(coupling, d
    * total_rate)))`` for its point, and the grid raises what that loop
    would raise first.  It is computed in array passes, a width at a time:
    the amplitudes in real arithmetic, with the products and the quotient
    of the Python and numpy-scalar complex arithmetic of
    ``emitted_amplitude`` (numpy's array complex multiply rounds
    differently); each state's norm by ``np.linalg.norm`` on its own
    vector, whose BLAS reduction a sum over an array axis would not round
    alike; then every point's ``eigvalsh`` and entropy together.
    """
    betas = np.asarray(beta_over_gamma, dtype=float)
    deltas = np.asarray(delta_over_gamma, dtype=float)
    if np.any(betas <= 0) or np.any(deltas < 0):
        raise ValueError("width ratios must be positive, detunings nonnegative")
    states = np.empty((betas.size, deltas.size, 4), dtype=complex)
    filters = None
    for i, b in enumerate(betas):
        coupling = CouplingSpec.isotropic(
            total_rate, Envelope.lorentzian(b * total_rate), omega0)
        if filters is None:
            filters = [FilterPair.symmetric(coupling, d * total_rate)
                       for d in deltas]
            # The four filter combinations (aa, ab, ba, bb) of each point,
            # and their line factor 1 / (rate / 2 + i (omega0 - obar)).
            wa = np.array([f.omega_a for f in filters])[:, None]
            wb = np.array([f.omega_b for f in filters])[:, None]
            w1 = np.concatenate([wa, wa, wb, wb], axis=1)
            w2 = np.concatenate([wa, wb, wa, wb], axis=1)
            line = _reciprocal(coupling.total_rate / 2.0,
                               coupling.omega0 - (w1 + w2))
        states[i] = _postselect_row(coupling, line, np.abs(w2 - w1))
    return EntropySweeps(betas, deltas, _entropies(states))


def _reciprocal(re: float, im: np.ndarray) -> tuple:
    """``1 / (re + i im)`` elementwise, as Python divides complex numbers:
    ``(real, imag)``."""
    big = abs(re) >= np.abs(im)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Both branches of CPython's division, one of them kept.
        ratio = np.where(big, im / re, re / im)
        denom = np.where(big, re + im * ratio, re * ratio + im)
        real = np.where(big, (1.0 + 0.0 * ratio) / denom,
                        (1.0 * ratio + 0.0) / denom)
        imag = np.where(big, (0.0 - 1.0 * ratio) / denom,
                        (0.0 * ratio - 1.0) / denom)
    return real, imag


def _postselect_row(coupling: CouplingSpec, line: tuple,
                    delta: np.ndarray) -> np.ndarray:
    """``postselect_filtered_state`` on each row of filter combinations,
    given their line factors and frequency differences: the unit-norm
    state vectors, in arrays."""
    if delta.size and coupling.rate(DirectionPair.PM) <= 0:
        raise EmptyPostselectionError(
            "cross-channel rate is zero; no counter-propagating pairs")
    lr, li = line
    s = math.sqrt(coupling.rate(DirectionPair.PM) / (2.0 * math.pi))
    # (1j * s) * line in Python complex arithmetic, then times conj(u) in
    # numpy-scalar complex arithmetic, each written out in real terms.
    pr = 0.0 * lr - s * li
    pi = 0.0 * li + s * lr
    u = np.conj(coupling.envelope(delta))
    ur, ui = u.real, u.imag
    amps = np.empty(delta.shape, dtype=complex)
    amps.real = pr * ur - pi * ui
    amps.imag = pr * ui + pi * ur
    outside = np.max(np.hypot(amps.real, amps.imag), axis=1) < 1e-300
    norms = np.array([float(np.linalg.norm(vec)) for vec in amps])
    for out, norm in zip(outside, norms):
        if out:
            raise EmptyPostselectionError(
                "filters sit outside the envelope support")
        if not norm > 1e-150:
            raise EmptyPostselectionError(
                "all filtered amplitudes vanish; nothing to postselect")
    return amps / norms[:, None]


def _entropies(states: np.ndarray) -> np.ndarray:
    """``entanglement_entropy`` of each unit state vector along the last
    axis of ``states``, in one batch."""
    m = states.reshape(-1, 2, 2)
    evals = np.clip(np.linalg.eigvalsh(m @ m.conj().transpose(0, 2, 1))
                    .real, 0.0, 1.0)
    positive = evals > 0.0
    logs = np.zeros_like(evals)
    logs[positive] = [math.log2(lam) for lam in evals[positive].tolist()]
    terms = np.where(positive, evals * logs, 0.0)
    s = (0.0 - terms[:, 0]) - terms[:, 1]
    return np.minimum(np.maximum(s, 0.0), 1.0).reshape(states.shape[:-1])
