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
        _check_finite("detuning", detuning)
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
        amps = np.array([[c_aa, c_ab, c_ba, c_bb]], dtype=complex)
        return cls(*_unit_rows(amps, outside=[False])[0])

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

    The cross-channel emission amplitude, ``emitted_amplitude`` on the
    ``+-`` channel, is evaluated at the four filter combinations
    ``(omega_x, omega_y)``, mapped to half-plane coordinates ``obar =
    omega_x + omega_y`` and ``delta = |omega_y - omega_x|``, and
    renormalized.  ``bandwidth > 0`` replaces the pointwise evaluation by a
    box average over square windows of that full width, to gauge how narrow
    real filters must be for the ideal-filter answer to hold; a bandwidth
    too narrow or too wide for float64 windows raises ``ValueError``.
    """
    _check_finite("bandwidth", bandwidth)
    if bandwidth < 0:
        raise ValueError("bandwidth must be nonnegative")
    w1, w2 = _combinations([filters])
    if bandwidth == 0.0:
        amps = emitted_amplitude(coupling, DirectionPair.PM, w1 + w2,
                                 np.abs(w2 - w1))
    else:
        # The trapezoid rule on 33 x 33 nodes around each combination,
        # over the area that the rounded nodes span.
        xs, ys = (np.linspace(w - bandwidth / 2, w + bandwidth / 2, 33,
                              axis=-1) for w in (w1, w2))
        with np.errstate(over="ignore"):
            area = (xs[..., -1] - xs[..., 0]) * (ys[..., -1] - ys[..., 0])
        if not np.all((area > 0) & (area < math.inf)):
            raise ValueError(f"bandwidth {bandwidth!r} leaves a filter window"
                             " of zero or infinite sampled area")
        x, y = xs[..., :, None], ys[..., None, :]
        vals = emitted_amplitude(coupling, DirectionPair.PM, x + y,
                                 np.abs(y - x))
        inner = np.trapezoid(vals, y, axis=-1)
        amps = np.trapezoid(inner, xs, axis=-1) / area
    return TwoQubitState(*_postselect_row(coupling, amps)[0])


def entanglement_entropy(state: TwoQubitState) -> float:
    """Von Neumann entropy (base 2) of either photon's reduced state.

    Zero for product states, one for Bell states.  ``0 log 0`` counts as
    zero.
    """
    return float(_entropies(state.as_vector()))


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

    Entry ``[i, j]`` is ``entanglement_entropy(postselect_filtered_state(
    coupling, FilterPair.symmetric(coupling, delta_over_gamma[j] *
    total_rate)))`` at width ratio ``beta_over_gamma[i]``: those two
    functions are this grid's one-point case, so the grid has their bits
    and raises what a loop over its points would raise first.  It is
    computed in array passes, a width at a time, with every point's
    entropy taken together at the end.
    """
    if not (math.isfinite(total_rate) and total_rate > 0):
        raise ValueError(f"total_rate must be finite and positive, got"
                         f" {total_rate!r}")
    betas = np.asarray(beta_over_gamma, dtype=float)
    deltas = np.asarray(delta_over_gamma, dtype=float)
    # Written so that a nan ratio fails them too.
    if not np.all(betas > 0):
        raise ValueError("width ratios must be positive")
    if not np.all(deltas >= 0):
        raise ValueError("detuning ratios must be nonnegative")
    states = np.empty((betas.size, deltas.size, 4), dtype=complex)
    coords = None
    for i, b in enumerate(betas):
        coupling = CouplingSpec.isotropic(
            total_rate, Envelope.lorentzian(b * total_rate), omega0)
        if coords is None:
            w1, w2 = _combinations(
                [FilterPair.symmetric(coupling, d * total_rate)
                 for d in deltas])
            coords = (w1 + w2, np.abs(w2 - w1))
        states[i] = _postselect_row(coupling, emitted_amplitude(
            coupling, DirectionPair.PM, *coords))
    return EntropySweeps(betas, deltas, _entropies(states))


def _combinations(filters: Sequence[FilterPair]) -> tuple:
    """First and second frequencies of the four filter combinations
    ``(aa, ab, ba, bb)`` of each filter pair: two ``(len(filters), 4)``
    arrays."""
    wa = np.array([f.omega_a for f in filters])[:, None]
    wb = np.array([f.omega_b for f in filters])[:, None]
    return (np.concatenate([wa, wa, wb, wb], axis=1),
            np.concatenate([wa, wb, wa, wb], axis=1))


def _postselect_row(coupling: CouplingSpec, amps: np.ndarray) -> np.ndarray:
    """``postselect_filtered_state`` on each row of cross-channel
    amplitudes at the filter combinations ``(aa, ab, ba, bb)``: the
    unit-norm state vectors, in arrays."""
    if amps.size and coupling.rate(DirectionPair.PM) <= 0:
        raise EmptyPostselectionError(
            "cross-channel rate is zero; no counter-propagating pairs")
    return _unit_rows(amps, outside=np.max(np.abs(amps), axis=1) < 1e-300)


def _unit_rows(amps: np.ndarray, outside: Sequence[bool]) -> np.ndarray:
    """Each row of ``amps`` over its norm, by ``np.linalg.norm`` on its own
    vector (a sum over an array axis would not round alike).

    The first row whose filters sit ``outside`` the envelope support, whose
    norm is not finite or whose amplitudes vanish raises, as a loop over
    the rows would.
    """
    with np.errstate(over="ignore"):
        norms = np.array([float(np.linalg.norm(vec)) for vec in amps])
    for out, norm in zip(outside, norms):
        if out:
            raise EmptyPostselectionError(
                "filters sit outside the envelope support")
        if not math.isfinite(norm):
            raise ValueError("filtered amplitudes must be finite, with a"
                             " finite norm")
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
