"""Pair scattering off the quadratically coupled emitter.

The emitter only talks to the envelope-parallel part of an incoming pair
state.  At fixed sum frequency the four direction channels mix through the
rank-one matrix

    theta[out, in](obar) = - sqrt(rate(out) * rate(in)) / denom(obar),
    denom(obar) = total_rate / 2 + i (omega0 - obar),

while the envelope-orthogonal remainder passes through untouched.  The full
per-channel transfer coefficient is ``chi = identity + theta``.  Outputs are
quoted relative to free propagation: the overall phase
``exp(-i obar (t1 - t0))`` is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import InvalidStateError, UnsupportedConfigurationError
from .spectral import (
    PAIRS,
    BiphotonState,
    CouplingSpec,
    DirectionPair,
    Envelope,
    EnvelopeKind,
    FrequencyGrid,
    GridState,
    SeparableState,
    _check_delta_cover,
    _quad_options,
    gaussian_biphoton,
    resonance_denominator,
)

__all__ = [
    "scattering_amplitude",
    "transfer_coefficient",
    "scatter",
    "ScatterOutput",
    "ChannelProbabilities",
    "channel_probabilities",
    "ProbabilityBounds",
    "probability_bounds",
    "gaussian_closed_form",
    "ReflectionSweep",
    "reflection_sweep",
]

PHASE_NOTE = "amplitudes omit the free propagation phase exp(-i*obar*(t1-t0))"


def scattering_amplitude(coupling: CouplingSpec, out_pair: DirectionPair,
                         in_pair: DirectionPair, omegabar):
    """Emitter-mediated amplitude between direction pairs at fixed ``obar``.

    Symmetric under exchanging the roles of ``out_pair`` and ``in_pair``.
    On resonance with isotropic rates it equals -1/2 for every pair.
    """
    num = math.sqrt(coupling.rate(out_pair) * coupling.rate(in_pair))
    return -num / resonance_denominator(coupling.total_rate, coupling.omega0,
                                        omegabar)


def transfer_coefficient(coupling: CouplingSpec, out_pair: DirectionPair,
                         in_pair: DirectionPair, omegabar):
    """Full envelope-parallel transfer: identity plus the scattering part."""
    delta = 1.0 if out_pair is in_pair else 0.0
    return delta + scattering_amplitude(coupling, out_pair, in_pair, omegabar)


@dataclass
class _AnalyticScatter:
    """Semi-analytic record of a separable-input scattering event.

    The scattered piece of channel ``mu`` is
    ``- sqrt(rate(mu)) * w * kappa * f(obar) * conj(u)(delta) / denom(obar)``
    with ``w`` the summed root rate of the populated input channels and
    ``kappa`` the scaled envelope overlap of the input difference factor.
    """

    kappa: complex
    root_rate_in: float
    in_channels: tuple[DirectionPair, ...]


class ScatterOutput:
    """Result wrapper holding the outgoing state and bookkeeping.

    ``output`` materializes the outgoing ``GridState`` (lazily for separable
    inputs).  ``phase_note`` records the dropped propagation phase.
    """

    def __init__(self, coupling: CouplingSpec, input_state: BiphotonState,
                 grid_out: GridState | None = None,
                 analytic: _AnalyticScatter | None = None) -> None:
        self.coupling = coupling
        self.input_state = input_state
        self.phase_note = PHASE_NOTE
        self._grid_out = grid_out
        self._analytic = analytic

    @property
    def output(self) -> GridState:
        if self._grid_out is None:
            self._grid_out = self.output_on(
                FrequencyGrid.for_scattering(self.coupling))
        return self._grid_out

    def output_on(self, grid: FrequencyGrid) -> GridState:
        """Materialize the outgoing state on an explicit grid."""
        if self._analytic is None:
            return self.output.on_grid(grid)
        ana = self._analytic
        state = self.input_state
        data = state.on_grid(grid).data.copy()
        u = self.coupling.envelope(grid.delta)
        drive = ana.kappa * ana.root_rate_in \
            * np.asarray(state.f(grid.omegabar), dtype=complex) \
            / resonance_denominator(self.coupling.total_rate,
                                    self.coupling.omega0, grid.omegabar)
        for pair in PAIRS:
            data[pair.index] -= math.sqrt(self.coupling.rate(pair)) \
                * drive[:, None] * np.conj(u)[None, :]
        return GridState(grid, data, validate=False)


def scatter(coupling: CouplingSpec, state: BiphotonState) -> ScatterOutput:
    """Apply the pair scattering map to an incoming state.

    Separable inputs are handled semi-analytically (one envelope overlap
    plus one-dimensional quadratures later, when probabilities are
    requested); grid inputs are transformed in place on their grid.  The
    outgoing state keeps the incoming normalization, and the free
    propagation phase is dropped.
    """
    if isinstance(state, SeparableState):
        if state.norm_squared() < 1e-280:
            raise InvalidStateError("input state has zero norm")
        kappa = state.overlap_with_envelope(coupling.envelope)
        channels = (state.channel,) if state.channel.swapped is state.channel \
            else (state.channel, state.channel.swapped)
        w = sum(math.sqrt(coupling.rate(c)) for c in channels)
        ana = _AnalyticScatter(kappa, w, channels)
        return ScatterOutput(coupling, state, analytic=ana)
    if isinstance(state, GridState):
        g = state.grid
        if state.norm_squared() < 1e-280:
            raise InvalidStateError("input state has zero norm")
        _check_delta_cover(coupling.envelope, float(g.delta[-1]))
        u = coupling.envelope(g.delta)
        roots = coupling.sqrt_rates()
        # Summed root-rate-weighted envelope overlaps of all channels.
        q = g.integrate_delta(u[None, None, :] * state.data)     # (4, No)
        drive = (roots[:, None] * q).sum(axis=0) \
            / resonance_denominator(coupling.total_rate, coupling.omega0,
                                    g.omegabar)                  # (No,)
        out = state.data - roots[:, None, None] * drive[None, :, None] \
            * np.conj(u)[None, None, :]
        return ScatterOutput(coupling, state,
                             grid_out=GridState(g, out, validate=False))
    raise TypeError("state must be SeparableState or GridState")


@dataclass(frozen=True)
class ChannelProbabilities:
    """Outgoing probability per ordered direction channel.

    For input pairs launched in the ++ channel, ``reflection`` is the --
    probability, ``splitting`` the summed +- and -+ probability, and
    ``transmission`` the ++ probability.
    """

    values: Mapping[DirectionPair, float]

    @property
    def total(self) -> float:
        return float(sum(self.values.values()))

    @property
    def reflection(self) -> float:
        return float(self.values[DirectionPair.MM])

    @property
    def splitting(self) -> float:
        return float(self.values[DirectionPair.PM] + self.values[DirectionPair.MP])

    @property
    def transmission(self) -> float:
        return float(self.values[DirectionPair.PP])


def channel_probabilities(result: ScatterOutput) -> ChannelProbabilities:
    """Channel-resolved outgoing probabilities, normalized by the input.

    The semi-analytic separable path reduces every channel norm to the same
    one-dimensional integral ``J = Int |f|^2 / |denom|^2``, which makes the
    four probabilities sum to one exactly and keeps the two cross channels
    bit-identical.
    """
    coupling = result.coupling
    n_in = result.input_state.norm_squared()
    if n_in <= 0:
        raise InvalidStateError("input state has zero norm")
    if result._analytic is not None:
        ana = result._analytic
        state = result.input_state
        gamma_total = coupling.total_rate
        # Each populated input channel holds an equal share of the norm.
        n_own = n_in / len(ana.in_channels)
        lo, hi = state.f_window
        center = 0.5 * (lo + hi)

        def integrand(ob):
            d = resonance_denominator(gamma_total, coupling.omega0, ob)
            return abs(state.f(ob)) ** 2 / (d.real ** 2 + d.imag ** 2)

        J, _ = quad(integrand, lo, hi, **_quad_options(
            lo, hi, sorted({coupling.omega0, center})))
        k2 = abs(ana.kappa) ** 2
        w = ana.root_rate_in
        values: dict[DirectionPair, float] = {}
        for pair in PAIRS:
            rate = coupling.rate(pair)
            norm = rate * w * w * k2 * J
            if pair in ana.in_channels:
                norm += n_own - math.sqrt(rate) * w * k2 * gamma_total * J
            values[pair] = norm / n_in
        return ChannelProbabilities(values)
    out = result.output
    values = {pair: float(out.grid.integrate(np.abs(out.channel(pair)) ** 2)) / n_in
              for pair in PAIRS}
    return ChannelProbabilities(values)


@dataclass(frozen=True)
class ProbabilityBounds:
    """Narrow-band, envelope-matched limits of the channel probabilities."""

    reflection_max: float
    splitting_max: float
    transmission_min: float


def probability_bounds(coupling: CouplingSpec) -> ProbabilityBounds:
    """Resonant saturation values for a matched, narrow incoming pair.

    ``reflection_max = 4 r(++) r(--) / total^2`` and ``splitting_max =
    8 r(++) r(+-) / total^2``; the transmitted probability cannot drop below
    one minus the other two.  Isotropic rates give (1/4, 1/2, 1/4).
    """
    g = coupling.total_rate
    r = 4.0 * coupling.rate(DirectionPair.PP) * coupling.rate(DirectionPair.MM) / g ** 2
    s = 8.0 * coupling.rate(DirectionPair.PP) * coupling.rate(DirectionPair.PM) / g ** 2
    return ProbabilityBounds(r, s, 1.0 - r - s)


def gaussian_closed_form(coupling: CouplingSpec, sigma: float,
                         omega1: float, omega2: float,
                         grid: FrequencyGrid) -> GridState:
    """Closed-form outgoing state for a Gaussian pair on the ++ channel.

    The incoming state is the normalized product of a Gaussian sum factor
    centered at ``omega1 + omega2`` and a folded Gaussian difference factor
    centered at ``omega1 - omega2``, both of intensity standard deviation
    ``sigma``.  With a Gaussian envelope of width ``beta`` every integral is
    elementary and the outgoing channel amplitudes are

        C_in * delta[mu, ++] - sqrt(rate(mu) rate(++)) * kappa * f(obar)
              * u(delta) / (total/2 + i (omega0 - obar)),

    with the envelope overlap
    ``kappa = A (2/(pi beta^2))^{1/4} 2 sigma beta sqrt(pi/(sigma^2+beta^2))
    exp(-(omega1-omega2)^2 / (4 (sigma^2+beta^2)))`` and ``A`` the folded
    difference normalization.  The resonance half width is ``total/2``; the
    on-resonance peak equals the quadrature result by construction.
    """
    if coupling.envelope.kind is not EnvelopeKind.GAUSSIAN:
        raise UnsupportedConfigurationError(
            "closed form requires a Gaussian envelope")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    beta = coupling.envelope.width
    sum_center = omega1 + omega2
    diff_center = omega1 - omega2
    state = gaussian_biphoton(DirectionPair.PP, sum_center, sigma, diff_center)

    s2 = sigma * sigma
    fold_mass = sigma * math.sqrt(2.0 * math.pi) \
        * (1.0 + math.exp(-diff_center * diff_center / (2.0 * s2)))
    amp_fold = 1.0 / math.sqrt(fold_mass)
    kappa = amp_fold * (2.0 / (math.pi * beta * beta)) ** 0.25 \
        * 2.0 * sigma * beta * math.sqrt(math.pi / (s2 + beta * beta)) \
        * math.exp(-diff_center * diff_center / (4.0 * (s2 + beta * beta)))

    data = state.on_grid(grid).data.copy()
    u = coupling.envelope(grid.delta).real
    f = np.asarray(state.f(grid.omegabar), dtype=complex)
    drive = kappa * math.sqrt(coupling.rate(DirectionPair.PP)) * f \
        / resonance_denominator(coupling.total_rate, coupling.omega0,
                                grid.omegabar)
    for pair in PAIRS:
        data[pair.index] = data[pair.index] \
            - math.sqrt(coupling.rate(pair)) * drive[:, None] * u[None, :]
    return GridState(grid, data, validate=False)


@dataclass(frozen=True)
class ReflectionSweep:
    """Reflection probability versus envelope-to-input width ratio."""

    alpha: float
    ratios: np.ndarray
    total_rates: np.ndarray
    reflection: np.ndarray  # shape (len(total_rates), len(ratios))


def reflection_sweep(alpha: float, ratios: Sequence[float],
                     total_rates: Sequence[float],
                     omega0: float = 1.0) -> ReflectionSweep:
    """Sweep the -- probability for matched-center Gaussian pairs.

    For each total rate and each width ratio ``beta / alpha`` an isotropic
    Gaussian coupling is built and a resonant Gaussian pair of intensity
    width ``alpha`` is scattered through the semi-analytic path.  The
    reflection is largest at ratio one (matched filtering) and its peak
    grows toward 1/4 as the rate dominates the input bandwidth.
    """
    ratios = np.asarray(ratios, dtype=float)
    total_rates = np.asarray(total_rates, dtype=float)
    if np.any(ratios <= 0) or np.any(total_rates <= 0):
        raise ValueError("ratios and rates must be positive")
    table = np.empty((total_rates.size, ratios.size))
    for i, g in enumerate(total_rates):
        for j, ratio in enumerate(ratios):
            coupling = CouplingSpec.isotropic(
                g, Envelope.gaussian(ratio * alpha), omega0)
            state = gaussian_biphoton(DirectionPair.PP, omega0, alpha)
            probs = channel_probabilities(scatter(coupling, state))
            table[i, j] = probs.reflection
    return ReflectionSweep(alpha, ratios, total_rates, table)
