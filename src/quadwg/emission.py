"""Spontaneous pair emission from the initially excited emitter.

An excited emitter decays by releasing one photon pair.  The long-time pair
amplitude factorizes into a Lorentzian line in the sum frequency and the
coupling envelope in the difference frequency:

    A[pair](obar, delta) = i sqrt(rate(pair) / (2 pi)) conj(u)(delta)
                           / (total_rate / 2 - i (obar - omega0)).

Summed over the four direction channels and integrated over the half plane
this carries unit probability.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import UndefinedCorrelationError
from .spectral import (
    PAIRS,
    CouplingSpec,
    DirectionPair,
    FrequencyGrid,
    GridState,
    _check_emission_grid,
    _first_alike,
    _total_probability,
    _row_chunks,
    resonance_denominator,
)

__all__ = [
    "excited_amplitude",
    "emitted_amplitude",
    "default_emission_grid",
    "EmissionSpectrum",
    "joint_spectrum",
    "pearson_correlation",
]


def excited_amplitude(coupling: CouplingSpec, times):
    """Excited-state amplitude ``exp(-i omega0 t) exp(-total_rate t / 2)``.

    Valid for ``t >= 0`` with the emitter excited at ``t = 0``; earlier
    times return zero.
    """
    t = np.asarray(times, dtype=float)
    out = np.exp(-1j * coupling.omega0 * t - 0.5 * coupling.total_rate * t)
    return np.where(t >= 0, out, 0.0)


def _amplitude_factors(coupling: CouplingSpec, pair: DirectionPair,
                       omegabar, delta):
    """The two factors of ``emitted_amplitude``, whose product it is: the
    sum-frequency factor ``i sqrt(rate(pair) / (2 pi))`` times the line on
    ``omegabar``, and the difference factor ``conj(u)`` on ``delta``.

    A slice of the first times the second has the bits of the same slice
    of the product, so a caller can form any rows of a channel block from
    factors taken once over the whole axes.
    """
    line = 1.0 / resonance_denominator(coupling.total_rate, coupling.omega0,
                                       omegabar)
    return (1j * math.sqrt(coupling.rate(pair) / (2.0 * math.pi)) * line,
            np.conj(coupling.envelope(delta)))


def emitted_amplitude(coupling: CouplingSpec, pair: DirectionPair,
                      omegabar, delta):
    """Long-time emitted pair amplitude on one direction channel."""
    line, u = _amplitude_factors(coupling, pair, omegabar, delta)
    return line * u


def default_emission_grid(coupling: CouplingSpec,
                          n_omegabar: int = 1024,
                          n_delta: int = 512) -> FrequencyGrid:
    """Standard emission window.

    Sum axis: ten linewidths around resonance.  Difference axis: ten
    envelope widths (sampled extent for tabulated envelopes).  Kept
    deliberately tight so that window-defined quantities like the
    frequency correlation have a fixed, documented meaning.  Warns when
    it is too coarse for the total emission probability (spectral's
    ``_check_emission_grid``).
    """
    grid = FrequencyGrid.for_scattering(coupling, 0.0, n_omegabar, n_delta,
                                        halfwidth_rates=10.0)
    _check_emission_grid(grid, coupling)
    return grid


def pearson_correlation(grid: FrequencyGrid, density: np.ndarray) -> float:
    """Pearson correlation of the two photon frequencies under ``density``.

    ``density`` is a joint intensity on the half-plane grid.  With
    ``omega = (obar - delta) / 2`` and ``omega' = (obar + delta) / 2`` the
    exchange-symmetrized correlation reduces to

        r = (Var(obar) - Var(delta)) / (Var(obar) + Var(delta)),

    because evenness in ``delta`` kills the cross covariance.  Moments are
    taken over the stored window; for heavy-tailed spectra the window is
    part of the reported quantity.
    """
    density = np.asarray(density, dtype=float)
    return _window_summaries(grid, lambda rows: density[rows])[1]


def _window_summaries(grid: FrequencyGrid,
                      density: Callable[[slice], np.ndarray],
                      chunks: Sequence[slice] = (slice(None),)
                      ) -> tuple[float, float]:
    """Window integral of the joint intensity ``density(rows)`` and its
    ``pearson_correlation``; a window with no weight, or no spread, raises
    ``UndefinedCorrelationError``.

    ``density(rows)`` is the intensity on the sum-frequency ``rows``, asked
    for each slice of ``chunks`` in turn (by default one of every row), so
    no array of the whole grid need exist.  ``grid.integrate`` takes its
    inner trapezoids along rows, so row integrals of ``density`` times 1,
    ``obar`` and ``delta**2`` a chunk at a time, then one trapezoid over
    ``obar``, have its bits.  ``Var(obar)`` needs the mean
    first: a second pass over the chunks.
    """
    ob, dd2 = grid.omegabar, grid.delta ** 2
    # Row integrals of density times 1, obar, delta**2 and (obar - mean)**2.
    inner = np.empty((4, ob.size))
    for rows in chunks:
        part = density(rows)
        inner[0, rows] = grid.integrate_delta(part)
        inner[1, rows] = grid.integrate_delta(part * ob[rows, None])
        inner[2, rows] = grid.integrate_delta(part * dd2)
    mass = float(np.trapezoid(inner[0], ob))
    if not mass > 0:
        raise UndefinedCorrelationError("density carries no weight")
    mean_ob = float(np.trapezoid(inner[1], ob)) / mass
    for rows in chunks:
        inner[3, rows] = grid.integrate_delta(
            density(rows) * (ob[rows, None] - mean_ob) ** 2)
    var_ob = float(np.trapezoid(inner[3], ob)) / mass
    # Half-line moments of an even density equal the full-line ones.
    var_dd = float(np.trapezoid(inner[2], ob)) / mass
    denom = var_ob + var_dd
    if not denom > 0:
        raise UndefinedCorrelationError("density has no spread")
    return mass, (var_ob - var_dd) / denom


def _channel_sum(block: Callable[[DirectionPair], np.ndarray],
                 first: Sequence[int]) -> np.ndarray:
    """Sum of ``|block(pair)|**2`` over the channels, added in channel order
    as ``np.sum(..., axis=0)`` adds the channels of a stacked array, with
    its bits, NaN payloads included: each sum is a new ``total + term``,
    whose first operand's payload numpy keeps as the stacked sum does
    (an in-place add keeps the second's).

    ``block`` maps each pair to its channel block, or to the same rows of
    each block.  ``first[i]`` is the index of the first channel whose
    block has the bits of channel ``i``'s (``EmissionSpectrum._first``):
    the square of each distinct block is taken once, and kept only while
    a later channel adds it again.
    """
    kept = {}
    total = None
    for i, pair in enumerate(PAIRS):
        source = first[i]
        term = kept.pop(source, None)
        if term is None:
            term = np.abs(block(pair)) ** 2
        if source in first[i + 1:]:
            kept[source] = term
        total = term if total is None else total + term
    return total


@dataclass(frozen=True)
class EmissionSpectrum:
    """Channel-resolved emission amplitudes on a half-plane grid, kept as
    each channel's two ``_amplitude_factors`` over the whole axes.

    Channels whose factors have the same bits have blocks with the same
    bits (isotropic rates make all four alike, mirror rates the three
    empty ones); ``_first`` records, for each channel, the first channel
    with its factors, so that the channel-summed density squares each
    distinct block once.
    """

    coupling: CouplingSpec
    grid: FrequencyGrid
    _factors: tuple = field(init=False, repr=False, compare=False)
    _first: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ob, dd = self.grid.omegabar[:, None], self.grid.delta[None, :]
        factors = tuple(_amplitude_factors(self.coupling, pair, ob, dd)
                        for pair in PAIRS)
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_first", _first_alike(
            [np.concatenate([f.ravel() for f in pair]) for pair in factors]))

    def block(self, pair: DirectionPair, rows=slice(None)) -> np.ndarray:
        """Amplitudes of channel ``pair`` on the sum-frequency ``rows``."""
        line, u = self._factors[pair.index]
        return line[rows] * u

    @property
    def data(self) -> np.ndarray:
        """The ``(4, n_omegabar, n_delta)`` amplitudes, built on request."""
        return np.stack([self.block(pair) for pair in PAIRS])

    def channel(self, pair: DirectionPair) -> np.ndarray:
        return self.block(pair)

    def density(self, pair: DirectionPair) -> np.ndarray:
        return np.abs(self.block(pair)) ** 2

    def total_density(self, rows=slice(None)) -> np.ndarray:
        """Channel-summed density on the sum-frequency ``rows``, with the
        bits of ``np.sum(np.abs(data[:, rows]) ** 2, axis=0)``; each
        distinct channel block is formed and squared once."""
        return _channel_sum(lambda pair: self.block(pair, rows), self._first)

    def state(self) -> GridState:
        return GridState(self.grid, self.data)

    def sum_marginal(self) -> np.ndarray:
        """Channel-summed density integrated over the difference axis."""
        return self.grid.integrate_delta(self.total_density())

    def difference_marginal(self) -> np.ndarray:
        """Channel-summed density integrated over the sum axis."""
        return np.trapezoid(self.total_density(), self.grid.omegabar, axis=0)

    @functools.cached_property
    def _summaries(self) -> tuple[float, float]:
        """``_window_summaries`` of ``total_density`` over the row chunks."""
        return _window_summaries(self.grid, self.total_density,
                                 _row_chunks(self.grid))

    def total_probability(self) -> float:
        """Window integral rescaled by the analytically known tail mass.

        The emitted density is an exact product of a Lorentzian line and
        the envelope intensity, so the fraction of it inside the stored
        window is the product of two one-dimensional masses.  Dividing the
        trapezoid result by it recovers the full-plane value, one for a
        complete record; a window with no weight raises
        ``UndefinedCorrelationError``."""
        return _total_probability(self.coupling, self.grid, self._summaries[0])

    def spectrum_correlation(self) -> float:
        """Pearson correlation of the two photon frequencies.

        Positive when the sum-frequency line is broad compared to the
        envelope (frequencies move together), negative when the envelope
        dominates (frequencies anticorrelate about the fixed sum).
        """
        return self._summaries[1]


def joint_spectrum(coupling: CouplingSpec,
                   grid: FrequencyGrid | None = None) -> EmissionSpectrum:
    """The emitted pair amplitudes on ``grid``.

    The default window spans ten linewidths around resonance and ten
    envelope widths in the difference frequency; pass an explicit grid to
    override.  Heavy-tailed envelopes put real weight outside any finite
    window, so window-dependent quantities are quoted on the stored grid
    while ``total_probability`` removes the truncation analytically.
    """
    if grid is None:
        grid = default_emission_grid(coupling)
    return EmissionSpectrum(coupling, grid)
