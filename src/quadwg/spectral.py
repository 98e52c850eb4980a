"""Spectral building blocks: directions, envelopes, couplings, grids, states.

Conventions used throughout the package
---------------------------------------
A single two-level emitter of frequency ``omega0`` exchanges photon *pairs*
with a one-dimensional waveguide.  Pair amplitudes are stored as functions of
the sum frequency ``obar = omega + omega_prime`` and the difference frequency
``delta = omega_prime - omega``.  Amplitudes are kept on the half plane
``delta >= 0``; the ``delta < 0`` content follows from the evenness of the
coupling, ``C(obar, -delta) = C(obar, delta)``, and cross channels satisfy
``C[+-] == C[-+]`` pointwise in this representation.

With the Jacobian ``d omega d omega_prime = (1/2) d obar d delta`` over the
full difference line, folding onto ``delta >= 0`` cancels the 1/2, so the
squared norm of a state is

    sum_channels  Int d obar  Int_0^inf d delta  |C(obar, delta)|^2  =  1.

The coupling factorizes as ``g(pair, delta) = sqrt(rate(pair) / 2 pi) *
u(delta)`` where the envelope ``u`` is even and carries unit mass on the half
line, ``Int_0^inf |u|^2 d delta = 1`` (hence 2 on the full line).  The total
emission rate is the plain sum of the four directional rates.

All frequencies are quoted in units of ``omega0`` unless stated otherwise.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import RegularGridInterpolator

from .errors import (
    InvalidEnvelopeError,
    InvalidStateError,
    MarkovValidityWarning,
    TruncationWarning,
)

__all__ = [
    "DirectionPair",
    "Envelope",
    "CouplingSpec",
    "FrequencyGrid",
    "SeparableState",
    "GridState",
    "gaussian_sum_spectrum",
    "gaussian_difference_profile",
    "project_on_envelope",
    "decompose",
]

# Adaptive quadrature targets used for every one-dimensional integral.
QUAD_EPSABS = 1.0e-12
QUAD_EPSREL = 1.0e-10

# Fraction of half-line envelope mass a grid must keep before a
# TruncationWarning is issued.
ENVELOPE_COVER_FRACTION = 0.999


class DirectionPair(enum.Enum):
    """Ordered pair of propagation directions for the two photons."""

    PP = "++"
    PM = "+-"
    MP = "-+"
    MM = "--"

    @property
    def index(self) -> int:
        return _PAIR_INDEX[self]

    @property
    def swapped(self) -> "DirectionPair":
        return DirectionPair(self.value[::-1])

    @classmethod
    def from_string(cls, text: str) -> "DirectionPair":
        try:
            return cls(text)
        except ValueError:
            raise ValueError(f"unknown direction pair {text!r}") from None


_PAIR_INDEX = {
    DirectionPair.PP: 0,
    DirectionPair.PM: 1,
    DirectionPair.MP: 2,
    DirectionPair.MM: 3,
}

PAIRS: tuple[DirectionPair, ...] = (
    DirectionPair.PP,
    DirectionPair.PM,
    DirectionPair.MP,
    DirectionPair.MM,
)


class EnvelopeKind(enum.Enum):
    GAUSSIAN = "gaussian"
    LORENTZIAN = "lorentzian"
    TABULATED = "tabulated"


def _linear_masses(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact ``Int |u|^2`` over each segment of the linear interpolant of
    samples ``v`` at ``d``: ``h/3 (|a|^2 + Re(a conj(b)) + |b|^2)``."""
    a, b = v[:-1], v[1:]
    return np.diff(d) / 3.0 * (np.abs(a) ** 2 + (a * np.conj(b)).real
                               + np.abs(b) ** 2)


@dataclass(frozen=True)
class Envelope:
    """Even difference-frequency envelope with half-line mass one.

    Analytic kinds:

    * gaussian:   ``u(delta) = (2 / (pi width^2))^{1/4} exp(-delta^2 / (4 width^2))``,
      so ``|u|^2`` is a Gaussian of variance ``width^2`` and mass 2 on the
      full line.  Its full width at half maximum is ``2 width sqrt(2 ln 2)``.
    * lorentzian: ``|u(delta)|^2 = (width / pi) / (width^2 / 4 + delta^2)``,
      a Lorentzian of full width ``width`` at half maximum, mass 2.

    Tabulated envelopes interpolate linearly between samples on
    ``delta >= 0``, are zero outside the sampled range, and are renormalized
    at construction so the interpolant's half-line mass is exactly one.
    """

    kind: EnvelopeKind
    width: float = 0.0
    deltas: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind is EnvelopeKind.TABULATED:
            if self.deltas is None or self.values is None:
                raise InvalidEnvelopeError("tabulated envelope needs samples")
            d = np.asarray(self.deltas, dtype=float)
            v = np.asarray(self.values, dtype=complex)
            if d.ndim != 1 or d.size < 2 or v.shape != d.shape:
                raise InvalidEnvelopeError(
                    "tabulated envelope needs at least two matching samples"
                )
            if np.any(np.diff(d) <= 0) or d[0] < 0:
                raise InvalidEnvelopeError(
                    "tabulated deltas must be increasing and nonnegative"
                )
            mass = float(np.sum(_linear_masses(d, v)))
            if not mass > 0:
                raise InvalidEnvelopeError("tabulated envelope has zero mass")
            object.__setattr__(self, "deltas", d)
            object.__setattr__(self, "values", v / math.sqrt(mass))
        else:
            if not math.isfinite(self.width):
                raise InvalidEnvelopeError(
                    f"envelope width must be finite, got {self.width!r}")
            if not self.width > 0:
                raise InvalidEnvelopeError("envelope width must be positive")
            if self.width * self.width == 0.0:
                raise InvalidEnvelopeError(
                    f"envelope width {self.width!r} is too small:"
                    " its square underflows")
            with np.errstate(divide="ignore", over="ignore"):
                if not np.isfinite(self(0.0)):
                    raise InvalidEnvelopeError(
                        f"envelope width {self.width!r} is too small:"
                        " its peak density overflows")

    @classmethod
    def gaussian(cls, width: float) -> "Envelope":
        return cls(EnvelopeKind.GAUSSIAN, width=float(width))

    @classmethod
    def lorentzian(cls, width: float) -> "Envelope":
        return cls(EnvelopeKind.LORENTZIAN, width=float(width))

    @classmethod
    def tabulated(cls, deltas: Sequence[float], values: Sequence[complex]) -> "Envelope":
        return cls(EnvelopeKind.TABULATED, deltas=np.asarray(deltas, float),
                   values=np.asarray(values, complex))

    def __call__(self, delta):
        """Evaluate ``u`` at ``delta``; even in ``delta``, vectorized."""
        delta = np.abs(np.asarray(delta, dtype=float))
        if self.kind is EnvelopeKind.GAUSSIAN:
            b = self.width
            out = (2.0 / (math.pi * b * b)) ** 0.25 * np.exp(-(delta * delta) / (4 * b * b))
            return out.astype(complex)
        if self.kind is EnvelopeKind.LORENTZIAN:
            b = self.width
            out = np.sqrt((b / math.pi) / (b * b / 4 + delta * delta))
            return out.astype(complex)
        re = np.interp(delta, self.deltas, self.values.real, left=0.0, right=0.0)
        im = np.interp(delta, self.deltas, self.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    def squared_norm(self) -> float:
        """Full-line mass ``Int |u|^2 d delta``; equals 2 by construction."""
        if self.kind is EnvelopeKind.TABULATED:
            return 2.0 * float(np.sum(_linear_masses(self.deltas, self.values)))
        val, _ = quad(lambda d: abs(self(d)) ** 2, 0.0, np.inf,
                      **_quad_options(0.0, np.inf))
        return 2.0 * val

    def half_line_mass(self, delta_max: float) -> float:
        """Envelope mass ``Int_0^X |u|^2 d delta`` kept below ``delta_max``."""
        if self.kind is EnvelopeKind.GAUSSIAN:
            return math.erf(delta_max / (self.width * math.sqrt(2.0)))
        if self.kind is EnvelopeKind.LORENTZIAN:
            return (2.0 / math.pi) * math.atan(2.0 * delta_max / self.width)
        d, v = self.deltas, self.values
        if delta_max <= d[0]:
            return 0.0
        if delta_max >= d[-1]:
            return 1.0
        # The samples below delta_max, with the last segment cut there.
        k = int(np.searchsorted(d, delta_max, side="right"))
        return float(np.sum(_linear_masses(np.append(d[:k], delta_max),
                                           np.append(v[:k], self(delta_max)))))

    def fwhm(self) -> float:
        """Full width at half maximum of ``|u|^2``."""
        if self.kind is EnvelopeKind.GAUSSIAN:
            return 2.0 * self.width * math.sqrt(2.0 * math.log(2.0))
        if self.kind is EnvelopeKind.LORENTZIAN:
            return self.width
        # |u|^2 of the linear interpolant is a convex quadratic on each
        # segment, so its peak sits at a sample and each segment crosses
        # half the peak at most once on the way down.
        v = np.abs(self.values) ** 2
        k = int(np.argmax(v))
        half = float(v[k]) / 2.0
        below = np.nonzero(v[k:] < half)[0]
        if below.size == 0:
            return 2.0 * float(self.deltas[-1])
        j = k + int(below[0])
        a = complex(self.values[j - 1])
        c = complex(self.values[j]) - a
        # Smaller root of |c|^2 t^2 + 2 Re(a conj c) t + |a|^2 - half on
        # [0, 1), written without cancellation: the linear term is negative.
        qa = abs(c) ** 2
        qb = 2.0 * (a * c.conjugate()).real
        qc = abs(a) ** 2 - half
        t = 2.0 * qc / (-qb + math.sqrt(qb * qb - 4.0 * qa * qc))
        d0, d1 = float(self.deltas[j - 1]), float(self.deltas[j])
        return 2.0 * (d0 + t * (d1 - d0))


@dataclass(frozen=True)
class CouplingSpec:
    """Emitter frequency, directional pair rates, and shared envelope.

    ``rates`` maps each ordered direction pair (a ``DirectionPair`` or its
    string value such as ``"++"``) to its finite, nonnegative emission
    rate; the two cross pairs must carry equal rates.  The total rate is the
    plain sum of the four entries.  A warning is issued when the total rate
    exceeds 5 percent of the emitter frequency, where the flat-band treatment
    degrades.
    """

    omega0: float
    rates: Mapping[DirectionPair, float]
    envelope: Envelope

    def __post_init__(self) -> None:
        if not math.isfinite(self.omega0):
            raise ValueError(f"omega0 must be finite, got {self.omega0!r}")
        if not self.omega0 > 0:
            raise ValueError("emitter frequency must be positive")
        table: dict[DirectionPair, float] = {}
        for key, value in self.rates.items():
            pair = DirectionPair(key)
            if pair in table:
                raise ValueError(f"rates[{pair.value!r}] is given twice")
            if not math.isfinite(value):
                raise ValueError(
                    f"rates[{pair.value!r}] must be finite, got {value!r}")
            table[pair] = value
        pm = table.get(DirectionPair.PM)
        mp = table.get(DirectionPair.MP)
        if pm is None and mp is not None:
            table[DirectionPair.PM] = mp
        if mp is None and pm is not None:
            table[DirectionPair.MP] = pm
        for pair in PAIRS:
            table.setdefault(pair, 0.0)
        if table[DirectionPair.PM] != table[DirectionPair.MP]:
            raise ValueError("cross-direction rates must be equal")
        if any(v < 0 for v in table.values()):
            raise ValueError("rates must be nonnegative")
        total = sum(table.values())
        if not total > 0:
            raise ValueError("at least one rate must be positive")
        object.__setattr__(self, "rates", table)
        if total > 0.05 * self.omega0:
            warnings.warn(
                "total rate exceeds 5% of the emitter frequency; the "
                "flat-band approximation may be inaccurate",
                MarkovValidityWarning,
                stacklevel=2,
            )

    @classmethod
    def isotropic(cls, total_rate: float, envelope: Envelope,
                  omega0: float = 1.0) -> "CouplingSpec":
        r = total_rate / 4.0
        return cls(omega0, {p: r for p in PAIRS}, envelope)

    @classmethod
    def mirror(cls, total_rate: float, envelope: Envelope,
               omega0: float = 1.0) -> "CouplingSpec":
        """Semi-infinite (chiral) coupling: all weight on the ++ pair."""
        return cls(omega0, {DirectionPair.PP: total_rate}, envelope)

    @property
    def total_rate(self) -> float:
        return float(sum(self.rates.values()))

    def rate(self, pair: DirectionPair) -> float:
        return float(self.rates[pair])

    def sqrt_rates(self) -> np.ndarray:
        """Vector ``sqrt(rate(pair))`` ordered by pair index."""
        return np.array([math.sqrt(self.rates[p]) for p in PAIRS])


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform rectangular grid over ``(obar, delta)`` with ``delta[0] = 0``."""

    omegabar: np.ndarray
    delta: np.ndarray

    def __post_init__(self) -> None:
        ob = np.asarray(self.omegabar, dtype=float)
        dd = np.asarray(self.delta, dtype=float)
        for name, axis in (("omegabar", ob), ("delta", dd)):
            if axis.ndim != 1 or axis.size < 2:
                raise ValueError(f"{name} axis needs at least two points")
            steps = np.diff(axis)
            if np.any(steps <= 0):
                raise ValueError(f"{name} axis must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
                raise ValueError(f"{name} axis must be uniform")
        if abs(dd[0]) > 1e-15 * max(1.0, dd[-1]):
            raise ValueError("delta axis must start at zero")
        object.__setattr__(self, "omegabar", ob)
        object.__setattr__(self, "delta", dd)

    @classmethod
    def regular(cls, center: float, halfwidth: float, delta_max: float,
                n_omegabar: int = 2048, n_delta: int = 1024) -> "FrequencyGrid":
        return cls(
            np.linspace(center - halfwidth, center + halfwidth, n_omegabar),
            np.linspace(0.0, delta_max, n_delta),
        )

    @classmethod
    def for_scattering(cls, coupling: CouplingSpec, input_width: float = 0.0,
                       n_omegabar: int = 2048, n_delta: int = 1024,
                       halfwidth_rates: float = 20.0) -> "FrequencyGrid":
        """Default scattering window: 20 total rates around resonance, and a
        difference axis spanning the larger of ten input widths and the
        envelope reach (ten widths of an analytic envelope, the last sample
        of a tabulated one)."""
        g = coupling.total_rate
        span = max(_envelope_reach(coupling.envelope), 10.0 * input_width)
        return cls.regular(coupling.omega0, halfwidth_rates * g, span,
                           n_omegabar, n_delta)

    @property
    def d_omegabar(self) -> float:
        return float(self.omegabar[1] - self.omegabar[0])

    @property
    def d_delta(self) -> float:
        return float(self.delta[1] - self.delta[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.omegabar.size, self.delta.size)

    def integrate_delta(self, values: np.ndarray) -> np.ndarray:
        """Trapezoid over the difference axis (last axis)."""
        return np.trapezoid(values, self.delta, axis=-1)

    def integrate(self, values: np.ndarray) -> float | np.ndarray:
        """Trapezoid over both axes (last two axes)."""
        inner = np.trapezoid(values, self.delta, axis=-1)
        return np.trapezoid(inner, self.omegabar, axis=-1)

    def same_axes(self, other: "FrequencyGrid") -> bool:
        return (self.omegabar.shape == other.omegabar.shape
                and self.delta.shape == other.delta.shape
                and np.array_equal(self.omegabar, other.omegabar)
                and np.array_equal(self.delta, other.delta))


def resonance_denominator(total_rate: float, omega0: float, omegabar):
    """Emitter pole ``total_rate / 2 + i (omega0 - obar)``, vectorized in ``obar``.

    Pair scattering, pair emission and the mirror gate all divide by it.
    """
    omegabar = np.asarray(omegabar, dtype=float)
    return total_rate / 2.0 + 1j * (omega0 - omegabar)


def _quad_options(a: float, b: float,
                  points: Sequence[float] | None = None) -> dict:
    """``quad`` keywords over ``[a, b]``: tolerances, subdivision limit, and
    the break points strictly inside a finite interval."""
    kw = dict(epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=400)
    if points is not None and np.isfinite(a) and np.isfinite(b):
        pts = [p for p in points if a < p < b]
        if pts:
            kw["points"] = pts
    return kw


def _complex_quad(fn: Callable[[float], complex], a: float, b: float,
                  points: Sequence[float] | None = None) -> complex:
    kw = _quad_options(a, b, points)
    # ``.real`` on a scalar is several times cheaper than ``np.real``.
    re, _ = quad(lambda x: fn(x).real, a, b, **kw)
    im, _ = quad(lambda x: fn(x).imag, a, b, **kw)
    return re + 1j * im


@dataclass
class SeparableState:
    """Product state ``C(obar, delta) = scale * f(obar) h(delta)``.

    ``f`` and ``h`` are vectorized callables; ``h`` lives on the half line
    ``delta >= 0``.  ``f_window`` and ``h_window`` are finite intervals that
    contain essentially all of the respective mass and serve as quadrature
    windows.  The amplitude fills ``channels``: ``channel`` itself and, for
    a cross pair, its swapped twin.  With ``scale=None`` the scale is chosen
    at construction so that the state has unit norm; a given ``scale`` is
    used as is.
    """

    channel: DirectionPair
    f: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    f_window: tuple[float, float]
    h_window: tuple[float, float]
    scale: complex | None = None
    # (Int |f|^2, Int |h|^2) of the unscaled factors, filled on first use;
    # valid because f, h and the windows are never reassigned.
    _masses: tuple[float, float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo, hi = self.h_window
        self.h_window = (max(0.0, lo), hi)
        if self.scale is None:
            nf, nh = self._factor_masses()
            if nf <= 0 or nh <= 0:
                raise InvalidStateError("separable state has zero norm")
            self.scale = 1.0 / math.sqrt(nf * nh * len(self.channels))

    @property
    def channels(self) -> tuple[DirectionPair, ...]:
        """Populated channels: ++ or -- alone, a cross pair with its twin."""
        swapped = self.channel.swapped
        return (self.channel,) if swapped is self.channel \
            else (self.channel, swapped)

    @staticmethod
    def _factor_mass(fn, window) -> float:
        lo, hi = window
        val, _ = quad(lambda x: abs(fn(x)) ** 2, lo, hi,
                      **_quad_options(lo, hi, [0.5 * (lo + hi)]))
        return val

    def _factor_masses(self) -> tuple[float, float]:
        if self._masses is None:
            self._masses = (self._factor_mass(self.f, self.f_window),
                            self._factor_mass(self.h, self.h_window))
        return self._masses

    def norm_squared(self) -> float:
        nf, nh = self._factor_masses()
        return abs(self.scale) ** 2 * nf * nh * len(self.channels)

    def amplitude(self, pair: DirectionPair, omegabar, delta) -> np.ndarray:
        omegabar = np.asarray(omegabar, dtype=float)
        delta = np.asarray(delta, dtype=float)
        out = self.scale * np.asarray(self.f(omegabar), dtype=complex) \
            * np.asarray(self.h(delta), dtype=complex)
        if pair not in self.channels:
            return np.zeros_like(out)
        return out

    def on_grid(self, grid: FrequencyGrid) -> "GridState":
        fvals = self.scale * np.asarray(self.f(grid.omegabar), dtype=complex)
        hvals = np.asarray(self.h(grid.delta), dtype=complex)
        values = fvals[:, None] * hvals[None, :]
        data = np.zeros((4,) + values.shape, dtype=complex)
        for pair in self.channels:
            data[pair.index] = values
        return GridState(grid, data, validate=False)

    def overlap_with_envelope(self, envelope: Envelope) -> complex:
        """Half-line overlap ``Int_0^inf u(delta) C_h(delta) d delta`` where
        ``C_h`` is the scaled difference factor of this state."""
        lo, hi = self.h_window
        if envelope.kind is EnvelopeKind.TABULATED:
            hi = min(hi, float(envelope.deltas[-1]))
        if hi <= lo:
            return 0.0 + 0.0j
        mid = 0.5 * (lo + hi)
        val = _complex_quad(lambda d: envelope(d) * self.h(d), lo, hi, points=[mid])
        return self.scale * val


@dataclass
class GridState:
    """Grid state holding all four channel amplitude tables.

    ``data`` has shape ``(4, n_omegabar, n_delta)`` indexed by
    ``DirectionPair.index``.  The half-plane exchange symmetry requires the
    two cross-channel tables to agree.
    """

    grid: FrequencyGrid
    data: np.ndarray
    validate: bool = True

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=complex)
        expect = (4, self.grid.omegabar.size, self.grid.delta.size)
        if data.shape != expect:
            raise InvalidStateError(f"grid data must have shape {expect}")
        self.data = data
        if self.validate:
            pm = data[DirectionPair.PM.index]
            mp = data[DirectionPair.MP.index]
            scale = float(np.max(np.abs(data))) or 1.0
            if np.max(np.abs(pm - mp)) > 1e-8 * scale:
                raise InvalidStateError(
                    "cross channels must agree in the half-plane representation"
                )

    def channel(self, pair: DirectionPair) -> np.ndarray:
        return self.data[pair.index]

    def norm_squared(self) -> float:
        return float(sum(self.grid.integrate(np.abs(self.data[i]) ** 2)
                         for i in range(4)))

    def amplitude(self, pair: DirectionPair, omegabar, delta) -> np.ndarray:
        interp_re = RegularGridInterpolator(
            (self.grid.omegabar, self.grid.delta), self.data[pair.index].real,
            bounds_error=False, fill_value=0.0)
        interp_im = RegularGridInterpolator(
            (self.grid.omegabar, self.grid.delta), self.data[pair.index].imag,
            bounds_error=False, fill_value=0.0)
        omegabar = np.asarray(omegabar, dtype=float)
        delta = np.asarray(delta, dtype=float)
        pts = np.broadcast_arrays(omegabar, delta)
        stack = np.stack([p.ravel() for p in pts], axis=-1)
        vals = interp_re(stack) + 1j * interp_im(stack)
        return vals.reshape(pts[0].shape)

    def on_grid(self, grid: FrequencyGrid) -> "GridState":
        if self.grid.same_axes(grid):
            return self
        data = np.empty((4, grid.omegabar.size, grid.delta.size), dtype=complex)
        ob, dd = np.meshgrid(grid.omegabar, grid.delta, indexing="ij")
        for pair in PAIRS:
            data[pair.index] = self.amplitude(pair, ob, dd)
        return GridState(grid, data, validate=False)


def _width_squared(sigma: float) -> float:
    """Square of a Gaussian width, rejecting widths whose square underflows."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    s2 = sigma * sigma
    if not s2 > 0:
        raise ValueError(f"sigma {sigma!r} is too small: its square underflows")
    return s2


def gaussian_sum_spectrum(center: float, sigma: float):
    """Normalized Gaussian sum-frequency factor.

    ``f(obar) = (2 pi sigma^2)^{-1/4} exp(-(obar - center)^2 / (4 sigma^2))``
    with ``Int |f|^2 d obar = 1``; the intensity ``|f|^2`` has standard
    deviation ``sigma``.  Returns ``(callable, window)``.
    """
    _width_squared(sigma)  # rejects widths whose square underflows
    amp = (2.0 * math.pi * sigma * sigma) ** -0.25

    def f(obar):
        obar = np.asarray(obar, dtype=float)
        return amp * np.exp(-((obar - center) ** 2) / (4.0 * sigma * sigma))

    return f, (center - 12.0 * sigma, center + 12.0 * sigma)


def gaussian_difference_profile(sigma: float, center: float = 0.0):
    """Normalized, folded Gaussian difference-frequency factor.

    The raw profile ``exp(-(delta - center)^2 / (4 sigma^2))`` is symmetrized
    onto the half line, ``h(delta) = A (raw(delta) + raw(-delta))``, and ``A``
    is chosen so that ``Int_0^inf |h|^2 d delta = 1``.  For ``center = 0``
    this reduces to ``(2/(pi sigma^2))^{1/4} exp(-delta^2/(4 sigma^2))``.
    Returns ``(callable, window)``.
    """
    s2 = _width_squared(sigma)
    # Half-line mass of raw(d) + raw(-d):
    #   Int_R |raw|^2 + Int_R raw(d) raw(-d) = sigma sqrt(2 pi) (1 + e^{-c^2/2s^2})
    mass = sigma * math.sqrt(2.0 * math.pi) * (1.0 + math.exp(-center * center / (2.0 * s2)))
    amp = 1.0 / math.sqrt(mass)

    def h(delta):
        delta = np.asarray(delta, dtype=float)
        return amp * (np.exp(-((delta - center) ** 2) / (4.0 * s2))
                      + np.exp(-((delta + center) ** 2) / (4.0 * s2)))

    hi = abs(center) + 12.0 * sigma
    return h, (0.0, hi)


def gaussian_biphoton(channel: DirectionPair, sum_center: float, sigma: float,
                      diff_center: float = 0.0) -> SeparableState:
    """Product of Gaussian sum and folded Gaussian difference factors."""
    f, fw = gaussian_sum_spectrum(sum_center, sigma)
    h, hw = gaussian_difference_profile(sigma, diff_center)
    return SeparableState(channel, f, h, fw, hw)


def _envelope_reach(envelope: Envelope) -> float:
    """Difference-frequency extent of a default grid: ten widths of an
    analytic envelope, the last sample of a tabulated one."""
    if envelope.kind is EnvelopeKind.TABULATED:
        return float(envelope.deltas[-1])
    return 10.0 * envelope.width


def _check_delta_cover(envelope: Envelope, delta_max: float) -> None:
    kept = envelope.half_line_mass(delta_max)
    if kept < ENVELOPE_COVER_FRACTION:
        warnings.warn(
            f"difference-frequency grid keeps only {kept:.4%} of the envelope "
            "mass; results on this grid are truncated",
            TruncationWarning,
            stacklevel=3,
        )


def project_on_envelope(state: SeparableState | GridState, envelope: Envelope,
                        pair: DirectionPair, omegabar=None):
    """Envelope overlap ``p(obar) = Int_0^inf u(delta) C(obar, delta) d delta``.

    For a separable state this is ``f(obar)`` times the scalar half-line
    overlap of ``u`` with ``h``; pass ``omegabar`` to evaluate, or omit it to
    receive a callable.  For a grid state the integral is taken by trapezoid
    along the stored difference axis and returned on the grid's sum axis.
    """
    if isinstance(state, SeparableState):
        kappa = state.overlap_with_envelope(envelope) \
            if pair in state.channels else 0.0

        def p(ob):
            return kappa * np.asarray(state.f(ob), dtype=complex)

        if omegabar is None:
            return p
        return p(np.asarray(omegabar, dtype=float))
    if isinstance(state, GridState):
        _check_delta_cover(envelope, float(state.grid.delta[-1]))
        u = envelope(state.grid.delta)
        return state.grid.integrate_delta(u[None, :] * state.channel(pair))
    raise TypeError("state must be SeparableState or GridState")


def decompose(state: SeparableState | GridState, envelope: Envelope):
    """Split a state into envelope-parallel and orthogonal parts.

    The parallel part of each channel is ``conj(u)(delta) p(obar)`` with
    ``p`` the envelope overlap; the orthogonal part is the remainder and has
    vanishing overlap with the envelope.  The two parts add back to the
    input, and their squared norms add to the input squared norm.
    """
    if isinstance(state, SeparableState):
        # kappa already carries the state's normalization scale, so the
        # parallel amplitude is kappa * f_raw(obar) * conj(u)(delta).
        # Dividing by the envelope mass inside the integration window keeps
        # the split orthogonal under the windowed inner product even for
        # slowly decaying envelopes whose tails the window cuts.
        kappa = state.overlap_with_envelope(envelope)
        hi = state.h_window[1]
        if envelope.kind is not EnvelopeKind.TABULATED:
            hi = max(hi, 12.0 * envelope.width)
        mass = envelope.half_line_mass(hi)
        coeff = kappa / mass if mass > 0 else 0.0 + 0.0j

        def h_par(delta):
            return np.conj(envelope(delta))

        def h_orth(delta, _h=state.h, _k=coeff, _s=state.scale):
            return _s * np.asarray(_h(delta), dtype=complex) \
                - _k * np.conj(envelope(delta))

        parallel = SeparableState(state.channel, state.f, h_par,
                                  state.f_window, (0.0, hi), scale=coeff)
        orthogonal = SeparableState(state.channel, state.f, h_orth,
                                    state.f_window, (0.0, hi),
                                    scale=1.0 + 0.0j)
        return parallel, orthogonal
    if isinstance(state, GridState):
        _check_delta_cover(envelope, float(state.grid.delta[-1]))
        u = envelope(state.grid.delta)
        unorm = float(state.grid.integrate_delta(
            np.abs(u)[None, :] ** 2)[0])
        par = np.empty_like(state.data)
        for pair in PAIRS:
            p = state.grid.integrate_delta(u[None, :] * state.channel(pair))
            if unorm > 0:
                p = p / unorm
            par[pair.index] = p[:, None] * np.conj(u)[None, :]
        return (GridState(state.grid, par, validate=False),
                GridState(state.grid, state.data - par, validate=False))
    raise TypeError("state must be SeparableState or GridState")
