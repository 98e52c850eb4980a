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
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ._quadpack import _lockstep, quad
from .errors import (
    InvalidEnvelopeError,
    InvalidStateError,
    MarkovValidityWarning,
    TruncationWarning,
    warn,
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

# Adaptive quadrature targets and subinterval limit used for every
# one-dimensional integral.
QUAD_EPSABS = 1.0e-12
QUAD_EPSREL = 1.0e-10
QUAD_LIMIT = 400

# Fraction of half-line envelope mass a grid must keep before a
# TruncationWarning is issued, and of a resonant input's sum intensity the
# band of a time-domain scattering run must keep.
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


PAIRS: tuple[DirectionPair, ...] = tuple(DirectionPair)
_PAIR_INDEX = {pair: i for i, pair in enumerate(PAIRS)}


class EnvelopeKind(enum.Enum):
    GAUSSIAN = "gaussian"
    LORENTZIAN = "lorentzian"
    TABULATED = "tabulated"


def _check_finite(name: str, value: float) -> None:
    """Reject a parameter ``name`` whose ``value`` is inf or nan."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


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
            # The Gaussian exponent -delta^2 / (4 b^2) is -0 at every
            # finite node, and nan beyond about 1.3e154, once 4 b^2 is inf.
            if (self.kind is EnvelopeKind.GAUSSIAN
                    and not math.isfinite(4 * self.width * self.width)):
                raise InvalidEnvelopeError(
                    f"envelope width {self.width!r} is too large:"
                    " its square overflows")
            with np.errstate(divide="ignore", over="ignore"):
                peak = abs(self(0.0))
            if not math.isfinite(peak):
                raise InvalidEnvelopeError(
                    f"envelope width {self.width!r} is too small:"
                    " its peak density overflows")
            # A width whose square, or pi times it, overflows leaves an
            # envelope that is zero everywhere yet claims unit mass.
            if peak == 0.0:
                raise InvalidEnvelopeError(
                    f"envelope width {self.width!r} is too large:"
                    " its peak density underflows")

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
            out = (2.0 / (math.pi * b * b)) ** 0.25 * np.exp(
                -_saturating_quotient(delta * delta, 4 * b * b))
            return np.complex128(out)
        if self.kind is EnvelopeKind.LORENTZIAN:
            b = self.width
            out = np.sqrt((b / math.pi) / (b * b / 4 + delta * delta))
            return np.complex128(out)
        re = np.interp(delta, self.deltas, self.values.real, left=0.0, right=0.0)
        im = np.interp(delta, self.deltas, self.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    def squared_norm(self) -> float:
        """Full-line mass ``Int |u|^2 d delta``; equals 2 by construction."""
        if self.kind is EnvelopeKind.TABULATED:
            return 2.0 * float(np.sum(_linear_masses(self.deltas, self.values)))
        ((mass,),) = _integrals(quad, [(lambda d: (_abs2(self(d)),), 1,
                                        [(0.0, np.inf)], None)])
        return 2.0 * mass

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
        _check_finite("omega0", self.omega0)
        if not self.omega0 > 0:
            raise ValueError("emitter frequency must be positive")
        table: dict[DirectionPair, float] = {}
        for key, value in self.rates.items():
            pair = DirectionPair(key)
            if pair in table:
                raise ValueError(f"rates[{pair.value!r}] is given twice")
            _check_finite(f"rates[{pair.value!r}]", value)
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
            warn("total rate exceeds 5% of the emitter frequency; the "
                 "flat-band approximation may be inaccurate",
                 MarkovValidityWarning)

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
            # A few float spacings absorb linspace's rounding of a fine step.
            atol = 4.0 * np.spacing(np.max(np.abs(axis)))
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=atol):
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
    def for_scattering(cls, coupling: CouplingSpec, pair,
                       n_omegabar: int = 2048, n_delta: int = 1024,
                       halfwidth_rates: float = 20.0,
                       hold: bool = False) -> "FrequencyGrid":
        """Window of ``halfwidth_rates`` total rates around resonance, and
        of differences out to the larger of the envelope reach (ten widths
        of an analytic envelope, the last sample of a tabulated one) and
        ten times ``max(diff_width, |diff_center|)`` of the input ``pair``,
        ``(sum_center, sum_width, diff_center, diff_width)`` or one width
        for the resonant pair of that width (0 for none).  A field that is
        not finite, a negative width, and a grid that fails the pair raise
        ``ValueError`` (``_check_grid``; ``hold`` adds the sum intensity)."""
        if not isinstance(pair, tuple):
            pair = (coupling.omega0, pair, 0.0, pair)
        for i, name in enumerate(("sum_center", "sum_width", "diff_center",
                                  "diff_width")):
            _check_finite(name, pair[i])
            if i % 2 and pair[i] < 0:
                raise ValueError(f"{name} must be nonnegative, got {pair[i]!r}")
        env = coupling.envelope
        if env.kind is EnvelopeKind.TABULATED:
            reach = float(env.deltas[-1])
        else:
            reach = 10.0 * env.width
        grid = cls.regular(coupling.omega0,
                           halfwidth_rates * coupling.total_rate,
                           max(reach, 10.0 * max(pair[3], abs(pair[2]))),
                           n_omegabar, n_delta)
        sum_reach = _GAUSSIAN_REACH * pair[1]
        _check_grid(grid, ValueError, None, (
            coupling.omega0, (pair[0] - sum_reach, pair[0] + sum_reach),
            pair, halfwidth_rates if hold else None))
        return grid

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
        return np.trapezoid(self.integrate_delta(values), self.omegabar)

    def same_axes(self, other: "FrequencyGrid") -> bool:
        return (np.array_equal(self.omegabar, other.omegabar)
                and np.array_equal(self.delta, other.delta))


# Grid points of a chunk of sum rows, which the emission summaries sum and
# the CSV kernel formats at once.  At 2048 the kernel's arrays (0.8 MB) stay
# in glibc's heap between calls of a fresh `quadwg emit`; at 4096 (1.5 MB)
# glibc gave them back after each call and faulted them in again.
_CHUNK_POINTS = 2048


def _row_chunks(grid: FrequencyGrid) -> list[slice]:
    """The sum-frequency rows of each chunk of ``grid``: as many rows as
    hold ``_CHUNK_POINTS`` points, or one row if a row alone holds more."""
    step = max(1, _CHUNK_POINTS // grid.delta.size)
    return [slice(start, start + step)
            for start in range(0, grid.omegabar.size, step)]


def _first_alike(channels: Sequence[np.ndarray]) -> tuple[int, ...]:
    """For each of ``channels``, the index of the first one with its bits."""
    bits = [np.ascontiguousarray(c).view(np.uint64) for c in channels]
    return tuple(next(j for j in range(i + 1) if np.array_equal(b, bits[j]))
                 for i, b in enumerate(bits))


def _saturating_quotient(square, scale: float):
    """The Gaussian exponent ``square / scale``, with ``square`` first held
    to ``1000 scale``: where that bites, ``exp`` of either negative is 0,
    and far out in the tail the quotient no longer overflows with a
    warning.  A square that overflows itself still warns."""
    return np.minimum(square, 1e3 * scale) / scale


def resonance_denominator(total_rate: float, omega0: float, omegabar):
    """Emitter pole ``total_rate / 2 + i (omega0 - obar)``.

    A scalar ``obar`` gives a numpy complex scalar; an array gives a
    complex array of its shape.  Pair scattering, pair emission and the
    mirror gate all divide by it.
    """
    omegabar = np.asarray(omegabar, dtype=float)
    return total_rate / 2.0 + 1j * (omega0 - omegabar)


def _total_probability(coupling: CouplingSpec, grid: FrequencyGrid,
                       window: float) -> float:
    """``window``, the window integral of the channel-summed emitted
    density, over the fraction of the emitted probability inside the
    window: that of the Lorentzian line of full width ``total_rate`` about
    ``omega0`` on the sum axis, times the envelope mass kept."""
    ob, g = grid.omegabar, coupling.total_rate
    line_frac = (math.atan(2.0 * (ob[-1] - coupling.omega0) / g)
                 - math.atan(2.0 * (ob[0] - coupling.omega0) / g)) / math.pi
    env_frac = coupling.envelope.half_line_mass(float(grid.delta[-1]))
    return window / (line_frac * env_frac)


def _check_emission_grid(grid: FrequencyGrid, coupling: CouplingSpec) -> None:
    """Warn (``TruncationWarning``) when the trapezoid rule on ``grid``
    resolves the emitted line and envelope intensity, whose product is the
    emitted density, too coarsely for the total emission probability to
    come within 5e-7 of one, half a unit in its sixth printed decimal."""
    ob, dd, g = grid.omegabar, grid.delta, coupling.total_rate
    line = _abs2(math.sqrt(g / (2.0 * math.pi))
                 / resonance_denominator(g, coupling.omega0, ob))
    error = _total_probability(coupling, grid, float(np.trapezoid(
        line, ob) * np.trapezoid(_abs2(coupling.envelope(dd)), dd))) - 1.0
    if not abs(error) < 5e-7:
        warn(f"the {ob.size}x{dd.size} emission grid cannot resolve the"
             " emitted line and envelope: the total emission probability on"
             f" it is off by {error:+.2e}; raise n_omegabar or n_delta",
             TruncationWarning)


def _breaks(a: float, b: float,
            points: Sequence[float] | None) -> list[float]:
    """The break ``points`` strictly inside a finite ``[a, b]``."""
    if points is None or not (math.isfinite(a) and math.isfinite(b)):
        return []
    return [p for p in points if a < p < b]


def _quad_options(a: float, b: float,
                  points: Sequence[float] | None = None) -> dict:
    """``quad`` keywords over ``[a, b]``: tolerances, subdivision limit, and
    the break points strictly inside a finite interval."""
    kw = dict(epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=QUAD_LIMIT)
    pts = _breaks(a, b, points)
    if pts:
        kw["points"] = pts
    return kw


def _abs2(value):
    """``abs(value) ** 2`` with the bits Python gives one float or complex
    node, for a node or elementwise on an array: libm ``hypot`` and
    ``pow``, where numpy's complex abs and square round differently."""
    return np.float_power(np.hypot(value.real, value.imag), 2.0)


def _integrals(quad, jobs: Sequence[tuple]) -> list[list[float]]:
    """``quad`` of each real part of each job's integrand over each of the
    job's segments, all run together; returns per job each part's sum
    over its segments.  A sum starts at ``0``, as ``sum`` does, so a part
    whose segments all give ``-0.0`` sums to ``0.0``.

    A job is ``(values, n_parts, segments, points)``: ``values`` takes a
    float64 array of nodes and returns one array per part, and the break
    ``points`` (or None) apply to each segment they fall inside.  Every
    quadrature of the package runs here.  ``quad`` is the caller's own
    binding of ``_quadpack.quad``; it is called once per part and segment,
    with ``defer=True``, so each module's integrals are counted for it.
    ``_quadpack._lockstep`` then runs all the integrals a round at a time:
    each round it calls a job's ``values`` once, on the nodes of all its
    unfinished integrals, so the parts share their values.  That needs
    ``values`` elementwise, a value depending on its own node alone; each
    integral then has the bits of its own ``quad``.
    """
    runs = []
    for values, n_parts, segments, points in jobs:
        options = [_quad_options(a, b, points) for a, b in segments]
        runs.append((values, [(i, quad(_part(values, i), a, b, defer=True,
                                       **kw))
                              for i in range(n_parts)
                              for (a, b), kw in zip(segments, options)]))
    sums = []
    for results, (_, n_parts, segments, _) in zip(_lockstep(runs), jobs):
        n = len(segments)
        sums.append([sum(value for value, _ in results[i * n:(i + 1) * n])
                     for i in range(n_parts)])
    return sums


def _part(values: Callable, i: int) -> Callable:
    """Part ``i`` of ``values`` alone, the integrand of its integrals."""
    return lambda x: values(x)[i]


@dataclass
class SeparableState:
    """Product state ``C(obar, delta) = scale * f(obar) h(delta)``.

    ``f`` and ``h`` are vectorized callables: the quadratures call them on
    float64 arrays of nodes.  ``h`` lives on the half line ``delta >= 0``.
    ``f_window`` and ``h_window`` are finite intervals that contain
    essentially all of the respective mass and serve as quadrature windows.
    The amplitude fills ``channels``: ``channel`` itself and, for a cross
    pair, its swapped twin.  With ``scale=None`` the scale is chosen at
    construction so that the state has unit norm; a given ``scale`` is used
    as is.

    The masses of the two unscaled factors are integrated together on
    first request and kept: ``f``, ``h`` and the windows are never
    reassigned after construction, and ``scale`` is applied outside them,
    so it may change.  Every other integral is taken on each request.
    """

    channel: DirectionPair
    f: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    f_window: tuple[float, float]
    h_window: tuple[float, float]
    scale: complex | None = None
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

    def _factor_masses(self) -> tuple[float, float]:
        """``Int |f|^2`` and ``Int |h|^2`` over their windows."""
        if self._masses is None:
            jobs = [(lambda x, fn=fn: (_abs2(fn(x)),), 1, [(lo, hi)],
                     [0.5 * (lo + hi)])
                    for fn, (lo, hi) in ((self.f, self.f_window),
                                         (self.h, self.h_window))]
            ((nf,), (nh,)) = _integrals(quad, jobs)
            self._masses = (nf, nh)
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
        """The state on ``grid``, written in place into one array."""
        data = np.zeros((4,) + grid.shape, dtype=complex)
        first, *twin = self.channels
        np.multiply(
            self.scale * np.asarray(self.f(grid.omegabar[:, None]),
                                    dtype=complex),
            np.asarray(self.h(grid.delta[None, :]), dtype=complex),
            out=data[first.index])
        for pair in twin:
            data[pair.index] = data[first.index]
        return GridState(grid, data)

    def overlap_with_envelope(self, envelope: Envelope) -> complex:
        """Half-line overlap ``Int_0^inf u(delta) C_h(delta) d delta`` where
        ``C_h`` is the scaled difference factor of this state."""
        return self._envelope_overlaps([envelope])[0]

    def _envelope_overlaps(self, envelopes: Sequence[Envelope]) -> list[complex]:
        """``overlap_with_envelope`` of each of ``envelopes``, all
        integrated in one ``_integrals`` call."""
        jobs = []
        for envelope in envelopes:
            lo, hi = self.h_window
            samples = []
            if envelope.kind is EnvelopeKind.TABULATED:
                # The interpolant vanishes outside its samples; a segment
                # per pair of them leaves quad no kink to bisect across.
                d = envelope.deltas
                lo, hi = max(lo, float(d[0])), min(hi, float(d[-1]))
                samples = [x for x in d.tolist() if lo < x < hi]

            def parts(x, envelope=envelope):
                value = envelope(x) * self.h(x)
                return value.real, value.imag

            nodes = [lo, *samples, hi]
            jobs.append((parts, 2, list(zip(nodes[:-1], nodes[1:])),
                         [0.5 * (lo + hi)]) if hi > lo else None)
        sums = iter(_integrals(quad, [job for job in jobs if job]))
        return [self.scale * complex(*next(sums)) if job else 0.0 + 0.0j
                for job in jobs]


@dataclass
class GridState:
    """Grid state holding all four channel amplitude tables.

    ``data`` has shape ``(4, n_omegabar, n_delta)`` indexed by
    ``DirectionPair.index``.  The half-plane exchange symmetry requires the
    two cross-channel tables to agree; construction checks that they do:
    wherever their bits differ, both values must be finite and within 1e-8
    of the largest finite amplitude of each other.
    """

    grid: FrequencyGrid
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=complex)
        expect = (4, self.grid.omegabar.size, self.grid.delta.size)
        if data.shape != expect:
            raise InvalidStateError(f"grid data must have shape {expect}")
        self.data = data
        pm = data[DirectionPair.PM.index]
        mp = data[DirectionPair.MP.index]
        if np.array_equal(pm, mp):
            return
        # Where their bits differ, the two must be finite and within 1e-8
        # of the largest finite amplitude: a gap through inf or nan is
        # itself inf or nan, and fails the test.
        differ = ((pm.real.view(np.uint64) != mp.real.view(np.uint64))
                  | (pm.imag.view(np.uint64) != mp.imag.view(np.uint64)))
        with np.errstate(invalid="ignore", over="ignore"):
            scale = max(float(np.max(m, where=np.isfinite(m), initial=0.0))
                        for m in map(np.abs, data)) or 1.0
            gap = np.abs(pm[differ] - mp[differ])
        if not np.all(gap <= 1e-8 * scale):
            raise InvalidStateError(
                "cross channels must agree in the half-plane representation"
            )

    def channel(self, pair: DirectionPair) -> np.ndarray:
        return self.data[pair.index]

    def norm_squared(self) -> float:
        return float(sum(self.grid.integrate(np.abs(self.data[i]) ** 2)
                         for i in range(4)))

    def amplitude(self, pair: DirectionPair, omegabar, delta) -> np.ndarray:
        """Bilinear interpolant of the ``pair`` table at ``(omegabar,
        delta)``: zero outside the axes, nan at a nan point.  Its real and
        imaginary parts are each the four-term sum of scipy's linear
        regular-grid interpolator, in its order, with its bits."""
        pts = np.broadcast_arrays(np.asarray(omegabar, dtype=float),
                                  np.asarray(delta, dtype=float))
        table = self.data[pair.index]
        with np.errstate(all="ignore"):   # far points, filled, may overflow
            (i, y0, out0), (j, y1, out1) = (
                _cell(axis, p.ravel())
                for axis, p in zip((self.grid.omegabar, self.grid.delta), pts))
            re, im = (np.where(np.isnan(y0) | np.isnan(y1), np.nan, np.where(
                out0 | out1, 0.0, 0.0 + v[i, j] * (1 - y0) * (1 - y1)
                + v[i, j + 1] * (1 - y0) * y1 + v[i + 1, j] * y0 * (1 - y1)
                + v[i + 1, j + 1] * y0 * y1)) for v in (table.real, table.imag))
        return (re + 1j * im).reshape(pts[0].shape)

    def on_grid(self, grid: FrequencyGrid) -> "GridState":
        if self.grid.same_axes(grid):
            return self
        data = np.empty((4, grid.omegabar.size, grid.delta.size), dtype=complex)
        ob, dd = np.meshgrid(grid.omegabar, grid.delta, indexing="ij")
        for pair in PAIRS:
            data[pair.index] = self.amplitude(pair, ob, dd)
        return GridState(grid, data)


def _cell(axis: np.ndarray, x: np.ndarray):
    """The cell ``i`` of ``axis`` with ``axis[i] <= x < axis[i + 1]``, the
    last one at the upper edge; the distance into it in cell widths; and
    whether ``x`` lies outside the axis."""
    i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, axis.size - 2)
    return (i, (x - axis[i]) / (axis[i + 1] - axis[i]),
            (x < axis[0]) | (x > axis[-1]))


# Half width, in widths ``sigma``, of a Gaussian factor's quadrature window.
_GAUSSIAN_REACH = 12.0


def _width_squared(sigma: float) -> float:
    """Square of a Gaussian width, rejecting widths that are not finite,
    whose square underflows, or whose window's half width squared overflows
    (the factors square their distance from the centre at every node)."""
    _check_finite("sigma", sigma)
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    s2 = sigma * sigma
    if not s2 > 0:
        raise ValueError(f"sigma {sigma!r} is too small: its square underflows")
    reach = _GAUSSIAN_REACH * sigma
    if math.isinf(reach * reach):
        raise ValueError(f"sigma {sigma!r} is too large: the square of its"
                         " window's half width overflows")
    return s2


def gaussian_sum_spectrum(center: float, sigma: float):
    """Normalized Gaussian sum-frequency factor.

    ``f(obar) = (2 pi sigma^2)^{-1/4} exp(-(obar - center)^2 / (4 sigma^2))``
    with ``Int |f|^2 d obar = 1``; the intensity ``|f|^2`` has standard
    deviation ``sigma``.  Returns ``(callable, window)``.
    """
    _width_squared(sigma)  # rejects widths out of range
    _check_finite("center", center)
    amp = (2.0 * math.pi * sigma * sigma) ** -0.25

    # ``float_power`` squares with libm ``pow``, as ``** 2`` does on a float
    # node; numpy's square of an array rounds differently.
    def f(obar):
        obar = np.asarray(obar, dtype=float)
        return amp * np.exp(-np.float_power(obar - center, 2.0)
                            / (4.0 * sigma * sigma))

    reach = _GAUSSIAN_REACH * sigma
    return f, (center - reach, center + reach)


def _fold_mass(sigma: float, center: float) -> float:
    """Half-line mass ``sigma sqrt(2 pi) (1 + e^{-c^2/2s^2})`` of
    ``raw(d) + raw(-d)``, the folded Gaussian of ``gaussian_difference_profile``."""
    return sigma * math.sqrt(2.0 * math.pi) \
        * (1.0 + math.exp(-center * center / (2.0 * (sigma * sigma))))


def gaussian_difference_profile(sigma: float, center: float = 0.0):
    """Normalized, folded Gaussian difference-frequency factor.

    The raw profile ``exp(-(delta - center)^2 / (4 sigma^2))`` is symmetrized
    onto the half line, ``h(delta) = A (raw(delta) + raw(-delta))``, and ``A``
    is chosen so that ``Int_0^inf |h|^2 d delta = 1``.  For ``center = 0``
    this reduces to ``(2/(pi sigma^2))^{1/4} exp(-delta^2/(4 sigma^2))``.
    Returns ``(callable, window)``.
    """
    s2 = _width_squared(sigma)
    _check_finite("center", center)
    amp = 1.0 / math.sqrt(_fold_mass(sigma, center))

    def h(delta):
        delta = np.asarray(delta, dtype=float)
        return amp * (
            np.exp(-_saturating_quotient(np.float_power(delta - center, 2.0),
                                         4.0 * s2))
            + np.exp(-_saturating_quotient(np.float_power(delta + center, 2.0),
                                           4.0 * s2)))

    # The window holds the peak at |center| and reaches 0 for a centre
    # within reach of it, where the two folded halves overlap.
    reach = _GAUSSIAN_REACH * sigma
    return h, (max(0.0, abs(center) - reach), abs(center) + reach)


def gaussian_biphoton(channel: DirectionPair, sum_center: float, sigma: float,
                      diff_center: float = 0.0) -> SeparableState:
    """Product of Gaussian sum and folded Gaussian difference factors."""
    f, fw = gaussian_sum_spectrum(sum_center, sigma)
    h, hw = gaussian_difference_profile(sigma, diff_center)
    return SeparableState(channel, f, h, fw, hw)


def _grid_overlaps(state: GridState, envelope: Envelope):
    """Envelope ``u`` on the stored difference axis and the trapezoid
    overlaps ``Int_0^X u(delta) C(obar, delta) d delta`` of all four
    channels, shape ``(4, n_omegabar)``, one channel at a time.  Warns when
    the axis keeps less than ``ENVELOPE_COVER_FRACTION`` of the mass."""
    grid = state.grid
    _check_grid(grid, TruncationWarning, envelope, None)
    u = envelope(grid.delta)
    return u, np.stack([grid.integrate_delta(u * channel)
                        for channel in state.data])


def _check_grid(grid: FrequencyGrid, fault: type, envelope: Envelope | None,
                support: tuple | None) -> None:
    """Raise ``fault``, or issue it if a warning class, for each way
    ``grid`` fails what it carries.  The difference axis keeps
    ``ENVELOPE_COVER_FRACTION`` of the mass of ``envelope``.  ``support`` is
    an input's ``(omega0, sum_window, pair, rates)``, ``pair`` a separable
    state or a Gaussian pair as ``FrequencyGrid.for_scattering`` takes it:
    the sum axis meets ``sum_window``; on every grid, a Gaussian pair's
    profile clear of zero has a spacing within its width, and any other
    profile a trapezoid mass within ``1 - ENVELOPE_COVER_FRACTION`` of its own;
    and the sum axis, ``rates`` total rates about ``omega0``, keeps
    ``ENVELOPE_COVER_FRACTION`` of the pair's sum intensity.  None skips."""
    def report(message):
        if issubclass(fault, Warning):
            return warn(message, fault)
        raise fault(message)

    if envelope is not None:
        kept = envelope.half_line_mass(float(grid.delta[-1]))
        if kept < ENVELOPE_COVER_FRACTION:
            report(f"difference-frequency grid keeps only {kept:.4%} of the"
                   " envelope mass; results on this grid are truncated")
    if support is None:
        return
    omega0, (lo, hi), pair, rates = support
    ob = grid.omegabar
    if not (lo < ob[-1] and hi > ob[0]):
        report(f"the input's sum window [{lo:g}, {hi:g}] at sum_center="
               f"{(lo + hi) / 2:g} misses the output grid's sum axis"
               f" [{ob[0]:g}, {ob[-1]:g}], so its map would be empty; bring"
               f" sum_center nearer omega0={omega0:g}")
    sum_width, profile = 0.0, None
    if isinstance(pair, SeparableState):
        profile = (pair.h, pair.h_window, pair._factor_masses()[1],
                   "the input's difference profile")
    else:
        sum_center, sum_width, diff_center, diff_width = pair
        if diff_width > 0:
            profile = (*gaussian_difference_profile(diff_width, diff_center),
                       1.0, f"the difference profile of diff_width={diff_width:g}")
    if profile is not None:
        h, window, mass, name = profile
        if window[0] <= 0 or not isinstance(pair, tuple):
            kept = float(np.trapezoid(np.abs(h(grid.delta)) ** 2, grid.delta))
            if abs(kept - mass) > (1.0 - ENVELOPE_COVER_FRACTION) * mass:
                report(f"the output grid's difference spacing {grid.d_delta:g}"
                       f" gives {name} a trapezoid mass of {kept / mass:.4g}"
                       " times its own, so its map cannot resolve it; raise"
                       " n_delta or widen the profile")
        elif grid.d_delta > diff_width:
            report(f"the output grid's difference spacing {grid.d_delta:g}"
                   f" exceeds diff_width={diff_width:g}, so its map cannot"
                   " resolve the difference profile at"
                   f" diff_center={diff_center:g}; raise n_delta to at least"
                   f" {math.ceil(float(grid.delta[-1]) / diff_width) + 1} or"
                   " bring diff_center nearer zero")
    if rates is None or sum_width == 0:
        return
    scale = sum_width * math.sqrt(2.0)
    kept = (math.erf((ob[-1] - sum_center) / scale)
            - math.erf((ob[0] - sum_center) / scale)) / 2
    if kept < ENVELOPE_COVER_FRACTION:
        report(f"the band of half width {(ob[-1] - ob[0]) / 2:g} ({rates:g}"
               f" total rates) keeps only {kept:.4g} of the sum intensity of"
               f" an input of width {sum_width:g}; use a narrower input or a"
               " larger total rate")


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
        return _grid_overlaps(state, envelope)[1][pair.index]
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
        u, p = _grid_overlaps(state, envelope)
        unorm = float(state.grid.integrate_delta(
            np.abs(u)[None, :] ** 2)[0])
        if unorm > 0:
            p = p / unorm
        par = p[:, :, None] * np.conj(u)[None, None, :]
        return (GridState(state.grid, par),
                GridState(state.grid, state.data - par))
    raise TypeError("state must be SeparableState or GridState")
