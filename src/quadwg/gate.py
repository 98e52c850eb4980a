"""Dual-rail controlled-phase gate built on two-photon mirror reflection.

A semi-infinite waveguide terminated by the emitter reflects single photons
with a trivial phase but reflects matched photon pairs with the all-pass
factor

    bracket(obar) = 1 - total_rate / (total_rate / 2 + i (omega0 - obar)),

which equals -1 on resonance and +1 far away.  Interfering a logical
``|1,1>`` state through a balanced splitter so that both double-occupancy
branches see such a mirror turns that conditional pi into a controlled-phase
gate.  The gate quality reduces to a single number, the overlap of the
reflected pair pulse with the incoming one, and from it a worst-case
fidelity over all logical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (InvalidOverlapError, TruncationError,
                     _UnresolvableRateError)
from .spectral import (QUAD_LIMIT, EnvelopeKind, _breaks, _check_finite,
                       _integrals, _linear_masses, quad,
                       resonance_denominator)

__all__ = [
    "PulseShape",
    "mirror_bracket",
    "mirror_reflection",
    "gate_overlap",
    "worst_case_fidelity",
    "truth_table",
    "GateReport",
    "gate_report",
    "unit_pulse",
    "InfidelitySweep",
    "infidelity_sweep",
]


def _check_pulse(center: float, fwhm: float, scale: float) -> None:
    _check_finite("center", center)
    _check_finite("fwhm", fwhm)
    if not fwhm > 0:
        raise ValueError("fwhm must be positive")
    if scale * scale == 0.0:
        raise ValueError(f"fwhm {fwhm!r} is too small: the square of the"
                         " pulse scale underflows")


# Half width, in scales, of a Gaussian pulse's support.
_GAUSSIAN_REACH = 40.0


@dataclass(frozen=True)
class PulseShape:
    """Real, nonnegative, unit-norm sum-frequency pulse amplitude.

    ``fwhm`` is measured on the amplitude ``f`` itself; construct with
    ``fwhm_on_power=True`` to measure it on the intensity ``|f|^2`` instead.
    Tabulated pulses interpolate linearly and vanish outside their samples;
    it is the interpolant that carries unit norm, and ``center`` is the
    trapezoid mean frequency of the squared samples.
    """

    kind: EnvelopeKind
    center: float
    fwhm: float
    scale: float = 0.0        # Gaussian std dev or Lorentzian half width of f
    freqs: np.ndarray | None = None
    vals: np.ndarray | None = None

    @classmethod
    def gaussian(cls, center: float, fwhm: float,
                 fwhm_on_power: bool = False) -> "PulseShape":
        s = fwhm / (2.0 * math.sqrt(math.log(2.0)))
        if not fwhm_on_power:
            s /= math.sqrt(2.0)
        _check_pulse(center, fwhm, s)
        half = _GAUSSIAN_REACH * s
        if math.isinf(half * half):     # the amplitude squares nu on it
            raise ValueError(f"fwhm {fwhm!r} is too large: the square of the"
                             " pulse support's half width overflows")
        return cls(EnvelopeKind.GAUSSIAN, float(center), float(fwhm), s)

    @classmethod
    def lorentzian(cls, center: float, fwhm: float,
                   fwhm_on_power: bool = False) -> "PulseShape":
        if fwhm_on_power:
            g = fwhm / (2.0 * math.sqrt(math.sqrt(2.0) - 1.0))
        else:
            g = fwhm / 2.0
        _check_pulse(center, fwhm, g)
        if math.isinf(2.0 * g * g * g):     # the amplitude takes 2 g^3
            raise ValueError(f"fwhm {fwhm!r} is too large: the cube of the"
                             " pulse scale overflows")
        return cls(EnvelopeKind.LORENTZIAN, float(center), float(fwhm), g)

    @classmethod
    def tabulated(cls, freqs: Sequence[float],
                  vals: Sequence[float]) -> "PulseShape":
        w = np.asarray(freqs, dtype=float)
        v = np.asarray(vals, dtype=float)
        if w.ndim != 1 or w.size < 2 or v.shape != w.shape:
            raise ValueError("need at least two matching pulse samples")
        if np.any(np.diff(w) <= 0):
            raise ValueError("pulse frequencies must be increasing")
        if np.any(v < 0):
            raise ValueError("pulse amplitude must be nonnegative")
        mass = float(np.sum(_linear_masses(w, v)))
        if not mass > 0:
            raise ValueError("pulse has zero norm")
        v = v / math.sqrt(mass)
        center = float(np.trapezoid(w * v * v, w) / np.trapezoid(v * v, w))
        peak = float(v.max())
        above = w[v >= peak / 2.0]
        fwhm = float(above[-1] - above[0]) if above.size else 0.0
        return cls(EnvelopeKind.TABULATED, center, fwhm, 0.0, w, v)

    def __call__(self, omegabar):
        omegabar = np.asarray(omegabar, dtype=float)
        nu = omegabar - self.center
        if self.kind is EnvelopeKind.GAUSSIAN:
            s = self.scale
            amp = (s * math.sqrt(math.pi)) ** -0.5
            return amp * np.exp(-(nu * nu) / (2.0 * s * s))
        if self.kind is EnvelopeKind.LORENTZIAN:
            g = self.scale
            amp = math.sqrt(2.0 * g ** 3 / math.pi)
            return amp / (nu * nu + g * g)
        return np.interp(omegabar, self.freqs, self.vals, left=0.0, right=0.0)

    def support(self) -> tuple[float, float]:
        """Interval outside which the amplitude is zero or negligible."""
        if self.kind is EnvelopeKind.TABULATED:
            return float(self.freqs[0]), float(self.freqs[-1])
        if self.kind is EnvelopeKind.GAUSSIAN:
            half = _GAUSSIAN_REACH * self.scale
        else:
            half = 1e4 * self.scale
        return self.center - half, self.center + half


def mirror_bracket(gamma: float, omega0: float, omegabar):
    """Two-photon reflection factor of the emitter-terminated mirror.

    Unit modulus for every real ``obar``; -1 on resonance, +1 far away.
    """
    return 1.0 - gamma / resonance_denominator(gamma, omega0, omegabar)


def _check_rate(gamma) -> None:
    """Reject a rate that is not positive, or not finite with ``2 / gamma``
    finite: the bracket is nan at an infinite rate, and at 5e-324 its
    denominator ``gamma / 2`` rounds to zero at resonance."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if not (math.isfinite(gamma) and math.isfinite(2.0 / float(gamma))):
        raise ValueError(f"gamma must be finite with 2 / gamma finite,"
                         f" got {float(gamma)!r}")


def _check_resolvable(gamma: float) -> None:
    """Reject a rate whose resonance interval next to zero QUADPACK would
    refuse to bisect.

    QUADPACK stops bisecting ``[a, b]`` with midpoint ``c``, and warns of
    "extremely bad integrand behavior", once ``max(|a|, |b|) <= (1 + 100
    eps) (|c| + 1000 tiny)``.  A resonance at zero, where ``_gate_job``
    puts that of every analytic pulse, makes ``[0, gamma]`` an interval
    between break points; the guard refuses it, and the overlap loses the
    mass of the bisections it skips, for ``gamma`` up to about
    ``2000 tiny``, 4.45e-305.
    """
    g = float(gamma)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    if g <= (1.0 + 100.0 * eps) * (0.5 * g + 1000.0 * tiny):
        raise _UnresolvableRateError(
            f"gamma {g!r} is too small: quad cannot bisect a resonance"
            " this narrow next to zero")


def _resonance(f: PulseShape, omega0: float | None) -> float:
    """The emitter frequency: a finite ``omega0``, or the pulse center."""
    if omega0 is None:
        return f.center
    _check_finite("omega0", omega0)
    return float(omega0)


def mirror_reflection(f: PulseShape, gamma: float,
                      omega0: float | None = None) -> Callable:
    """Reflected pair pulse: the incoming ``f`` times the mirror factor.

    ``omega0`` defaults to the pulse center (resonant drive).
    """
    _check_rate(gamma)
    w0 = _resonance(f, omega0)

    def reflected(omegabar):
        return np.asarray(f(omegabar), dtype=complex) \
            * mirror_bracket(gamma, w0, omegabar)

    return reflected


def _node_values(f: PulseShape, gamma: float, origin: float, r: float,
                 t: np.ndarray):
    """The three integrands of ``_gate_z`` at the nodes ``t = obar -
    origin``, the resonance sitting at ``t = r``: ``|f|^2`` and the real
    and imaginary parts of ``|f|^2 (1 + bracket)``.

    With ``d = w0 - obar = r - t``, ``1 + bracket = (2 d^2 + i gamma d) /
    (gamma^2 / 4 + d^2)``, evaluated as ``2 s^2 + i (gamma / h) s`` with
    ``h = hypot(gamma / 2, d)`` and ``s = d / h``: ``gamma^2 / 4``
    underflows for the smallest rates ``gate_overlap`` takes.  The pulse
    is evaluated at ``origin + t``.  An element's value does not depend on
    the other nodes of ``t``.
    """
    amp = f(origin + t)
    # ``float_power`` squares with libm ``pow``, as the gate data files
    # were made; about one square in a thousand rounds differently from
    # ``amp * amp``.
    power = np.float_power(amp, 2.0)
    d = r - t
    h = np.hypot(gamma / 2.0, d)
    s = d / h
    return power, power * (2.0 * s * s), power * ((gamma / h) * s)


def _gate_job(f: PulseShape, gamma: float,
              omega0: float | None = None) -> tuple:
    """The integrals of the pair factor ``z`` as a ``spectral._integrals``
    job: the pulse mass and both parts of ``Int |f|^2 (1 + bracket)``.

    An analytic pulse is integrated in ``t = obar - w0``, so the
    resonance's break points ``0`` and ``+-gamma`` are exact however narrow
    it sits away from zero; at ``w0 = 0`` every node, break point and value
    has the bits of ``obar``.  A tabulated pulse is integrated in ``obar``
    itself, one segment per pair of samples, so that each segment's nodes
    are placed from its samples as given: shifted by ``w0``, the rounded
    centres of segments 2e-9 wide moved their quadratures by 1e-7.
    """
    _check_rate(gamma)
    _check_resolvable(gamma)
    gamma = float(gamma)
    w0 = _resonance(f, omega0)
    origin = 0.0 if f.kind is EnvelopeKind.TABULATED else w0
    r = w0 - origin
    lo, hi = f.support()
    lo = min(lo - origin, r - 40.0 * gamma)
    hi = max(hi - origin, r + 40.0 * gamma)
    center = f.center - origin
    pts = [center - f.fwhm, center, center + f.fwhm, r - gamma, r, r + gamma]
    if f.kind is EnvelopeKind.TABULATED:
        # One segment per pair of samples: the interpolant has no kink
        # inside any of them for quad to bisect across.
        segments = list(zip(f.freqs[:-1].tolist(), f.freqs[1:].tolist()))
    else:
        segments = [(lo, hi), (-np.inf, lo), (hi, np.inf)]
        # A rate far above the pulse width makes the window many widths
        # across; a geometric ladder of pulse-scale break points keeps quad
        # from stepping over the pulse tails.
        reach = max(center - lo, hi - center)
        step = 8.0 * f.fwhm
        while step < reach:
            pts += [center - step, center + step]
            step *= 8.0
    points = _apart(pts)
    n_breaks = len(_breaks(lo, hi, points))
    if n_breaks >= QUAD_LIMIT:
        raise _UnresolvableRateError(
            f"gamma {gamma!r} is too large: quad cannot take the"
            f" {n_breaks} break points of a window this wide")
    return partial(_node_values, f, gamma, origin, r), 3, segments, points


def _apart(points: list[float]) -> list[float]:
    """The sorted distinct break ``points``, less each too close to the one
    kept before it.

    QUADPACK refuses to bisect ``[a, b]`` once ``max(|a|, |b|) <= (1 + 100
    eps) (|c| + 1000 tiny)`` and warns of "extremely bad integrand
    behavior"; a pulse point a few ulps from a resonance point, or both
    within a few ``tiny`` of zero, bound such an interval.  A point is kept
    if its gap to the last one could be halved about 14 times first, and
    is at least ``2000 tiny``, the gap ``_check_resolvable`` asks of
    ``[0, gamma]``.
    """
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    kept: list[float] = []
    for p in sorted(set(points)):
        if kept and p - kept[-1] <= (2.0 ** 14 * 200.0 * eps
                                     * max(abs(p), abs(kept[-1]))
                                     + 2000.0 * tiny):
            continue
        kept.append(p)
    return kept


def _pair_factor(mass: float, re: float, im: float) -> complex:
    """``z`` from the integrals of ``_gate_job``, once the mass is checked."""
    if not abs(mass - 1.0) <= 1e-3:   # a nan mass fails too
        raise TruncationError(
            f"quadrature captured pulse mass {mass:.6f} instead of 1; "
            "pulse is off center or undersampled")
    return complex(re, im) / mass


def _gate_z(f: PulseShape, gamma: float,
            omega0: float | None = None) -> complex:
    """The pair factor ``z = 1 + gate_overlap(f, gamma, omega0)``,
    integrated as ``Int |f|^2 (1 + bracket) / Int |f|^2``, so that no
    cancellation against one loses its digits as the overlap nears -1."""
    ((mass, re, im),) = _integrals(quad, [_gate_job(f, gamma, omega0)])
    return _pair_factor(mass, re, im)


def gate_overlap(f: PulseShape, gamma: float,
                 omega0: float | None = None) -> complex:
    """Overlap of the reflected pair pulse with the incoming one.

    ``Int |f(obar)|^2 bracket(obar) d obar`` by adaptive quadrature over the
    pulse support plus analytic-decay tails, or over each sample segment of
    a tabulated pulse.  Magnitude never exceeds one; the narrow-pulse limit
    is -1 (ideal conditional pi), the broad-pulse limit is +1 (emitter
    transparent).  Raises a truncation error when the quadrature fails to
    capture the pulse mass.

    The overlap is ``z - 1`` for the pair factor ``z`` of ``_gate_z``.  Its
    mass pass and both passes over ``z`` share their values: the three
    integrands are evaluated together, once a round, on the Gauss-Kronrod
    nodes of all nine integrals (``spectral._integrals``).

    ``gamma`` must be positive and finite, with ``2 / gamma`` finite,
    large enough for quad to bisect its resonance (above about 4.45e-305),
    and, for an analytic pulse, small enough for quad to take the break
    points of its window (below about 1e178 times its FWHM).
    Any real rate is taken as a Python float.
    """
    return _gate_z(f, gamma, omega0) - 1.0


def _fidelity(z: complex) -> tuple[float, float, float]:
    """Worst-case fidelity, its minimizer and the infidelity of the pair
    factor ``z = 1 + overlap``.

    ``|1 - x z|^2`` is least over ``[0, 1]`` at ``x* = Re z / |z|^2``
    clipped to ``[0, 1]``, where ``1 - F = x* (2 Re z - x* |z|^2)`` keeps
    every digit of a small infidelity that ``1 - |1 - x* z|^2`` would
    cancel away.  Where ``|z|^2`` is not normal, both use ``w = z 2^-e``
    for ``|z| = m 2^e``: ``x* = y 2^-e``, ``1 - F = y (2 Re w - y |w|^2)``
    and ``y = Re w / |w|^2`` held to ``[0, 2^e]``.
    """
    if not abs(z - 1.0) <= 1.0 + 1e-6:   # a nan overlap fails too
        raise InvalidOverlapError(
            f"overlap magnitude {abs(z - 1.0):.6f} is not at most 1;"
            " quadrature failed")
    if z == 0:
        return 1.0, 1.0, 0.0
    e = 0 if abs(z) ** 2 >= np.finfo(float).tiny else math.frexp(abs(z))[1]
    w = complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e))
    norm2 = abs(w) ** 2
    y = min(max(w.real / norm2, 0.0), math.ldexp(1.0, e))
    infidelity = y * (2.0 * w.real - y * norm2)
    return 1.0 - infidelity, math.ldexp(y, -e), infidelity


def worst_case_fidelity(overlap: complex) -> tuple[float, float]:
    """Worst-case gate fidelity over logical inputs, with its minimizer.

    The fidelity of an input with pair-term weight ``x = |d|^2`` is
    ``|1 - x (1 + overlap)|^2``; the worst case minimizes over
    ``x in [0, 1]``.  Returns ``(fidelity, x_star)``.  Only the pair-term
    weight matters, not the relative phases of the logical amplitudes.
    """
    fid, x_star, _ = _fidelity(1.0 + complex(overlap))
    return fid, x_star


def truth_table(f: PulseShape, gamma: float, omega0: float | None = None,
                transmission: float = 0.5) -> Mapping[str, complex]:
    """Output amplitude of each logical basis state.

    Logical zeroes bypass the mirrors and single photons reflect
    transparently, so every basis state except ``|1,1>`` returns with
    amplitude exactly one.  The pair state splits on a beam splitter of
    intensity transmission ``transmission``, the double-occupancy branches
    pick up the two-photon reflection, and recombination leaves

        (2 t - 1)^2 + 4 t (1 - t) * overlap

    on the ``|1,1>`` component, which is the overlap itself for a balanced
    splitter.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    o = gate_overlap(f, gamma, omega0)
    t = transmission
    pair = (2.0 * t - 1.0) ** 2 + 4.0 * t * (1.0 - t) * o
    return {
        "00": 1.0 + 0.0j,
        "01": 1.0 + 0.0j,
        "10": 1.0 + 0.0j,
        "11": complex(pair),
    }


@dataclass(frozen=True)
class GateReport:
    """Overlap and worst-case fidelity of one gate configuration."""

    overlap: complex
    worst_case_fidelity: float
    minimizing_occupation: float


def gate_report(f: PulseShape, gamma: float,
                omega0: float | None = None) -> GateReport:
    z = _gate_z(f, gamma, omega0)
    fid, x_star, _ = _fidelity(z)
    return GateReport(z - 1.0, fid, x_star)


def unit_pulse(shape: str, fwhm_on_power: bool = False) -> PulseShape:
    """Pulse of the named analytic shape, centered at zero with unit FWHM."""
    builders = {"gaussian": PulseShape.gaussian,
                "lorentzian": PulseShape.lorentzian}
    try:
        build = builders[shape]
    except KeyError:
        raise ValueError(f"unknown pulse shape {shape!r}") from None
    return build(0.0, 1.0, fwhm_on_power=fwhm_on_power)


@dataclass(frozen=True)
class InfidelitySweep:
    """Worst-case infidelity versus rate-to-bandwidth ratio per pulse kind."""

    gamma_over_fwhm: np.ndarray
    shapes: tuple[str, ...]
    fidelity: np.ndarray           # (n_shapes, n_ratios)
    log10_infidelity: np.ndarray   # (n_shapes, n_ratios)

    def curve(self, shape: str) -> np.ndarray:
        return self.log10_infidelity[self.shapes.index(shape)]


def infidelity_sweep(gamma_over_fwhm: Sequence[float],
                     shapes: Sequence[str] = ("gaussian", "lorentzian"),
                     fwhm_on_power: bool = False) -> InfidelitySweep:
    """Sweep the worst-case infidelity against ``gamma / fwhm``.

    All quantities are scale free, so the pulse is centered at zero with
    unit width and the rate carries the ratio.  Narrow pulses (large ratio)
    approach the ideal gate; the Gaussian curve falls faster than the
    Lorentzian one because its spectral tails carry less weight off
    resonance.
    """
    ratios = np.asarray(gamma_over_fwhm, dtype=float)
    if np.any(ratios <= 0):
        raise ValueError("ratios must be positive")
    fid = np.empty((len(shapes), ratios.size))
    infid = np.empty_like(fid)
    for i, name in enumerate(shapes):
        pulse = unit_pulse(name, fwhm_on_power)
        # The integrals of every point of a curve run together, a round at
        # a time; one curve at a time bounds the partitions held at once.
        parts = _integrals(quad, [_gate_job(pulse, ratio)
                                  for ratio in ratios])
        for j, integrals in enumerate(parts):
            fid[i, j], _, infid[i, j] = _fidelity(_pair_factor(*integrals))
    return InfidelitySweep(ratios, tuple(shapes), fid,
                           np.log10(np.clip(infid, 1e-300, None)))
