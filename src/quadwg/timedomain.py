"""Direct time-domain integration of the coupled amplitude equations.

This is the ground-truth backend: no Markov approximation, no pole
integrals.  The emitter amplitude and one discrete field mode per grid
point evolve under the exact bilinear coupling

    i dDe/dt = sum_k g_k D_k,
    i dD_k/dt = nu_k D_k + conj(g_k) De,

written in the frame rotating at the emitter frequency, so the mode
detunings ``nu = obar - omega0`` set the stiffness instead of the optical
scale.  Discrete modes carry the square root of their trapezoid measure
weight, which makes plain squared sums reproduce the continuum half-plane
norm; the couplings are ``g = sqrt(rate / (2 pi)) u(delta) sqrt(weight)``
per direction channel.  Pair frequencies obey ``delta <= obar``; grid
points violating it are decoupled and kept empty.

The integrator is a fixed-step fourth-order Runge-Kutta; evolution is
unitary, so the total norm is a sensitive discretization check.

All modes of one sum-frequency row share the detuning ``nu``, so the
emitter sees a single combination of them: the bright mode along
``conj(g_row) / G`` with ``G = |g_row|``.  Its amplitude ``beta`` obeys
``i dbeta/dt = nu beta + G De`` and ``i dDe/dt = sum_rows G beta``.  The
dark remainder of each row never touches the emitter; a row with ``G = 0``
(kinematically forbidden or outside the envelope support) is all dark.
This is an exact change of basis, not an approximation.

Runge-Kutta is linear, so on ``i dx/dt = H x`` one step multiplies ``x``
by the stability polynomial ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` at
``z = -i H dt``.  A dark mode is multiplied by ``R(-i nu dt)`` per step.
The emitter and the bright amplitudes obey the real symmetric arrowhead
``H = [[0, G^T], [G, diag(nu)]]``; with ``H = V diag(lam) V^T`` a step is
``V diag(R(-i lam dt)) V^T``, so the state after ``s`` steps is ``V`` times
the eigencomponents scaled by ``R(-i lam dt)^s``.  ``integrate``
diagonalizes ``H`` once and builds those powers a block of steps at a
time; nothing loops per step.  The result is the same Runge-Kutta map,
including the slight numerical dissipation ``|R| < 1`` that the
norm-drift check watches, not the exact exponential.

The eigen-solve uses the arrowhead's structure, not a dense ``eigh``.  A
row whose ``G`` is zero or negligible against ``||H||`` is deflated: its
eigenpair is ``nu`` and its own unit vector.  The other eigenvalues are
the roots of the secular equation ``lam - sum G^2 / (lam - nu) = 0``, one
between each pair of neighbouring poles and one beyond each outer pole,
within ``||G||``.  Each root is held as its distance ``tau`` from the
nearer pole of its interval, picked by the sign of the secular function
at the midpoint, so the differences that matter are exact.  A rational
model, the near-pole term exact and the rest fitted by value and
derivative, gives each step as the root of a quadratic; a step that leaves
the bracket bisects it instead.  From the computed roots the couplings are
recomputed (Gu and Eisenstat, SIAM J. Matrix Anal. Appl. 15, 1994), so
the eigenvectors ``(1, G / (lam - nu))``, normalized, are orthogonal to
rounding.  They are applied to states a block of roots at a time, real
and imaginary parts apart, and never formed whole: the solve costs
``O(N^2)`` time and ``O(N)`` times a block in memory, against ``O(N^3)``
and ``O(N^2)`` for ``eigh`` of ``N`` rows.

Memory: a run holds one four-channel array, the modes, plus per-row
vectors, the step-power tables (``_POWER_BLOCK`` rows of the eigen and
dark factors) and one channel's bright direction per distinct rate (one
for an isotropic coupling, at most three).  Each direction is built once,
in place over its coupling, and held for the run: it gives the row norms,
the bright amplitudes, the dark split and the final state.  The dark
remainder and the final state overwrite the modes in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailureError, NotAsymptoticError
from .scattering import ChannelProbabilities
from .spectral import (
    PAIRS,
    CouplingSpec,
    FrequencyGrid,
    GridState,
    SeparableState,
    _check_grid,
    _width_squared,
)

__all__ = [
    "ExcitedEmitter",
    "TimeDomainConfig",
    "Trajectory",
    "integrate",
    "oracle_channel_probabilities",
    "with_arrival_delay",
]

STABILITY_LIMIT = 0.1          # dt * max detuning bound for the fixed step
NORM_DRIFT_TOLERANCE = 1e-4
ASYMPTOTIC_RATE_SPAN = 10.0    # required (t1 - t0) * total_rate
SETTLE_RATES = 12.0            # settling time after the input, in 1/total_rate
RESIDUAL_EXCITATION = 1e-4
_POWER_BLOCK = 64              # steps per table of stability-factor powers
_CAUCHY_BLOCK = 1 << 15        # entries of one block of the eigenvectors
_SECULAR_ITERATIONS = 50       # cap on the iterations of one secular root


@dataclass(frozen=True)
class ExcitedEmitter:
    """Initial condition: emitter excited, field in vacuum."""


@dataclass(frozen=True)
class TimeDomainConfig:
    """Grid, time span and step for one time-domain run.

    ``arrival_delay`` records the input-pulse delay baked into the initial
    state by ``with_arrival_delay``; it is bookkeeping only.
    """

    grid: FrequencyGrid
    t_span: tuple[float, float]
    dt: float
    arrival_delay: float = 0.0

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_span[1] > self.t_span[0]:
            raise ValueError("t_span must have positive length")

    @classmethod
    def _banded(cls, coupling: CouplingSpec, input_width: float,
                delay: float, n_omegabar: int, n_delta: int,
                halfwidth_rates: float) -> "TimeDomainConfig":
        """``FrequencyGrid.for_scattering``'s band, which must hold a
        resonant input of ``input_width``, stepped at ``STABILITY_LIMIT``
        over its half width; the span holds an input that peaks at ``delay``
        and passes in as long again, then ``SETTLE_RATES`` inverse rates."""
        grid = FrequencyGrid.for_scattering(
            coupling, input_width, n_omegabar, n_delta, halfwidth_rates,
            hold=input_width > 0)
        g = coupling.total_rate
        return cls(grid, (0.0, 2.0 * delay + SETTLE_RATES / g),
                   STABILITY_LIMIT / (halfwidth_rates * g), delay)

    @classmethod
    def for_scattering(cls, coupling: CouplingSpec, input_width: float,
                       n_omegabar: int = 256, n_delta: int = 128,
                       halfwidth_rates: float = 20.0) -> "TimeDomainConfig":
        """``_banded`` for a resonant pulse of the given width, delayed by
        three inverse widths so it arrives whole after the start.  A band
        that keeps less than ``ENVELOPE_COVER_FRACTION`` of its sum
        intensity, or cannot resolve its difference profile as a map's
        grid must, raises ``ValueError``.
        """
        if not input_width > 0:
            raise ValueError("input_width must be positive")
        _width_squared(input_width)  # rejects widths out of range
        return cls._banded(coupling, input_width, 3.0 / input_width,
                           n_omegabar, n_delta, halfwidth_rates)

    @classmethod
    def for_emission(cls, coupling: CouplingSpec,
                     n_omegabar: int = 512, n_delta: int = 64,
                     halfwidth_rates: float = 40.0) -> "TimeDomainConfig":
        """``_banded`` with no input: the excited emitter's decay.

        The band is kept wide because a hard frequency cutoff steals
        Lorentzian line tails and slows the observed decay by roughly the
        rate-to-bandwidth ratio; forty linewidths keep that bias near one
        percent over five lifetimes.
        """
        return cls._banded(coupling, 0.0, 0.0, n_omegabar, n_delta,
                           halfwidth_rates)


def with_arrival_delay(state: SeparableState, omega0: float,
                       delay: float) -> SeparableState:
    """Delay a separable pulse by ``delay`` without touching its spectrum.

    Multiplies the sum-frequency factor by ``exp(i (obar - omega0) delay)``
    so the pulse peak crosses the emitter that long after the start of the
    integration.  Channel probabilities are insensitive to this phase; it
    only matters for time-domain runs, where the pulse must arrive after
    the initial instant.
    """

    def delayed_f(ob, _f=state.f):
        ob = np.asarray(ob, dtype=float)
        return np.asarray(_f(ob), dtype=complex) \
            * np.exp(1j * (ob - omega0) * delay)

    return SeparableState(state.channel, delayed_f, state.h,
                          state.f_window, state.h_window, scale=state.scale)


@dataclass
class Trajectory:
    """Time-domain run record.

    ``emitter_amplitude`` is sampled at every step in the rotating frame.
    ``final_state`` holds the unweighted channel amplitudes on the grid at
    the final time, still in the rotating frame with accumulated free
    phases; squared magnitudes are frame independent.  ``norm_history`` is
    the conserved total norm at each sample.
    """

    coupling: CouplingSpec
    config: TimeDomainConfig
    times: np.ndarray
    emitter_amplitude: np.ndarray
    final_state: GridState
    norm_history: np.ndarray
    input_norm: float

    @property
    def norm_drift(self) -> float:
        """Largest departure of the norm from its initial value, relative."""
        return float(np.max(np.abs(self.norm_history - self.input_norm))) \
            / self.input_norm


def _trapezoid_weights(grid: FrequencyGrid) -> np.ndarray:
    """Trapezoid measure weight of each grid point, ``(n_omegabar, n_delta)``."""
    w_ob = np.full(grid.omegabar.size, grid.d_omegabar)
    w_ob[[0, -1]] *= 0.5
    w_dd = np.full(grid.delta.size, grid.d_delta)
    w_dd[[0, -1]] *= 0.5
    return w_ob[:, None] * w_dd[None, :]


def _rk4_factor(z):
    """Runge-Kutta stability polynomial ``1 + z + z^2/2 + z^3/6 + z^4/24``."""
    return 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))


def _mode_setup(coupling: CouplingSpec, grid: FrequencyGrid):
    """Root trapezoid weights, the pair-kinematics mask, ``channel(pair)``
    giving one channel's couplings ``g`` and the mode detunings."""
    ob, dd = grid.omegabar, grid.delta
    # Pair kinematics: the difference frequency cannot exceed the sum.
    allowed = dd[None, :] <= ob[:, None] + 1e-12 * max(1.0, abs(ob[-1]))
    u = coupling.envelope(dd)[None, :]
    root_weight = np.sqrt(_trapezoid_weights(grid))

    def channel(pair):
        g = math.sqrt(coupling.rate(pair) / (2.0 * math.pi)) * u * root_weight
        g *= allowed
        return g

    nu = ob - coupling.omega0
    return root_weight, allowed, channel, nu


def _arrowhead(G, nu, emitter, bright):
    """Eigen-solve of the arrowhead ``H = [[0, G^T], [G, diag(nu)]]``, for
    ``G >= 0`` and strictly increasing ``nu``, with ``H = V diag(lam) V^T``.

    Returns ``lam``, the emitter row ``V[0]``, the components
    ``V^T [emitter, bright]`` and a function that applies ``V[1:]`` to
    components; ``V`` itself is never formed (the module note gives the
    method).  The secular roots come first, then the deflated rows.
    """
    eps = np.finfo(float).eps
    n = nu.size
    # Deflation: a row whose G is zero, or negligible against ||H||, keeps
    # the eigenpair (nu, its unit vector).
    kept = G > 8.0 * eps * max(float(np.max(np.abs(nu))),
                               math.sqrt(float(np.dot(G, G))))
    p, g2 = nu[kept], G[kept] ** 2
    m = p.size
    if m == 0:
        return (np.concatenate(([0.0], nu)), np.eye(1, n + 1)[0],
                np.concatenate(([emitter], bright)), lambda comp: comp[1:])

    # Root k lies between poles k - 1 and k; the outer two lie within
    # ||G|| of the outer poles and of the emitter's 0.
    reach = math.sqrt(float(np.sum(g2)))
    left = np.concatenate(([min(p[0], 0.0) - reach], p))
    right = np.concatenate((p, [max(p[-1], 0.0) + reach]))
    roots = np.arange(m + 1)
    below = np.maximum(roots - 1, 0)
    above = np.minimum(roots, m - 1)
    # Each root is held as tau from its origin pole; lam = p[origin] + tau
    # in floats, with the exact differences to the two bracketing poles
    # taken from tau.
    origin, other = below, above
    tau = 0.5 * (left + right) - p[origin]
    lam = p[origin] + tau
    rows = max(1, min(m + 1, _CAUCHY_BLOCK // m))

    def cauchy(ks):
        """``(slice, 1 / (lam - p))`` for the roots ``ks``, a block at a
        time; the block is reused."""
        work = np.empty((min(rows, ks.size), m))
        for start in range(0, ks.size, rows):
            k = ks[start:start + rows]
            block = np.subtract.outer(lam[k], p, out=work[:k.size])
            i = np.arange(k.size)
            block[i, origin[k]] = tau[k]
            block[i, other[k]] = tau[k] - (p[other[k]] - p[origin[k]])
            yield slice(start, start + k.size), np.reciprocal(block,
                                                              out=block)

    def secular(ks):
        """The secular function ``lam - sum G^2 / (lam - p)``, its
        derivative and a bound on its rounding error, which counts the
        resolution of ``tau``, at the roots ``ks``."""
        f, df, err = np.empty(ks.size), np.empty(ks.size), np.empty(ks.size)
        spare = np.empty((min(rows, ks.size), m))
        for part, c in cauchy(ks):
            f[part] = c @ g2
            err[part] = np.abs(c, out=spare[:c.shape[0]]) @ g2
            df[part] = np.square(c, out=c) @ g2
        df += 1.0
        return lam[ks] - f, df, np.abs(lam[ks]) + err + np.abs(tau[ks]) * df

    # Shift each root's origin to its nearer pole, by the sign of the
    # secular function (increasing between poles) at the midpoint; the
    # midpoint halves the bracket.
    f, df, _ = secular(roots)
    positive = f > 0
    low_half = positive.copy()
    low_half[0], low_half[m] = False, True
    origin = np.where(low_half, below, above)
    other = np.where(low_half, above, below)
    base = p[origin]
    lo = np.where(positive, left, lam) - base
    hi = np.where(positive, lam, right) - base
    tau = lam - base
    # The far end of each root's interval.
    far = np.where(low_half, right, left) - base
    near = g2[origin]
    outer = (roots == 0) | (roots == m)
    active = roots
    for _ in range(_SECULAR_ITERATIONS):
        a = active
        t, zo, x = tau[a], near[a], far[a]
        # Near-pole term -zo / t exact; the rest, R = f + zo / t, fitted
        # by value and derivative at t: between poles as c + s / (x - t),
        # with a pole at the other bracketing pole; outside them linearly.
        rest = f[a] + zo / t
        slope = df[a] - zo / (t * t)
        with np.errstate(divide="ignore", invalid="ignore"):
            # c t'^2 - b t' + e = 0, its root between 0 and x.
            s = slope * (x - t) ** 2
            c = rest - s / (x - t)
            b = c * x + zo + s
            e = zo * x
            q = 0.5 * (b + np.copysign(
                np.sqrt(np.maximum(b * b - 4.0 * c * e, 0.0)), b))
            step = e / q
            step = np.where((step / x > 0) & (step / x < 1), step, q / c)
            # slope t'^2 + (rest - slope t) t' - zo = 0, its root on x's side.
            c = rest - slope * t
            q = -0.5 * (c + np.copysign(np.sqrt(c * c + 4.0 * slope * zo), c))
            step = np.where(outer[a], np.where((q > 0) == (x > 0), q / slope,
                                               -zo / q), step)
        # Bisection guard: a step outside the bracket halves it instead.
        inside = (step > lo[a]) & (step < hi[a])
        step = np.where(inside, step, 0.5 * (lo[a] + hi[a]))
        moved = np.abs(step - t)
        tau[a] = step
        lam[a] = base[a] + step
        # The iteration converges quadratically: a model step of at most
        # sqrt(eps) |tau| leaves an error of order eps |tau|.  A bisection
        # stops once it moves by a few ulp, and any root once the secular
        # function is down to its rounding error.
        a = a[moved > np.where(inside, math.sqrt(eps), 4.0 * eps)
              * np.abs(step)]
        f[a], df[a], err = secular(a)
        active = a[np.abs(f[a]) > 8.0 * eps * err]
        if not active.size:
            break
        t = tau[active]
        lo[active] = np.where(f[active] < 0, t, lo[active])
        hi[active] = np.where(f[active] > 0, t, hi[active])

    # Gu-Eisenstat: the couplings for which lam are exact eigenvalues,
    # z2_i = (p_i - lam_i) (lam_m - p_i) prod (p_i - lam_k) / (p_i - p_k)
    # over the roots k < m other than i, every factor from tau.
    gap = np.where(origin == roots, 0.0, p[other] - base) - tau
    z2 = gap[:m] * (tau[m] + (p[m - 1] - p))
    work = np.empty((min(rows, m), m))
    for start in range(0, m, rows):
        k = slice(start, min(m, start + rows))
        ratio = np.subtract.outer(p[k], p, out=work[:k.stop - start])
        ratio[np.arange(k.stop - start), roots[k]] = np.inf
        np.divide(gap[k, None], ratio, out=ratio)
        np.subtract(1.0, ratio, out=ratio)
        z2 *= np.prod(ratio, axis=0)
    del work
    z = np.sqrt(z2)

    # Eigenvectors (1, z / (lam_k - p)) normalized, applied a block of
    # roots at a time, to real and imaginary parts apart.
    row = np.empty(m + 1)
    comp = np.empty(m + 1, dtype=complex)
    x = z * bright[kept]
    x = np.stack((x.real, x.imag), axis=1)
    for part, c in cauchy(roots):
        u = c @ x
        row[part] = 1.0 / np.sqrt(1.0 + np.square(c, out=c) @ z2)
        comp[part] = (emitter + (u[:, 0] + 1j * u[:, 1])) * row[part]

    def expand(comp):
        y = comp[:m + 1] * row
        y = np.stack((y.real, y.imag), axis=1)
        out = np.zeros((m, 2))
        for part, c in cauchy(roots):
            out += c.T @ y[part]
        full = np.empty(n, dtype=complex)
        full[kept] = z * (out[:, 0] + 1j * out[:, 1])
        full[~kept] = comp[m + 1:]
        return full

    return (np.concatenate((lam, nu[~kept])),
            np.concatenate((row, np.zeros(n - m))),
            np.concatenate((comp, bright[~kept])), expand)


def integrate(coupling: CouplingSpec,
              initial: ExcitedEmitter | SeparableState | GridState,
              config: TimeDomainConfig) -> Trajectory:
    """Evolve emitter and field amplitudes over ``config.t_span``.

    The initial condition is either the excited emitter with empty field
    or a pair state, which is discretized onto the grid with measure
    weights.  Raises an integration-failure error when the conserved norm
    drifts by more than one part in ten thousand, which signals a step too
    large or a grid too coarse.  A grid input is never changed; the module
    note gives the memory a run holds.
    """
    grid = config.grid
    root_weight, allowed, channel, nu = _mode_setup(coupling, grid)
    if config.dt * float(np.max(np.abs(nu))) > STABILITY_LIMIT * (1 + 1e-9):
        raise ValueError(
            "dt too large for the grid bandwidth; "
            f"dt * max detuning must stay below {STABILITY_LIMIT}")
    # The eigen-solve needs distinct detunings.
    if not np.all(np.diff(nu) > 0):
        raise ValueError(
            "sum-frequency rows fall closer than the float resolution of"
            " their detunings obar - omega0; use a coarser sum axis")

    if isinstance(initial, ExcitedEmitter):
        emitter = 1.0 + 0.0j
        modes = np.zeros((4,) + root_weight.shape, dtype=complex)
    elif isinstance(initial, (SeparableState, GridState)):
        emitter = 0.0 + 0.0j
        state = initial.on_grid(grid)   # itself on the integration axes
        modes = state.data.copy() if state is initial else state.data
        modes *= root_weight
        modes *= allowed
    else:
        raise TypeError("initial must be ExcitedEmitter or a pair state")
    norm0 = abs(emitter) ** 2 + float(np.vdot(modes, modes).real)
    if not norm0 > 0:
        raise IntegrationFailureError("initial state has zero norm")

    # One coupling array per distinct rate, keyed by its bits (a rate of
    # -0.0 signs its zeros apart from one of 0.0); channels of equal rate
    # share it.  Row sums added in PAIRS order keep one sum's bits.
    keys = [coupling.rate(pair).hex() for pair in PAIRS]
    built = {}
    for pair, key in zip(PAIRS, keys):
        if key not in built:
            built[key] = channel(pair)
    row_sums = {key: np.sum(np.abs(g) ** 2, axis=1)
                for key, g in built.items()}
    G = np.sqrt(sum(row_sums[key] for key in keys))

    # Each coupling becomes, in place, its bright direction conj(g) / G,
    # held for the run: explicit zeros on the uncoupled rows, also where
    # |g|^2 underflows to G = 0 on a nonzero g.
    coupled = G > 0
    for g in built.values():
        np.divide(np.conj(g, out=g), G[:, None], out=g, where=coupled[:, None])
        g[~coupled] = 0
    bright_dir = [built[key] for key in keys]

    # Split each row into its bright amplitude and, in place, the dark
    # remainder.
    bright = sum(np.sum(np.conj(d) * m, axis=1)
                 for d, m in zip(bright_dir, modes))
    for d, m in zip(bright_dir, modes):
        m -= d * bright[:, None]
    dark_weight = sum(np.sum(np.abs(m) ** 2, axis=1) for m in modes)

    t0, t1 = config.t_span
    steps = max(1, int(math.ceil((t1 - t0) / config.dt)))
    dt = (t1 - t0) / steps
    times = t0 + dt * np.arange(steps + 1)

    # Emitter and bright amplitudes in the eigenbasis of the arrowhead H.
    lam, emitter_row, comp, expand = _arrowhead(G, nu, emitter, bright)
    growth = _rk4_factor(-1j * lam * dt)
    dark_step = _rk4_factor(-1j * nu * dt)
    # Norm: eigencomponent and dark-row weights, each fading per step.
    fade = np.abs(np.concatenate((growth, dark_step))) ** 2
    weights = np.concatenate((np.abs(comp) ** 2, dark_weight))

    # Powers 1.._POWER_BLOCK of the per-step factors; each block of steps
    # reads them against components that carry the earlier blocks.
    table = np.cumprod(np.broadcast_to(growth, (_POWER_BLOCK, growth.size)),
                       axis=0)
    fade_table = np.cumprod(np.broadcast_to(fade, (_POWER_BLOCK, fade.size)),
                            axis=0)
    trace = np.empty(steps + 1, dtype=complex)
    norms = np.empty(steps + 1)
    trace[0] = emitter
    norms[0] = norm0
    for start in range(1, steps + 1, _POWER_BLOCK):
        n = min(_POWER_BLOCK, steps + 1 - start)
        trace[start:start + n] = table[:n] @ (emitter_row * comp)
        norms[start:start + n] = fade_table[:n] @ weights
        comp = comp * table[n - 1]
        weights = weights * fade_table[n - 1]
    del table, fade_table

    bright = expand(comp)
    dark_fade = (dark_step ** steps)[:, None]
    for d, m in zip(bright_dir, modes):
        m *= dark_fade
        m += d * bright[:, None]
        # Strictly increasing grid axes make every trapezoid weight positive.
        m /= root_weight
    final = GridState(grid, modes)
    traj = Trajectory(coupling, config, times, trace, final, norms, norm0)
    if traj.norm_drift > NORM_DRIFT_TOLERANCE:
        raise IntegrationFailureError(
            f"norm drifted by {traj.norm_drift:.2e}; "
            "reduce dt or refine the grid")
    return traj


def oracle_channel_probabilities(traj: Trajectory) -> ChannelProbabilities:
    """Final per-channel probabilities of a time-domain run.

    Demands an asymptotic trajectory: the span must cover at least ten
    inverse rates and the emitter must have returned to the ground state,
    otherwise flight is still in progress and the split is meaningless.
    First, the span must stay below the grid's recurrence time
    ``2 pi / d_omegabar``: rows ``d_omegabar`` apart form a periodic box,
    so from then on the scattered field comes back to the emitter.
    """
    t0, t1 = traj.config.t_span
    recurrence = 2.0 * math.pi / traj.config.grid.d_omegabar
    if t1 - t0 >= recurrence:
        raise ValueError(
            f"run spans {t1 - t0:g}, not less than the grid's recurrence"
            f" time 2*pi/d_omegabar = {recurrence:g}, when the field comes"
            " back to the emitter; use more sum-frequency rows (n_omegabar)")
    g = traj.coupling.total_rate
    residual = abs(traj.emitter_amplitude[-1]) ** 2 / traj.input_norm
    if (t1 - t0) * g < ASYMPTOTIC_RATE_SPAN or residual >= RESIDUAL_EXCITATION:
        raise NotAsymptoticError(
            f"run spans {(t1 - t0) * g:.2f} inverse rates with residual "
            f"excitation {residual:.2e}; extend t_span")
    root_weight = np.sqrt(_trapezoid_weights(traj.config.grid))
    values = {}
    for pair in PAIRS:
        b = traj.final_state.data[pair.index] * root_weight
        values[pair] = float(np.vdot(b, b).real) / traj.input_norm
    return ChannelProbabilities(values)


def _scattering_run(coupling: CouplingSpec, state: SeparableState,
                    config: TimeDomainConfig):
    """``(trajectory, probabilities)`` of ``state`` delayed by the arrival
    delay; first ``state`` must pass the band as an output map's grid must
    (``_check_grid``), or ``ValueError`` is raised."""
    _check_grid(config.grid, ValueError, None,
                (coupling.omega0, state.f_window, state, None))
    traj = integrate(coupling, with_arrival_delay(
        state, coupling.omega0, config.arrival_delay), config)
    return traj, oracle_channel_probabilities(traj)
