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

Memory: a run holds one four-channel array, the modes, plus per-row
vectors and one channel's bright direction per distinct rate (one for an
isotropic coupling, at most three).  Each direction is built once, in
place over its coupling, and held for the run: it gives the row norms, the
bright amplitudes, the dark split and the final state.  The dark remainder
and the final state overwrite the modes in place.
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
_POWER_BLOCK = 128             # steps per table of stability-factor powers


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
        of ``halfwidth_rates`` total rates that keeps less than
        ``ENVELOPE_COVER_FRACTION`` of its sum intensity raises
        ``ValueError``.
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
    h = np.diag(np.concatenate(([0.0], nu)))
    h[0, 1:] = h[1:, 0] = G
    lam, vec = np.linalg.eigh(h)
    del h
    growth = _rk4_factor(-1j * lam * dt)
    dark_step = _rk4_factor(-1j * nu * dt)
    comp = vec.T @ np.concatenate(([emitter], bright))
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
        trace[start:start + n] = table[:n] @ (vec[0] * comp)
        norms[start:start + n] = fade_table[:n] @ weights
        comp = comp * table[n - 1]
        weights = weights * fade_table[n - 1]
    del table, fade_table   # vec[1:] @ comp below copies vec to complex

    bright = vec[1:] @ comp
    del vec
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
