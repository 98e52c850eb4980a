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
``i dbeta/dt = nu beta + G De`` and ``i dDe/dt = sum_rows G beta``, and
only these ``1 + N_obar`` amplitudes are stepped.  The dark remainder of
each row never touches the emitter; a row with ``G = 0`` (kinematically
forbidden or outside the envelope support) is all dark.  This is an exact
change of basis, not an approximation.  Runge-Kutta is linear, so its
step acts on a dark mode as the stability polynomial
``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` with ``z = -i nu dt``; the dark
part is multiplied by ``R(z)`` per step rather than by ``exp(-i nu dt)``.
That makes the result, including the slight numerical dissipation
``|R| < 1`` that the norm-drift check watches, the same as stepping every
mode.
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
RESIDUAL_EXCITATION = 1e-4


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
    def for_scattering(cls, coupling: CouplingSpec, input_width: float,
                       n_omegabar: int = 256, n_delta: int = 128,
                       halfwidth_rates: float = 20.0,
                       settle_rates: float = 12.0) -> "TimeDomainConfig":
        """Window and step sized for a resonant pulse of the given width.

        The pulse is assumed delayed by three inverse widths so it arrives
        whole after the start; the span then covers its passage plus the
        emitter settling time.
        """
        if not input_width > 0:
            raise ValueError("input_width must be positive")
        g = coupling.total_rate
        delay = 3.0 / input_width
        grid = FrequencyGrid.for_scattering(
            coupling, input_width, n_omegabar, n_delta, halfwidth_rates)
        span = delay + 3.0 / input_width + settle_rates / g
        dt = STABILITY_LIMIT / (halfwidth_rates * g)
        return cls(grid, (0.0, span), dt, arrival_delay=delay)

    @classmethod
    def for_emission(cls, coupling: CouplingSpec,
                     n_omegabar: int = 512, n_delta: int = 64,
                     halfwidth_rates: float = 40.0,
                     settle_rates: float = 12.0) -> "TimeDomainConfig":
        """Window and step sized for watching the excited emitter decay.

        The band is kept wide because a hard frequency cutoff steals
        Lorentzian line tails and slows the observed decay by roughly the
        rate-to-bandwidth ratio; forty linewidths keep that bias near one
        percent over five lifetimes.
        """
        g = coupling.total_rate
        grid = FrequencyGrid.for_scattering(
            coupling, 0.0, n_omegabar, n_delta, halfwidth_rates)
        dt = STABILITY_LIMIT / (halfwidth_rates * g)
        return cls(grid, (0.0, settle_rates / g), dt)


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


def _mode_setup(coupling: CouplingSpec, grid: FrequencyGrid):
    ob, dd = grid.omegabar, grid.delta
    w_ob = np.full(ob.size, grid.d_omegabar)
    w_ob[[0, -1]] *= 0.5
    w_dd = np.full(dd.size, grid.d_delta)
    w_dd[[0, -1]] *= 0.5
    weight = w_ob[:, None] * w_dd[None, :]
    # Pair kinematics: the difference frequency cannot exceed the sum.
    allowed = dd[None, :] <= ob[:, None] + 1e-12 * max(1.0, abs(ob[-1]))
    u = coupling.envelope(dd)
    g = np.empty((4, ob.size, dd.size), dtype=complex)
    for pair in PAIRS:
        g[pair.index] = math.sqrt(coupling.rate(pair) / (2.0 * math.pi)) \
            * u[None, :] * np.sqrt(weight)
    g *= allowed[None, :, :]
    nu = ob - coupling.omega0
    return weight, allowed, g, nu


def integrate(coupling: CouplingSpec,
              initial: ExcitedEmitter | SeparableState | GridState,
              config: TimeDomainConfig) -> Trajectory:
    """Evolve emitter and field amplitudes over ``config.t_span``.

    The initial condition is either the excited emitter with empty field
    or a pair state, which is discretized onto the grid with measure
    weights.  Raises an integration-failure error when the conserved norm
    drifts by more than one part in ten thousand, which signals a step too
    large or a grid too coarse.
    """
    grid = config.grid
    weight, allowed, g, nu = _mode_setup(coupling, grid)
    if config.dt * float(np.max(np.abs(nu))) > STABILITY_LIMIT * (1 + 1e-9):
        raise ValueError(
            "dt too large for the grid bandwidth; "
            f"dt * max detuning must stay below {STABILITY_LIMIT}")

    if isinstance(initial, ExcitedEmitter):
        emitter = 1.0 + 0.0j
        modes = np.zeros_like(g)
    elif isinstance(initial, (SeparableState, GridState)):
        emitter = 0.0 + 0.0j
        modes = initial.on_grid(grid).data * np.sqrt(weight)[None, :, :]
        modes *= allowed[None, :, :]
    else:
        raise TypeError("initial must be ExcitedEmitter or a pair state")
    norm0 = abs(emitter) ** 2 + float(np.vdot(modes, modes).real)
    if not norm0 > 0:
        raise IntegrationFailureError("initial state has zero norm")

    # Split each row into its bright amplitude and the dark remainder.
    G = np.sqrt(np.sum(np.abs(g) ** 2, axis=(0, 2)))
    coupled = G > 0
    bright_dir = np.zeros_like(g)
    bright_dir[:, coupled, :] = np.conj(g[:, coupled, :]) \
        / G[None, coupled, None]
    bright = np.sum(np.conj(bright_dir) * modes, axis=(0, 2))
    dark = modes - bright_dir * bright[None, :, None]
    dark_weight = np.sum(np.abs(dark) ** 2, axis=(0, 2))

    def deriv(e, b):
        return -1j * np.dot(G, b), -1j * (nu * b + G * e)

    t0, t1 = config.t_span
    steps = max(1, int(math.ceil((t1 - t0) / config.dt)))
    dt = (t1 - t0) / steps
    z = -1j * nu * dt
    dark_step = 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))
    dark_fade = np.abs(dark_step) ** 2
    times = t0 + dt * np.arange(steps + 1)
    trace = np.empty(steps + 1, dtype=complex)
    norms = np.empty(steps + 1)
    trace[0] = emitter
    norms[0] = norm0
    half = 0.5 * dt
    for s in range(steps):
        k1e, k1 = deriv(emitter, bright)
        k2e, k2 = deriv(emitter + half * k1e, bright + half * k1)
        k3e, k3 = deriv(emitter + half * k2e, bright + half * k2)
        k4e, k4 = deriv(emitter + dt * k3e, bright + dt * k3)
        emitter = emitter + (dt / 6.0) * (k1e + 2 * k2e + 2 * k3e + k4e)
        bright = bright + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        dark_weight *= dark_fade
        trace[s + 1] = emitter
        norms[s + 1] = abs(emitter) ** 2 + np.vdot(bright, bright).real \
            + float(np.sum(dark_weight))
    drift = float(np.max(np.abs(norms - norm0))) / norm0
    if drift > NORM_DRIFT_TOLERANCE:
        raise IntegrationFailureError(
            f"norm drifted by {drift:.2e}; reduce dt or refine the grid")

    modes = dark * (dark_step ** steps)[None, :, None] \
        + bright_dir * bright[None, :, None]
    # Strictly increasing grid axes make every trapezoid weight positive.
    final = GridState(grid, modes / np.sqrt(weight)[None, :, :],
                      validate=False)
    return Trajectory(coupling, config, times, trace, final, norms, norm0)


def oracle_channel_probabilities(traj: Trajectory) -> ChannelProbabilities:
    """Final per-channel probabilities of a time-domain run.

    Demands an asymptotic trajectory: the span must cover at least ten
    inverse rates and the emitter must have returned to the ground state,
    otherwise flight is still in progress and the split is meaningless.
    """
    t0, t1 = traj.config.t_span
    g = traj.coupling.total_rate
    residual = abs(traj.emitter_amplitude[-1]) ** 2 / traj.input_norm
    if (t1 - t0) * g < ASYMPTOTIC_RATE_SPAN or residual >= RESIDUAL_EXCITATION:
        raise NotAsymptoticError(
            f"run spans {(t1 - t0) * g:.2f} inverse rates with residual "
            f"excitation {residual:.2e}; extend t_span")
    weight, _, _, _ = _mode_setup(traj.coupling, traj.config.grid)
    values = {}
    for pair in PAIRS:
        b = traj.final_state.data[pair.index] * np.sqrt(weight)
        values[pair] = float(np.vdot(b, b).real) / traj.input_norm
    return ChannelProbabilities(values)
