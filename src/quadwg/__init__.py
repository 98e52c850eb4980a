"""Two-photon physics of a quadratically coupled waveguide emitter.

The emitter exchanges photons only in pairs: single photons pass through
untouched while copropagating pairs within the coupling envelope scatter,
an excited emitter decays by pair emission, filtered counter-propagating
pairs carry frequency-bin entanglement, and a mirror configuration yields
a controlled-phase gate.  Everything is expressed in half-plane
coordinates (sum frequency, nonnegative difference frequency) with the
resonance frequency as the natural unit.

Submodules: ``spectral`` (states, envelopes, grids), ``scattering``,
``emission``, ``entanglement``, ``gate``, ``timedomain`` (the exact
integrator used as ground truth), ``cli``.
"""

from .emission import (
    EmissionSpectrum,
    emitted_amplitude,
    excited_amplitude,
    joint_spectrum,
)
from .entanglement import (
    FilterPair,
    TwoQubitState,
    bell_fidelity,
    entanglement_entropy,
    entropy_sweeps,
    postselect_filtered_state,
)
from .errors import (
    EmptyPostselectionError,
    IntegrationFailureError,
    IntegrationWarning,
    InvalidEnvelopeError,
    InvalidOverlapError,
    InvalidStateError,
    MarkovValidityWarning,
    NotAsymptoticError,
    TruncationError,
    TruncationWarning,
    UndefinedCorrelationError,
    UnsupportedConfigurationError,
)
from .gate import (
    GateReport,
    PulseShape,
    gate_overlap,
    gate_report,
    infidelity_sweep,
    mirror_reflection,
    truth_table,
    worst_case_fidelity,
)
from .scattering import (
    ChannelProbabilities,
    ScatterOutput,
    channel_probabilities,
    gaussian_closed_form,
    probability_bounds,
    reflection_sweep,
    scatter,
    scattering_amplitude,
    transfer_coefficient,
)
from .spectral import (
    CouplingSpec,
    DirectionPair,
    Envelope,
    FrequencyGrid,
    GridState,
    SeparableState,
    decompose,
    gaussian_biphoton,
    project_on_envelope,
)
from .timedomain import (
    ExcitedEmitter,
    TimeDomainConfig,
    Trajectory,
    integrate,
    oracle_channel_probabilities,
    with_arrival_delay,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelProbabilities",
    "CouplingSpec",
    "DirectionPair",
    "EmissionSpectrum",
    "EmptyPostselectionError",
    "Envelope",
    "ExcitedEmitter",
    "FilterPair",
    "FrequencyGrid",
    "GateReport",
    "GridState",
    "IntegrationFailureError",
    "IntegrationWarning",
    "InvalidEnvelopeError",
    "InvalidOverlapError",
    "InvalidStateError",
    "MarkovValidityWarning",
    "NotAsymptoticError",
    "PulseShape",
    "ScatterOutput",
    "SeparableState",
    "TimeDomainConfig",
    "Trajectory",
    "TruncationError",
    "TruncationWarning",
    "TwoQubitState",
    "UndefinedCorrelationError",
    "UnsupportedConfigurationError",
    "bell_fidelity",
    "channel_probabilities",
    "decompose",
    "emitted_amplitude",
    "entanglement_entropy",
    "entropy_sweeps",
    "excited_amplitude",
    "gate_overlap",
    "gate_report",
    "gaussian_biphoton",
    "gaussian_closed_form",
    "infidelity_sweep",
    "integrate",
    "joint_spectrum",
    "mirror_reflection",
    "oracle_channel_probabilities",
    "postselect_filtered_state",
    "probability_bounds",
    "project_on_envelope",
    "reflection_sweep",
    "scatter",
    "scattering_amplitude",
    "transfer_coefficient",
    "truth_table",
    "with_arrival_delay",
    "worst_case_fidelity",
]
