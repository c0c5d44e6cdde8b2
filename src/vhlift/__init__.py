"""Blind super-resolution of point sources via a lifted block-Hankel
nuclear-norm program, with MUSIC-style frequency retrieval and Monte Carlo
experiment harnesses."""

from .lift import (
    LiftShape,
    hankel_weights,
    iso_lift,
    iso_lift_adjoint,
    stacked_hankel,
    vec_hankel,
    vec_hankel_adjoint,
)
from .model import (
    IncoherenceReport,
    PointSourceModel,
    VandermondeFactors,
    add_noise,
    apply_measurement,
    apply_measurement_adjoint,
    build_vandermonde_factors,
    incoherence_diagnostic,
    noise_sigma,
    sample_model,
    sample_subspace,
    steering_matrix,
    synthesize_data_matrix,
    wraparound_gap,
)
from .solver import (
    SolveReport,
    SolverConfig,
    nuclear_norm,
    solve_vhl,
    svt,
)
from .estimate import (
    PeakSelection,
    PseudospectrumCurve,
    RecoveredSources,
    noise_subspace,
    pick_peaks,
    pseudospectrum,
    recover_amplitudes,
)
from .bench import (
    PhaseTransitionConfig,
    SweepConfig,
    SweepResult,
    TrialGrid,
    estimate_frequencies,
    hausdorff_distance,
    relative_error,
    run_phase_transition,
    run_snr_sweep,
)

__version__ = "0.1.0"
