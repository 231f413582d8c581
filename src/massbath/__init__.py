"""Entanglement dynamics of two static qubits coupled to a massive scalar bath.

The package computes the GKLS rate coefficients of the bath (vacuum or
thermal), propagates X-form two-qubit states exactly, evaluates concurrence
and negativity, and provides a sweep/verification harness plus a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    FrozenDynamicsError,
    MassbathError,
    NoGenerationError,
    NonConvergedMaxError,
    NonXFormError,
    NotAStateError,
    StepUnderflowError,
    SweepCellError,
)
from .field_bath import (
    FieldBathConfig,
    GklsCoefficients,
    coefficients,
    gamma0,
    gray_factor,
    spatial_factor,
    spectral_density,
    thermal_coefficients,
    vacuum_coefficients,
)
from .xstate import (
    EigenPropagator,
    RateMatrix,
    Trajectory,
    XState,
    build_rate_matrix,
    closed_form_state,
    closed_form_trajectory,
    decay_factor,
    eigen_trajectory,
    from_product_basis,
    integrate_ode,
    integrate_ode_many,
    random_xstate,
    to_product_basis,
)
from .measures import (
    CONCURRENCE_CUTOFF,
    NEGATIVITY_CUTOFF,
    EntanglementEvents,
    EntanglementValue,
    concurrence,
    detect_events,
    entanglement,
    lifetime,
    negativity,
    sudden_death_condition,
)
from .experiments import (
    CoefficientCheck,
    SuiteResult,
    SweepResult,
    enlargement_factor,
    evolve_scan,
    generation_reach,
    lifetime_by_bisection,
    run_verification,
    scaling_check,
    thermal_generation_threshold,
    thermal_scan,
    verify_coefficients,
)
