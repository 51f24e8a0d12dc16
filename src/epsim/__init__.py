"""Numerical laboratory for particle entanglement under a local-number
superselection rule: sector measures, the register transfer protocol,
phase-difference measurements and number-phase uncertainty bounds."""

from .fock import (
    CapacityError,
    DensityOperator,
    LayoutError,
    ModeDescriptor,
    ModeLayout,
    PureState,
    StateValidationError,
    entropy_of_entanglement,
    layout_of,
    partial_trace,
    tensor_product,
    trace_distance,
    von_neumann_entropy,
)
from .sectors import (
    local_particle_number,
    particle_entanglement,
    particle_sector_table,
    register_sector_entanglement,
    register_sector_table,
    register_sector_weights,
    sector_decompose,
)
from .protocol import (
    AncillaSpec,
    GridError,
    MeasurementOutcome,
    ProtocolConfig,
    coherent_coefficients,
    equal_different_measurement,
    hiding_operation,
    mode_overlap_integral,
    occupation_cnot,
    phase_grid_register_state,
    reference_phase_shift,
    run_transfer,
    transfer_final_state,
)
from .phase import (
    PhaseDistribution,
    apply_phase_difference_povm,
    binary_entropy,
    canonical_phase_distribution,
    coherent_visibility_model,
    concurrence_ef_oracle,
    ef_large_visibility,
    ef_upper_bound,
    entanglement_of_formation_x,
    post_measurement_register_state,
    two_qubit_concurrence,
    visibility,
)
from .uncertainty import (
    InequalityCheck,
    PhaseOperatorSpace,
    PhysicalityError,
    UncertaintyReport,
    random_uncorrelated_pair,
    robertson_checks,
    visibility_bound_check,
)

__version__ = "0.1.0"
