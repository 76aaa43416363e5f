"""spingas: mean-field simulator for an optically pumped, exchange-coupled
warm alkali spin gas, with phase-diagram sweeps and critical-exponent fits."""

__version__ = "0.1.0"

from .spin_algebra import (  # noqa: F401
    AtomSpec,
    CoupledBasis,
    VectorOperator,
    angular_momentum_operators,
    build_basis,
    cesium,
    clebsch_gordan,
    dipole_operator,
    hyperfine_hamiltonian,
    zeeman_hamiltonian,
)
from .optics import (  # noqa: F401
    AtomSystem,
    CollisionParams,
    DopplerSpec,
    OpticalChannel,
    OpticalField,
    bias_field,
    cesium_collisions,
    cesium_doppler,
    coherence_fraction,
    couple_field,
    excited_quasi_steady,
    pump_field,
    repopulation,
    transition_probability_table,
)
from .dynamics import (  # noqa: F401
    CompiledModel,
    IntegrationControls,
    IntegrationError,
    SimParams,
    Trajectory,
    critical_exchange_rate,
    critical_pump_rate,
    gamma_of_temperature,
    integrate,
    project_coherences,
    response_time,
    seed_sensitivity,
    spin_exchange_term,
    steady_state,
)
from .sweep import (  # noqa: F401
    ConditionsMap,
    SweepGrid,
    SweepResult,
    density_scan,
    extract_contour,
    load_sweep,
    refine_contour,
    run_sweep,
    save_sweep,
)
from .critfit import (  # noqa: F401
    FitResult,
    FitSpec,
    NoTransitionError,
    fit,
    fit_delta,
    fit_gamma,
    fit_znu,
    susceptibility,
    three_step_fit,
)
