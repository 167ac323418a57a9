"""Occupation-number entanglement in small second-quantized systems.

Sparse Fock-space states over an explicit mode registry, reduced
density matrices by environment-pattern grouping, model pair states
(filled seas, electron-hole pairs, coherent and number-projected pair
condensates), their closed-form entropies, and number-conserving
Hamiltonian dynamics on fixed-particle sectors.
"""

from types import ModuleType as _ModuleType

from .errors import (
    DuplicateModeError,
    FockentError,
    NormalizationError,
    NumericalInvariantError,
    RegistryMismatchError,
    SizeGuardError,
    TruncationError,
)
from .fock_core import (
    ManyBodyState,
    ModeLabel,
    ModeRegistry,
    Species,
    Spin,
    apply_annihilation,
    apply_creation,
    basis_state,
    boson,
    electron,
    enumerate_sector,
    generic,
    hole,
    inner_product,
    number_expectation,
    registry_create,
    sector_dimension,
    size_guard,
    superpose,
    vacuum_state,
)
from .entanglement import (
    ReducedDensityMatrix,
    diagonal_distribution,
    mode_entanglement,
    normalize_subset,
    reduced_density_matrix,
    subset_entropies,
    von_neumann_entropy,
)
from .analytic import (
    ApproximateDistribution,
    ExcitonMarginals,
    bcs_pair_entropy,
    bcs_projected_x,
    binary_entropy,
    bogoliubov_approx,
    bogoliubov_exact,
    compositions,
    distribution_entropy,
    elementary_symmetric,
    exciton_marginals,
    geometric_pair_distribution,
    multinomial,
    qh_entropy,
    total_variation,
)
from .states import (
    ExcitonChannel,
    PairAmplitudeTable,
    TableKind,
    bcs_projected,
    bcs_registry,
    bcs_unprojected,
    bogoliubov_projected,
    bogoliubov_registry,
    bogoliubov_unprojected,
    default_pair_cutoff,
    exciton_registry,
    exciton_spinful,
    exciton_spinless,
    fermi_sea,
    load_amplitude_table,
    project_particle_number,
    random_bcs_table,
    random_bogoliubov_c_table,
    random_exciton_table,
    random_uv_table,
    single_particle_superposition,
    table_payload,
    uniform_filling_state,
    uniform_registry,
)
from .dynamics import (
    ProperBasisReport,
    SecondQuantizedHamiltonian,
    SectorMatrix,
    check_proper_basis,
    eigenstates,
    evolve_many,
    hamiltonian_matrix,
    load_hamiltonian,
)
from .verification import CriterionResult, run_all

__version__ = "0.1.0"

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
