"""orthocat: a desk-scale numerical laboratory for the one-dimensional
orthogonality catastrophe of non-interacting fermions.

The package computes the Anderson integral, the ground-state overlap
determinant, and the decay exponent gamma(nu) by three independent routes
(scattering, operator calculus, S-matrix trace), and audits the quantitative
operator bounds that connect them.
"""

from .core import (
    ConfigurationError,
    Grid,
    Potential,
    PotentialNorms,
    SmallnessReport,
    SolverFailure,
    SystemConfig,
    build_grid,
    gaussian_truncated,
    potential_norms,
    smallness_report,
    square_well,
    support_quadrature,
    table_potential,
)
from .free import (
    NearSpectrumError,
    fermi_contour_point,
    fermi_energy,
    free_eigenfunction_matrix,
    free_eigenvalue,
    free_eigenvalues,
    green_kernel,
)
from .metrics import (
    AndersonResult,
    DetBoundsReport,
    OverlapMatrix,
    anderson_integral,
    anderson_result,
    defect_norm,
    det_bounds,
    log_transition_probability,
    overlap_matrix,
)
from .operators import (
    AuditItem,
    NystromOperator,
    birman_schwinger,
    bounds_audit,
    contour_anderson,
    gamma_matrix,
    phi_hat,
    sign_operator,
)
from .perturbed import (
    AmbiguousEnergyError,
    PerturbedEigenpair,
    bargmann_upper_bound,
    count_below,
    counting_lower_bound,
    eigenpairs,
    perturbed_eigenfunction,
    perturbed_eigenvalue,
    perturbed_eigenvalues,
    prufer_phase,
)
from .scattering import (
    ScatteringData,
    gamma_gkm,
    gamma_scattering,
    s_matrix,
    scattering_coefficients,
)
from .sweep import SweepConfig, SweepResult, load_config, run_sweep

__version__ = "0.1.0"
