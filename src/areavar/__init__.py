"""Generalized-area functionals: measure calculus, minimization, geometry."""

from .grids import (
    CellScalarField,
    EnergySpec,
    GridDomain,
    ScalarField,
    SingularSet,
    SolvedField,
    VectorField,
    area_energy,
    field_to_measure,
    gradient,
    gradient_measure,
    hypothesis_checks,
    singular_set,
)
from .measures import (
    RNDecomposition,
    VariationReport,
    VectorMeasure,
    decompose,
    first_variation_pm,
    line_energy,
    line_variation,
    second_variation,
    singular_epsilons,
    structural_identity_residual,
    total_variation,
)
from .solver import (
    SolveResult,
    SolverConfig,
    comparison_check,
    continuation_minimize,
    energy_bound_check,
    solve_regularized,
)
from .variation import (
    DirectionField,
    SingularCurve,
    angle_condition,
    fd_validate,
    minimizer_first_variation,
    second_variation_graph,
)
from .geometry import (
    Coframe,
    DefiningData,
    area_element,
    area_element_coeff,
    contract_form,
    contraction_identity_residual,
    graph_area_density,
    mean_curvature_euclidean,
    p_mean_curvature,
)

__version__ = "1.0.0"
