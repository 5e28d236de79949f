"""Population-mean estimation from systematic samples under non-response.

The package covers the full pipeline: ingesting a finite population,
drawing systematic samples, simulating Hansen-Hurwitz follow-up of
non-respondents, evaluating the general auxiliary-information estimator
family, and checking its closed-form first-order bias/MSE theory by
design-based Monte Carlo.
"""

__version__ = "0.6.2"

from .design import NonResponseModel, StratumMode, SystematicDesign
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DesignError,
    DomainError,
    EstimationError,
    ParseError,
    SingularityError,
)
from .estimators import FamilyParams, family_estimate, lambda_coefficient
from .montecarlo import (
    EstimatorSpec,
    SimulationConfig,
    SimulationReport,
    compare_to_theory,
    run_simulation,
)
from .population import (
    FinitePopulation,
    PopulationMoments,
    compute_moments,
    intraclass_correlation,
    load_population,
    population_fingerprint,
    sorted_by_auxiliary,
    stratum_mean_square,
)
from .theory import (
    DerivedConstants,
    derived_constants,
    family_bias,
    family_mse,
    family_mse_min,
    fpc,
    intraclass_from_pre,
    nonresponse_term,
    optimum_alpha,
    pre_optimum,
    var_mean_x,
    var_mean_y,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "DegenerateInputError",
    "DesignError",
    "DomainError",
    "EstimationError",
    "ParseError",
    "SingularityError",
    "FinitePopulation",
    "PopulationMoments",
    "SystematicDesign",
    "NonResponseModel",
    "StratumMode",
    "FamilyParams",
    "DerivedConstants",
    "EstimatorSpec",
    "SimulationConfig",
    "SimulationReport",
    "load_population",
    "sorted_by_auxiliary",
    "intraclass_correlation",
    "compute_moments",
    "stratum_mean_square",
    "population_fingerprint",
    "family_estimate",
    "lambda_coefficient",
    "fpc",
    "derived_constants",
    "nonresponse_term",
    "var_mean_y",
    "var_mean_x",
    "family_bias",
    "family_mse",
    "optimum_alpha",
    "family_mse_min",
    "pre_optimum",
    "intraclass_from_pre",
    "run_simulation",
    "compare_to_theory",
]
