"""Closed-form predictors and a seeded Monte Carlo engine for accumulated
random steps in high-dimensional flat, spherical, and hyperbolic geometry,
and for products of random symmetric operators with prescribed spectra.
"""

from .chains import (
    ChainResult,
    OperatorProductResult,
    run_flat_chain,
    run_hyperbolic_chain,
    run_operator_product,
    run_sphere_chain,
)
from .geometry import (
    HyperboloidPoint,
    SymMatrix,
    UnitVector,
    euclid_inner,
    hs_norm,
    lorentz_boost_from_e1,
    minkowski_inner,
    pnorm_pi,
)
from .montecarlo import (
    ComparisonReport,
    ExperimentSpec,
    GEOMETRIES,
    MonteCarloEstimate,
    compare,
    estimate,
)
from .predictors import (
    CurvaturePath,
    PrecisionLossError,
    Prediction,
    PropositionBounds,
    coordinate_marginal_density,
    flat_expected_norm,
    flat_expected_sq_norm,
    flat_fourth_moment,
    flat_prediction,
    flat_sigma,
    flat_sigma_bound,
    gaussian_abs_moment,
    gaussian_sq_std,
    hyperbolic_expected_cosh,
    hyperbolic_log_expected_cosh,
    hyperbolic_prediction,
    hyperbolic_sigma,
    hyperbolic_sigma_bound,
    kappa_cosine_product,
    kappa_norm_product,
    marginal_moment_prediction,
    monomial_integral,
    monomial_prediction,
    operator_expected_cosine,
    operator_norm_multiplier,
    operator_prediction,
    operator_product_cosine,
    operator_product_prediction,
    pnorm_proposition_bounds,
    prediction_for,
    sphere_expected_cosine,
    sphere_prediction,
    sphere_sigma,
    sphere_sigma_bound,
)
from .sampling import (
    RandomStream,
    Spectrum,
    flat_step,
    gaussian_vector,
    haar_orthogonal,
    hyperbolic_step,
    random_symmetric_with_spectrum,
    sphere_step,
    uniform_unit_sphere,
)
from .selftest import CriterionResult, battery_passed, render_csv, render_table, run_battery

__version__ = "0.1.0"
