"""Closed-form predictors and a seeded Monte Carlo engine for accumulated
random steps in high-dimensional flat, spherical, and hyperbolic geometry,
and for products of random symmetric operators with prescribed spectra.
"""

from .montecarlo import (
    ComparisonReport,
    ExperimentSpec,
    GEOMETRIES,
    HyperboloidPoint,
    MonteCarloEstimate,
    RandomStream,
    Spectrum,
    UnitVector,
    compare,
    estimate,
    prediction_for,
    run_flat_chain,
    run_hyperbolic_chain,
    run_operator_product,
    run_sphere_chain,
)
from .predictors import (
    CurvaturePath,
    PrecisionLossError,
    Prediction,
    PropositionBounds,
    coordinate_marginal_density,
    flat_expected_norm,
    gaussian_abs_moment,
    hyperbolic_log_expected_cosh,
    pnorm_pi,
    pnorm_proposition_bounds,
)
from .selftest import CriterionResult, battery_passed, render_csv, render_table, run_battery

__version__ = "0.7.0"
