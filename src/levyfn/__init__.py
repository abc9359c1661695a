"""Integral tests, scale functions, and Monte Carlo verification for
spectrally positive Levy processes and their time-changed nonlinear
branching processes."""

from .builtin import (
    BUILTIN_NAMES,
    brownian_model,
    builtin_model,
    example_models,
    resolve_model,
    stable_power_model,
)
from .integral_tests import (
    AtInfinity,
    AtZeroPlus,
    BoundaryReport,
    Constant,
    FunctionalSpec,
    Generic,
    LaplaceRep,
    PowerLaw,
    TestVerdict,
    classify_boundary,
    constant_functional,
    explosion_test,
    extinction_test,
    improper_integral_verdict,
)
from .levy_model import (
    CompoundPoissonExp,
    JumpSpec,
    LevyModel,
    NoJumps,
    PhiZero,
    StablePositive,
    TemperedStable,
    laplace_exponent_quadrature,
    model_from_dict,
    model_from_json,
    model_to_dict,
    validate,
)
from .montecarlo import (
    CondExpFunctional,
    FunctionalFiniteness,
    FunctionalSample,
    HitProb,
    MCSummary,
    MeanPassage,
    PathConfig,
    PathSample,
    functional_along_path,
    mc_estimate,
    sample_path,
    time_changed_value,
)
from .scale_fn import (
    ScaleEvaluator,
    conditional_exp_constant_closed_form,
    conditional_exp_transform,
    laplace_identity_residual,
    occupation_transform,
)

__version__ = "0.1.0"
