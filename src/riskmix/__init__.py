"""riskmix: exact distributions, dependence measures, risk measures and ruin
formulas for sums of dependent risks built from mixtures of exponential
and gamma distributions: one claim model, AggregateModel(mixing, shapes)."""

from .aggregate import (
    AggregateModel,
    cdf,
    gamma_claims_model,
    inverse_gaussian_model,
    lindley_model,
    mean,
    moment,
    pareto_model,
    pdf,
    pdf_generic,
    sibuya_model,
    survival,
    variance,
    weibull_half_model,
    weibull_model,
)
from .asymptotics import ParetoTailSpec, tail_pdf_generic
from .dependence import (
    joint_moment,
    joint_survival,
    kendall_tau,
    kendall_tau_closed,
    kendall_tau_numeric,
    pearson_rho,
    survival_copula,
)
from .errors import (
    DerivativeCapError,
    NonexistentMomentError,
    PrecisionError,
    RiskmixError,
    TailUnderflowError,
    UnsupportedModelError,
)
from .mixing import (
    BetaSecondKindMixing,
    GammaMixing,
    GleserGammaMixing,
    InverseGaussianMixing,
    LevyMixing,
    LindleyMixing,
    MixingDistribution,
    PositiveStableMixing,
)
from .riskmeasures import RiskReport, risk_report, tail_moment, tvar, value_at_risk
from .ruin import (
    CompoundDensityValue,
    CompoundModel,
    LogarithmicCounts,
    NegativeBinomialCounts,
    PoissonCounts,
    compound_pdf,
    compound_pdf_series,
    geometric_counts,
    primary_tail_mass,
    ruin_probability,
    ruin_probability_limit,
)
from .simulate import (
    SimulationPlan,
    empirical_ks,
    load_samples,
    quadrature_mixture_pdf,
    sample_sums,
    sample_vector,
    save_samples,
)

__version__ = "0.1.0"
