"""riskmix: exact distributions, dependence measures, risk measures and ruin
formulas for sums of dependent risks built from mixtures of exponential
(and gamma) distributions."""

from .aggregate import (
    AggregateModel,
    Beta2Component,
    GammaPowerComponent,
    MixtureRepresentation,
    cdf,
    gamma_claims_model,
    inverse_gaussian_model,
    lindley_model,
    mean,
    mixture_representation,
    moment,
    moment_from_mixture,
    pareto_model,
    pdf,
    pdf_closed,
    pdf_generic,
    survival,
    variance,
    weibull_half_model,
    weibull_model,
)
from .asymptotics import ParetoTailSpec, tail_pdf_gamma, tail_pdf_generic, tail_pdf_ig
from .dependence import (
    DependentVector,
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
from .gammaext import (
    GammaMixtureModel,
    SibuyaModel,
    gm_sum_pdf,
    sibuya_marginal_pdf,
    sibuya_moments,
    sibuya_sum_moment,
    sibuya_sum_pdf,
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
    faa_di_bruno,
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
    lindley_sum_pdf,
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
