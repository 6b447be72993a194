"""skewtail: largest-singular-value laws of skew-symmetric Gaussian
matrices, with subtractivity tests for paired comparisons.

The public surface re-exported here covers the analytic distributions
(:mod:`skewtail.rmtdist`), the seeded Monte-Carlo oracle
(:mod:`skewtail.mc`), the Scheffe paired-comparison pipeline
(:mod:`skewtail.paired`), and the special functions backing them
(:mod:`skewtail.specfun`).  ``python -m skewtail.cli`` (or the
``skewtail`` script) exposes the same functionality on the command
line.
"""

from .errors import (
    DataError,
    DomainError,
    ExcludedPointError,
    MultiplicityError,
    PairingError,
    SkewtailError,
    ValidityError,
)
from .mc import (
    SkewMatrix,
    TopPlane,
    empirical_upper,
    ks_distance,
    sample_spectra,
    sample_tops,
)
from .paired import (
    ContrastPair,
    ScheffeFit,
    ScoreSheet,
    SkewObservations,
    TestReport,
    build_report,
    chi_square_test,
    contrast_value,
    deadlock_contrast_pair,
    largest_sv_test,
    lrt_standardized_test,
    max_deadlock,
    residual_embedding,
    scheffe_fit,
    signed_area,
    variance_stabilize,
)
from .rmtdist import (
    CRITICAL_POINT,
    HankelGram,
    SpectrumLaw,
    critical_radius_objective,
    euler_characteristic,
    hankel_gram,
    joint_density,
    largest_sv_cdf,
    largest_sv_tail_asymptotic,
    largest_sv_upper,
    normalizing_constants,
    spectrum_law,
    standardized_sv_upper,
    volume_U,
)
from .specfun import beta_upper, chi2_upper, log_gamma

__version__ = "0.1.0"

__all__ = [
    "CRITICAL_POINT",
    "DataError",
    "DomainError",
    "ExcludedPointError",
    "HankelGram",
    "MultiplicityError",
    "PairingError",
    "ScheffeFit",
    "ScoreSheet",
    "SkewMatrix",
    "SkewObservations",
    "SkewtailError",
    "SpectrumLaw",
    "TestReport",
    "TopPlane",
    "ValidityError",
    "beta_upper",
    "ContrastPair",
    "build_report",
    "chi2_upper",
    "chi_square_test",
    "contrast_value",
    "critical_radius_objective",
    "deadlock_contrast_pair",
    "empirical_upper",
    "euler_characteristic",
    "hankel_gram",
    "joint_density",
    "ks_distance",
    "largest_sv_cdf",
    "largest_sv_tail_asymptotic",
    "largest_sv_test",
    "largest_sv_upper",
    "log_gamma",
    "lrt_standardized_test",
    "max_deadlock",
    "normalizing_constants",
    "residual_embedding",
    "sample_spectra",
    "sample_tops",
    "scheffe_fit",
    "signed_area",
    "spectrum_law",
    "standardized_sv_upper",
    "variance_stabilize",
    "volume_U",
]
