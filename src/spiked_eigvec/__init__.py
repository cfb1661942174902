"""Exact finite-dimensional densities of spiked-Wishart eigenvector overlaps.

The package computes the probability densities of the squared projections of
a rank-one population spike onto ordered sample eigenvectors, for complex,
real (n = 2), and singular Wishart matrices, together with the scaled
asymptotic limit law, and validates every formula against a built-in
reproducible Monte-Carlo sampler.
"""

__version__ = "0.1.0"

from .numkit import EmptySample, GofReport, ks_test  # noqa: F401
from .spike_density import (  # noqa: F401
    DomainError,
    SpikedModel,
    ThetaZeroSingularity,
    UnsupportedModel,
    cdf_grid,
    cdf_nz1_asymptotic,
    density_values,
    model_cdf_fn,
    pdf_nz1_asymptotic,
    pdf_z1,
    pdf_z2,
    pdf_zn,
)
from .variant_density import (  # noqa: F401
    pdf_w1_real,
    pdf_w2_real,
    pdf_y1_singular,
    pdf_yn_singular,
)
from .montecarlo import (  # noqa: F401
    EigensolverFailure,
    InvalidCount,
    make_spike,
    sample_wishart,
)
