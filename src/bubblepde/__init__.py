"""Numerical toolkit for European option prices in one-dimensional diffusion
markets whose price process is a strict local martingale (a bubble).

The pieces: an algebra of smooth space transforms with their Schwarzian
calculus (`smoothmaps`), seeded ensemble path runners including the
reflected floor-constrained SDE (`pathlab`), Monte Carlo boundary/price
estimators (`boundary`), a finite-difference solver with interchangeable
boundary schemes (`pdesolve`), closed-form references (`closedform`), and a
CLI (`cli`).
"""

from .errors import ConfigError, DomainError, NumericsError
from .smoothmaps import (
    SmoothMap,
    affine_map,
    compose,
    from_descriptor,
    log_map,
    mobius_map,
    power_law_map,
    pre_schwarzian,
    reciprocal_map,
    schwarzian,
    schwarzian_process,
)
from .pathlab import (
    PathBundle,
    TimeGrid,
    change_of_measure_expectation,
    future_infimum,
    path_stream,
)
from .boundary import (
    PayoffSpec,
    ThetaTable,
    decompose_phi_psi,
    estimate_theta,
    price_and_decompose,
    price_fundraiser_mc,
)
from .pdesolve import (
    FundraiserScheme,
    NaiveDirichletScheme,
    NeumannCapScheme,
    PdeSolution,
    SpaceGrid,
    TaperedTerminalScheme,
    TransformedCauchyScheme,
    corner_defect,
    f_from_sigma,
    is_strict_local_martingale,
    solve,
)
from .closedform import (
    bond_bm,
    delta_bm_fundraiser,
    forward_bm_fundraiser,
    forward_bm_investor,
    forward_recip_bessel_fundraiser,
    forward_recip_bessel_investor,
    norm_cdf,
    norm_pdf,
    theta_recip_bessel_forward,
)

__version__ = "0.1.0"
