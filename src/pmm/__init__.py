"""Probabilistic meshless PDE solving and uncertainty-aware inversion.

A Gaussian-process prior conditioned on point evaluations of a PDE's
forcing and boundary data yields a posterior whose mean is the symmetric
collocation solution and whose covariance quantifies discretisation
error. That covariance can be pushed into Bayesian inverse problems,
keeping parameter inferences honest when the forward discretisation is
coarse; a pseudo-marginal sampler extends this to a nonlinear, multimodal
phase-field problem.
"""

__version__ = "0.1.0"

from .forward import convergence_experiment, interior_grid_2d, sample_paths, solve_forward
from .inverse import (
    ACInverseSetup,
    CoarseSolutionCache,
    HalfCauchyPrior,
    NoiseModel,
    UniformPrior,
    ac_plugin_mcmc,
    grid_mean_std,
    grid_mode,
    grid_posterior,
    plugin_delta_scan,
    pm_mcmc,
    pn_loglik,
)
from .kernels import SqExpKernel
from .linalg import RngStream, mvn_logpdf
from .problems import DELTA_RANGE, Poisson1D, ac_deflated_solve, ac_design, generate_data

# what the demos import; everything else is reached through its module
__all__ = [
    "ACInverseSetup",
    "CoarseSolutionCache",
    "DELTA_RANGE",
    "HalfCauchyPrior",
    "NoiseModel",
    "Poisson1D",
    "RngStream",
    "SqExpKernel",
    "UniformPrior",
    "ac_deflated_solve",
    "ac_design",
    "ac_plugin_mcmc",
    "convergence_experiment",
    "generate_data",
    "grid_mean_std",
    "grid_mode",
    "grid_posterior",
    "interior_grid_2d",
    "mvn_logpdf",
    "plugin_delta_scan",
    "pm_mcmc",
    "pn_loglik",
    "sample_paths",
    "solve_forward",
]
