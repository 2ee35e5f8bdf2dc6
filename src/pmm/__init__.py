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

from .forward import (
    ForwardPosterior,
    ObservationBlock,
    assemble_gram,
    convergence_experiment,
    sample_paths,
    solve_forward,
)
from .inverse import (
    ACInverseSetup,
    CoarseSolutionCache,
    HalfCauchyPrior,
    LogUniformPrior,
    NoiseModel,
    PMEstimate,
    UniformPrior,
    ac_plugin_mcmc,
    grid_posterior,
    importance_sample_z,
    plugin_loglik,
    pm_loglik,
    pm_mcmc,
    plugin_delta_scan,
    pn_loglik,
)
from .kernels import (
    GreensKernel1D,
    OperatorTag,
    SmoothnessMeta,
    SqExpKernel,
    fd_check,
    fill_distance,
    kernel_eval,
    op_gram,
    op_kernel_eval,
)
from .linalg import (
    CholFactor,
    NotPositiveDefinite,
    RngStream,
    chol_jitter,
    mvn_logpdf,
    mvn_sample,
    psd_solve,
)
from .problems import (
    AllenCahnSpec,
    GridSolution,
    LatentField,
    Poisson1D,
    SolveFailed,
    ac_deflated_solve,
    ac_design,
    ac_residual,
    generate_data,
    linearized_ac_blocks,
    poisson_exact,
    u_from_z,
    z_from_u,
)

__all__ = [name for name in dir() if not name.startswith("_")]
