"""Why discretisation-aware likelihoods matter in parameter estimation.

Estimating the diffusion coefficient theta from two noisy solution
observations: the plug-in likelihood trusts the solver output no matter
how coarse the design is, so its posterior is equally confident at
m = 4 and m = 16 design points (and biased when coarse). The
solver-marginalized likelihood inflates the noise by the forward
posterior covariance, so coarse designs give honest, wide posteriors
that sharpen as the design refines.

Run:  python3 demos/inverse_widening.py
"""

import numpy as np

from pmm import (
    NoiseModel,
    Poisson1D,
    RngStream,
    SqExpKernel,
    UniformPrior,
    generate_data,
    grid_mean_std,
    grid_mode,
    grid_posterior,
    mvn_logpdf,
    pn_loglik,
    solve_forward,
)

theta0, sigma = 1.0, 0.001
locations = np.array([0.25, 0.75])
y = generate_data(theta0, locations, sigma, RngStream(42))
noise = NoiseModel.isotropic(sigma, 2)
prior = UniformPrior(0.25, 4.0)
grid = np.linspace(0.4, 2.5, 300)
kernel = SqExpKernel(0.2)

print(f"data: y = {np.round(y, 5)} at x = {locations} (sigma = {sigma})\n")
print(f"{'m':>4} {'aware: std / mode':>22} {'plug-in: std / mode':>22}")
for m in (4, 8, 16):
    # one solve at theta = 1 serves every theta: the forcing is theta-free and
    # the boundary data are zero, so the mean scales as 1/theta and the
    # covariance does not change
    post = solve_forward(Poisson1D(1.0).blocks(m), kernel)
    means = post.mean(locations[:, None]) / grid[:, None]
    aware = grid_posterior(grid, prior, pn_loglik(y, means, post.cov(locations[:, None]), noise))
    plug = grid_posterior(grid, prior, mvn_logpdf(y, means, noise.cov))
    a_std = grid_mean_std(grid, aware)[1]
    p_std = grid_mean_std(grid, plug)[1]
    print(f"{m:>4} {a_std:>12.4f} / {grid_mode(grid, aware):5.3f}"
          f" {p_std:>12.4f} / {grid_mode(grid, plug):5.3f}")

print("\nthe solver-aware posterior narrows with the design;"
      "\nthe plug-in posterior stays equally confident even when coarse")
