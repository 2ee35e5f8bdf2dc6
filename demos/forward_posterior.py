"""Solve a 1D Poisson problem with the probabilistic meshless solver.

The solver never meshes the domain: it conditions a Gaussian-process
prior on point evaluations of the forcing (through the differential
operator) and of the boundary values. The posterior mean is the classic
symmetric-collocation solution; the posterior spread says how much the
finite design leaves undetermined.

Run:  python3 demos/forward_posterior.py
"""

import numpy as np

from pmm import Poisson1D, RngStream, SqExpKernel, sample_paths, solve_forward

problem = Poisson1D()          # -u'' = sin(2 pi x), u(0) = u(1) = 0
kernel = SqExpKernel(0.2)
grid = np.linspace(0.0, 1.0, 256)
exact = problem.exact(grid)

print("design size -> error and pointwise uncertainty")
for m in (5, 10, 20, 40):
    post = solve_forward(problem.blocks(m), kernel)
    mean = post.mean(grid)
    sd = np.sqrt(post.var(grid))
    err = np.linalg.norm(mean - exact) / np.linalg.norm(exact)
    print(f"  m = {m:2d}: relative L2 error {err:.2e}, max posterior sd {sd.max():.2e}")

# a few posterior trajectories at the coarsest design
post = solve_forward(problem.blocks(10), kernel)
draws = sample_paths(post, grid, 20, RngStream(0))
print(f"\n20 sample paths at m = 10: spread at x = 0.25 is "
      f"{draws[:, 64].std():.3e} (exact value {exact[64]:.3e})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(grid, draws.T, color="steelblue", alpha=0.25, lw=0.8)
    ax.plot(grid, exact, "k--", label="exact solution")
    ax.plot(grid, post.mean(grid), "C1", label="posterior mean (m = 10)")
    ax.legend()
    ax.set_xlabel("x")
    fig.savefig("forward_posterior.png", dpi=120, bbox_inches="tight")
    print("wrote forward_posterior.png")
except ImportError:
    pass
