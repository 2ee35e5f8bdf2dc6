"""Gaussian-process forward solver with operator observations.

A solve conditions a centred GP prior on noise-free evaluations of each
operator equation's right-hand side at scattered design points. The
observation blocks are stacked into one observation set, points plus one
operator coefficient pair (a, c) per row, so the Gram matrix of all
observations and their covariance with u at new points are each one call
of ``kernels.gram``. The posterior mean is the symmetric-collocation
solution and the posterior covariance quantifies what the finite design
leaves unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    IDENTITY,
    OperatorTag,
    fill_distance,
    gram,
    unit_interval_probe,
    unit_square_probe,
)
from .linalg import CholFactor, RngStream, chol_jitter, mvn_sample, psd_solve

__all__ = [
    "ObservationBlock",
    "ForwardPosterior",
    "assemble_gram",
    "solve_forward",
    "sample_paths",
    "convergence_experiment",
    "ConvergenceRow",
    "interior_grid_1d",
    "nested_points_1d",
    "boundary_points_1d",
    "interior_grid_2d",
    "edge_points_2d",
]

_BOUNDARY_TOL = 1e-12


def _on_unit_boundary(points: np.ndarray) -> np.ndarray:
    near0 = np.abs(points) <= _BOUNDARY_TOL
    near1 = np.abs(points - 1.0) <= _BOUNDARY_TOL
    return np.any(near0 | near1, axis=1)


@dataclass(frozen=True)
class ObservationBlock:
    """One operator equation's observations: tag, design points, rhs values.

    Boundary-trace blocks must sit on the boundary of the unit domain and
    interior-operator blocks strictly inside it.
    """

    op: OperatorTag
    points: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts = pts[:, None] if pts.ndim == 1 else pts
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        if len(pts) < 1:
            raise ValueError("an observation block needs at least one point")
        if len(pts) != len(rhs):
            raise ValueError("points and rhs length mismatch")
        on_b = _on_unit_boundary(pts)
        if self.op.boundary and not np.all(on_b):
            raise ValueError("boundary-trace block contains interior points")
        if not self.op.boundary and np.any(on_b):
            raise ValueError("interior-operator block contains boundary points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "rhs", rhs)

    @property
    def size(self) -> int:
        return len(self.rhs)


def _stack(blocks):
    """The blocks as one observation set: points, per-row (a, c) and rhs."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one observation block")
    sizes = [b.size for b in blocks]
    coeffs = tuple(np.repeat([getattr(b.op, name) for b in blocks], sizes) for name in "ac")
    return np.vstack([b.points for b in blocks]), coeffs, np.concatenate([b.rhs for b in blocks])


def assemble_gram(blocks, kernel) -> np.ndarray:
    """Gram matrix of all operator observations, exactly symmetric: entry
    (i, j) applies row i's operator to the kernel's first argument and row
    j's to its second, at their design points."""
    points, coeffs, _ = _stack(blocks)
    return gram(kernel, points, coeffs)


def _equilibrate(gram_matrix):
    """Divide row and column i by ``s_i = sqrt(G_ii)``, or by one where that
    entry is not positive (an all-zero row); return the result and ``s``."""
    diag = np.diag(gram_matrix)
    dscale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    return gram_matrix / dscale[:, None] / dscale[None, :], dscale


@dataclass
class ForwardPosterior:
    """Gaussian posterior over the PDE solution after a forward solve of
    the observation set (``points``, ``coeffs``).

    The factor is of the equilibrated Gram matrix (unit diagonal up to
    exact zeros), which keeps the adaptive jitter proportional to each
    row's own scale where operator and identity rows differ by orders of
    magnitude.
    """

    points: np.ndarray
    coeffs: tuple
    kernel: object
    gram_factor: CholFactor
    weights: np.ndarray
    _dscale: np.ndarray = field(repr=False)

    def weights_for(self, rhs) -> np.ndarray:
        """Representer weights for alternative right-hand sides.

        ``rhs`` has the observations' total length along axis 0 and may
        carry extra columns; used for batched re-solves that share this
        posterior's Gram structure.
        """
        rhs = np.asarray(rhs, dtype=float)
        dscale = self._dscale.reshape((-1,) + (1,) * (rhs.ndim - 1))
        return psd_solve(self.gram_factor, rhs / dscale) / dscale

    def cross_cov(self, X) -> np.ndarray:
        """Prior covariance between u(X) and the observations, (n, m_total)."""
        return gram(self.kernel, X, IDENTITY, self.points, self.coeffs)

    def mean(self, X) -> np.ndarray:
        return self.cross_cov(X) @ self.weights

    def cov(self, X) -> np.ndarray:
        prior = gram(self.kernel, X, IDENTITY)
        cross = self.cross_cov(X) / self._dscale[None, :]
        cov = prior - cross @ psd_solve(self.gram_factor, cross.T)
        return 0.5 * (cov + cov.T)


def solve_forward(blocks, kernel) -> ForwardPosterior:
    """Condition the prior on all observation blocks.

    Raises
    ------
    NotPositiveDefinite
        If the (equilibrated) Gram matrix cannot be factorized.
    """
    points, coeffs, rhs = _stack(blocks)
    scaled, dscale = _equilibrate(gram(kernel, points, coeffs))
    factor = chol_jitter(scaled)
    weights = psd_solve(factor, rhs / dscale) / dscale
    return ForwardPosterior(
        points=points,
        coeffs=coeffs,
        kernel=kernel,
        gram_factor=factor,
        weights=weights,
        _dscale=dscale,
    )


def sample_paths(p: ForwardPosterior, X, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` posterior trajectories at ``X``, shape (n, len(X))."""
    return mvn_sample(p.mean(X), p.cov(X), n, rng)


# ----------------------------------------------------------------------
# design-point placement
# ----------------------------------------------------------------------

def interior_grid_1d(m: int) -> np.ndarray:
    """Equispaced interior points i/(m+1), i = 1..m, shape (m, 1)."""
    return (np.arange(1, m + 1) / (m + 1))[:, None]


def nested_points_1d(m: int) -> np.ndarray:
    """First ``m`` van der Corput points: nested, uniformly distributed.

    Prefixes of this sequence are nested by construction, which makes
    refinement sequences monotone in the Gaussian-conditioning sense.
    """
    pts = np.empty(m)
    for n in range(1, m + 1):
        f, r, denom = 0.0, n, 2.0
        while r:
            f += (r & 1) / denom
            r >>= 1
            denom *= 2.0
        pts[n - 1] = f
    return pts[:, None]


def boundary_points_1d() -> np.ndarray:
    return np.array([[0.0], [1.0]])


def interior_grid_2d(per_axis: int) -> np.ndarray:
    """Tensor grid of interior points in the unit square, (per_axis^2, 2)."""
    g = np.arange(1, per_axis + 1) / (per_axis + 1)
    a, b = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


def edge_points_2d(per_edge: int) -> np.ndarray:
    """Equispaced points on each edge of the unit square, corners excluded."""
    t = np.arange(1, per_edge + 1) / (per_edge + 1)
    zero = np.zeros(per_edge)
    one = np.ones(per_edge)
    return np.vstack([
        np.column_stack([zero, t]),
        np.column_stack([one, t]),
        np.column_stack([t, zero]),
        np.column_stack([t, one]),
    ])


# ----------------------------------------------------------------------
# convergence experiment
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    """One design size of a refinement study; serializes to CSV columns
    (m, h, err_l2_rel, cov_trace)."""

    m: int
    h: float
    err_l2_rel: float
    cov_trace: float

    FIELDS = ("m", "h", "err_l2_rel", "cov_trace")

    def astuple(self):
        return (self.m, self.h, self.err_l2_rel, self.cov_trace)


def convergence_experiment(problem, kernel, m_list, eval_grid, design: str = "nested"):
    """Refinement study: error against the exact solution and posterior trace.

    ``problem`` must provide ``blocks(m, design)`` returning observation
    blocks for a design of ``m`` interior points, and ``exact(x)`` for the
    reference solution. The error is the relative L2 norm of the mean
    minus the exact solution over ``eval_grid``; the reported ``h`` is the
    fill distance of the full design (interior and boundary points).
    """
    m_list = list(m_list)
    if any(b >= a for a, b in zip(m_list[1:], m_list)):
        raise ValueError("m_list must be increasing")
    eval_grid = np.asarray(eval_grid, dtype=float)
    probe = unit_interval_probe() if eval_grid.ndim == 1 or eval_grid.shape[1] == 1 \
        else unit_square_probe()
    exact = problem.exact(eval_grid)
    rows = []
    for m in m_list:
        post = solve_forward(problem.blocks(m, design=design), kernel)
        mean = post.mean(eval_grid)
        err = float(np.linalg.norm(mean - exact) / np.linalg.norm(exact))
        trace = float(np.trace(post.cov(eval_grid)))
        h = fill_distance(post.points, probe)
        rows.append(ConvergenceRow(m=m, h=h, err_l2_rel=err, cov_trace=trace))
    return rows
