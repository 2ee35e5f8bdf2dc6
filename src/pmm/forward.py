"""Gaussian-process forward solver with operator observations.

A solve conditions a centred GP prior on noise-free evaluations of each
operator equation's right-hand side at scattered design points. The block
Gram matrix couples every pair of operator observations; the posterior
mean is the symmetric-collocation solution and the posterior covariance
quantifies what the finite design leaves unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    OperatorTag,
    fill_distance,
    op_gram,
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


def _points_2d(points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    return points


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
        pts = _points_2d(self.points)
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


def assemble_gram(blocks, kernel) -> np.ndarray:
    """Block Gram matrix of all operator observations.

    Entry (i, j) is the kernel with block i's operator applied to the
    first argument and block j's to the second, evaluated at the
    respective design points. Assembled block-wise and mirrored so the
    result is exactly symmetric.
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one observation block")
    sizes = [b.size for b in blocks]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    n = offs[-1]
    gram = np.empty((n, n))
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            if j < i:
                continue
            gij = op_gram(bi.op, bj.op, kernel, bi.points, bj.points)
            gram[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = gij
            if j > i:
                gram[offs[j]:offs[j + 1], offs[i]:offs[i + 1]] = gij.T
    upper = np.triu(gram)
    return upper + np.triu(gram, 1).T


def _cross_gram(blocks, kernel, X) -> np.ndarray:
    """Covariance between u(X) and every operator observation, (n, m_total)."""
    ident = OperatorTag.identity()
    cols = [op_gram(ident, b.op, kernel, X, b.points) for b in blocks]
    return np.hstack(cols)


@dataclass
class ForwardPosterior:
    """Gaussian posterior over the PDE solution after a forward solve.

    The stored factor is of the diagonally equilibrated Gram matrix
    (unit diagonal up to exact zeros); equilibration keeps the adaptive
    jitter proportional to each block's own scale, which matters when
    operator blocks and identity blocks differ by orders of magnitude.
    """

    blocks: list
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
        scaled = rhs / (self._dscale if rhs.ndim == 1 else self._dscale[:, None])
        sol = psd_solve(self.gram_factor, scaled)
        return sol / (self._dscale if rhs.ndim == 1 else self._dscale[:, None])

    def cross_cov(self, X) -> np.ndarray:
        """Prior covariance between u(X) and the observations, (n, m_total)."""
        return _cross_gram(self.blocks, self.kernel, X)

    def mean(self, X) -> np.ndarray:
        return _cross_gram(self.blocks, self.kernel, X) @ self.weights

    def cov(self, X) -> np.ndarray:
        ident = OperatorTag.identity()
        prior = op_gram(ident, ident, self.kernel, X, X)
        cross = _cross_gram(self.blocks, self.kernel, X) / self._dscale[None, :]
        cov = prior - cross @ psd_solve(self.gram_factor, cross.T)
        return 0.5 * (cov + cov.T)


def solve_forward(blocks, kernel) -> ForwardPosterior:
    """Condition the prior on all observation blocks.

    Raises
    ------
    NotPositiveDefinite
        If the (equilibrated) Gram matrix cannot be factorized.
    """
    blocks = list(blocks)
    gram = assemble_gram(blocks, kernel)
    diag = np.diag(gram).copy()
    dscale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    scaled = gram / dscale[:, None] / dscale[None, :]
    factor = chol_jitter(scaled)
    rhs = np.concatenate([b.rhs for b in blocks])
    weights = psd_solve(factor, rhs / dscale) / dscale
    return ForwardPosterior(
        blocks=blocks,
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
        blocks = problem.blocks(m, design=design)
        post = solve_forward(blocks, kernel)
        mean = post.mean(eval_grid)
        err = float(np.linalg.norm(mean - exact) / np.linalg.norm(exact))
        trace = float(np.trace(post.cov(eval_grid)))
        all_points = np.vstack([b.points for b in blocks])
        h = fill_distance(all_points, probe)
        rows.append(ConvergenceRow(m=m, h=h, err_l2_rel=err, cov_trace=trace))
    return rows
