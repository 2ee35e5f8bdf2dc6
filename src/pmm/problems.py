"""Concrete PDE problems: a 1D Poisson family with a closed-form solution
and the steady-state Allen-Cahn system with its coarse multimodal solver.

The Allen-Cahn interior equation ``-delta lap(u) + (u^3 - u)/delta = 0``
splits, through a latent field ``z``, into a pair of equations that are
linear in ``u`` once ``z`` is fixed:

    delta * (-lap u) - u / delta = z        (interior operator equation)
    u = cbrt(-delta z)                      (pointwise identity data)

which is what lets the Gaussian forward solver handle a cubic problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .forward import (
    ObservationBlock,
    boundary_points_1d,
    edge_points_2d,
    interior_grid_1d,
    interior_grid_2d,
    nested_points_1d,
)
from .kernels import OperatorTag
from .linalg import RngStream

__all__ = [
    "SolveFailed",
    "poisson_exact",
    "Poisson1D",
    "generate_data",
    "DELTA_RANGE",
    "MIN_GRID_N",
    "GridSolution",
    "ACDesign",
    "ac_design",
    "ac_deflated_solve",
]

DELTA_RANGE = (0.02, 0.15)
MIN_GRID_N = 16  # fewest interior nodes per axis that ac_deflated_solve accepts
_NEWTON_TOL = 1e-11  # sup-norm residual at which a Newton run has converged
# a full Newton step that cuts the sup-norm residual by at least this factor
# keeps its Jacobian's LU for the next step (chord/Shamanskii Newton)
_CHORD_CONTRACTION = 0.1

# boundary values on the unit square: +1 where x1 hits an edge, -1 where x2 does
_AC_BOUNDARY = (1.0, 1.0, -1.0, -1.0)  # (x1=0, x1=1, x2=0, x2=1)


class SolveFailed(Exception):
    """The nonlinear solver found no converged solution."""


# ----------------------------------------------------------------------
# 1D Poisson with sinusoidal forcing
# ----------------------------------------------------------------------

def poisson_exact(theta: float, x) -> np.ndarray:
    """Solution of ``-theta u'' = sin(2 pi x)`` with u(0) = u(1) = 0.

    Integrating twice and fitting the boundary values gives
    ``u(x) = sin(2 pi x) / (4 pi^2 theta)``; the tests cross-check this
    against an independent finite-difference solve.
    """
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    x = np.asarray(x, dtype=float)
    return np.sin(2.0 * np.pi * x) / (4.0 * np.pi**2 * theta)


@dataclass(frozen=True)
class Poisson1D:
    """``-d/dx (theta du/dx) = sin(2 pi x)`` on (0, 1), zero boundary data."""

    theta: float = 1.0

    def __post_init__(self):
        if not self.theta > 0.0:
            raise ValueError("theta must be positive")

    def forcing(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.sin(2.0 * np.pi * x)

    def exact(self, x) -> np.ndarray:
        return poisson_exact(self.theta, np.asarray(x, dtype=float).reshape(-1))

    def blocks(self, m: int, design: str = "uniform") -> list:
        """Interior forcing observations plus the two boundary values."""
        if design == "uniform":
            xi = interior_grid_1d(m)
        elif design == "nested":
            xi = nested_points_1d(m)
        else:
            raise ValueError(f"unknown design mode {design!r}")
        xb = boundary_points_1d()
        return [
            ObservationBlock(OperatorTag(self.theta, 0.0), xi, self.forcing(xi[:, 0])),
            ObservationBlock(OperatorTag.boundary_trace(), xb, np.zeros(len(xb))),
        ]


def generate_data(theta0: float, locations, sigma: float, rng: RngStream) -> np.ndarray:
    """Noisy solution observations ``u(x_i) + N(0, sigma^2)``."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    locations = np.asarray(locations, dtype=float).reshape(-1)
    noise = sigma * rng.generator().standard_normal(locations.size)
    return poisson_exact(theta0, locations) + noise


# ----------------------------------------------------------------------
# steady-state Allen-Cahn on the unit square
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridSolution:
    """A converged discrete solution on the N-by-N interior lattice.

    ``u`` is indexed ``[j, i]`` for the node at ``((i+1) h, (j+1) h)``
    with ``h = 1/(N+1)``.
    """

    n: int
    u: np.ndarray
    solution_index: int
    residual_norm: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).reshape(self.n, self.n)
        if np.max(np.abs(u)) > 1.5:
            raise ValueError("solution values outside the physical range [-1.5, 1.5]")
        object.__setattr__(self, "u", u)

    @property
    def coords(self) -> np.ndarray:
        return np.arange(1, self.n + 1) / (self.n + 1)

    def center_value(self) -> float:
        mid = self.n // 2
        return float(self.u[mid, mid])

    def interpolate(self, points) -> np.ndarray:
        """Bilinear interpolation at points inside the unit square.

        The interior lattice is padded with the Dirichlet boundary ring;
        the four corners get the average of the conflicting edge values.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        n = self.n
        full = np.zeros((n + 2, n + 2))
        full[1:-1, 1:-1] = self.u
        left, right, bottom, top = _AC_BOUNDARY
        full[1:-1, 0] = left
        full[1:-1, -1] = right
        full[0, 1:-1] = bottom
        full[-1, 1:-1] = top
        full[0, 0] = full[0, -1] = full[-1, 0] = full[-1, -1] = 0.5 * (left + bottom)
        coords = np.concatenate([[0.0], self.coords, [1.0]])
        if not np.all((points >= 0.0) & (points <= 1.0)):
            raise ValueError("points must lie in the unit square")
        # lower-left lattice node of each point's cell; the top edge belongs
        # to the last cell
        i = np.clip(np.searchsorted(coords, points[:, 0], side="right") - 1, 0, n)
        j = np.clip(np.searchsorted(coords, points[:, 1], side="right") - 1, 0, n)
        y0 = (points[:, 0] - coords[i]) / (coords[i + 1] - coords[i])
        y1 = (points[:, 1] - coords[j]) / (coords[j + 1] - coords[j])
        v = full.T  # v[i, j] is the node at (coords[i], coords[j])
        return (v[i, j] * (1 - y0) * (1 - y1) + v[i, j + 1] * (1 - y0) * y1
                + v[i + 1, j] * y0 * (1 - y1) + v[i + 1, j + 1] * y0 * y1)


def _lap(u: np.ndarray, n: int, h: float) -> np.ndarray:
    """5-point Laplacian of flat interior values ``u``, zero boundary data."""
    v = u.reshape(n, n)
    out = -4.0 * v
    out[1:] += v[:-1]
    out[:-1] += v[1:]
    out[:, 1:] += v[:, :-1]
    out[:, :-1] += v[:, 1:]
    return out.ravel() / h**2


def _boundary_source(n: int, h: float) -> np.ndarray:
    left, right, bottom, top = _AC_BOUNDARY
    b = np.zeros((n, n))
    b[:, 0] += left
    b[:, -1] += right
    b[0, :] += bottom
    b[-1, :] += top
    return b.ravel() / h**2


def _stencil_residual(u, delta: float, n: int, h: float, bsrc: np.ndarray) -> np.ndarray:
    """Allen-Cahn residual of flat interior values ``u``, boundary source ``bsrc``."""
    return -delta * (_lap(u, n, h) + bsrc) + (u * u * u - u) / delta


def _deflation(u, roots):
    """Deflation multiplier ``prod(1/|u - r|^2 + 1)`` and its gradient."""
    m = 1.0
    for r in roots:
        m *= float(np.dot(u - r, u - r)) ** -1.0 + 1.0
    grad = np.zeros_like(u)
    for r in roots:
        d2 = float(np.dot(u - r, u - r))
        grad += (m / (d2 ** -1.0 + 1.0)) * (-2.0 * (u - r) * d2 ** -2.0)
    return m, grad


def _jacobian_band(delta: float, n: int) -> np.ndarray:
    """``-delta lap`` in LAPACK general-band storage with kl = ku = n.

    Entry ``A[i, k]`` sits at ``[2n + i - k, k]``; the top n rows are the
    room that partial pivoting needs, and row 2n is the main diagonal.
    """
    h = 1.0 / (n + 1)
    nn = n * n
    off = -delta / h**2
    same_row = np.arange(1, nn) % n != 0  # nodes k-1, k on one lattice row
    band = np.zeros((3 * n + 1, nn), order="F")
    band[n, n:] = off                       # A[k - n, k]
    band[2 * n - 1, 1:] = off * same_row    # A[k - 1, k]
    band[2 * n] = 4.0 * delta / h**2        # A[k, k]
    band[2 * n + 1, :-1] = off * same_row   # A[k + 1, k]
    band[3 * n, :-n] = off                  # A[k + n, k]
    return band


def _jacobian_factor(band: np.ndarray, u: np.ndarray, delta: float):
    """Banded LU of the Jacobian ``-delta lap + diag((3u^2 - 1)/delta)`` at
    ``u``, as LAPACK ``dgbtrf``'s (factor, pivots); None when singular."""
    n = (band.shape[0] - 1) // 3
    ab = band.copy(order="F")
    ab[2 * n] += (3.0 * u**2 - 1.0) / delta
    lu, piv, info = dgbtrf(ab, n, n, overwrite_ab=True)
    return (lu, piv) if info == 0 else None


def _jacobian_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """Solve ``J x = rhs`` with a factor from :func:`_jacobian_factor`."""
    lu, piv = factor
    n = (lu.shape[0] - 1) // 3
    return dgbtrs(lu, n, n, rhs, piv)[0]


def _newton_ac(delta, n, u0, roots, band, maxiter=200):
    """Deflated Newton from ``u0`` with Jacobian band ``band``; returns the
    last iterate, whether it converged, and its sup-norm residual.

    A step that is taken in full and cuts the residual at least by
    ``_CHORD_CONTRACTION`` keeps its LU for the next step; any other step
    refactors at the next iterate, so only the endgame near a root reuses one.
    A run whose step cuts the residual at none of 12 halvings has stalled
    and fails there, rather than wander on unchecked steps whose end
    depends on rounding.
    """
    h = 1.0 / (n + 1)
    bsrc = _boundary_source(n, h)
    u = u0.copy()
    res = _stencil_residual(u, delta, n, h, bsrc)
    rnorm = float(np.max(np.abs(res)))
    factor = None
    for _ in range(maxiter):
        if rnorm < _NEWTON_TOL:
            return u, True, rnorm
        if factor is None:
            factor = _jacobian_factor(band, u, delta)
            if factor is None:
                return u, False, rnorm
        step = _jacobian_solve(factor, -res)
        if roots:
            m, grad = _deflation(u, roots)
            denom = 1.0 - float(grad @ step) / m
            if abs(denom) < 1e-12:
                return u, False, rnorm
            step = step / denom
        # backtrack on the sup-norm residual; full steps near convergence
        alpha = 1.0
        for _ in range(12):
            cand = u + alpha * step
            if np.all(np.isfinite(cand)):
                rnew = _stencil_residual(cand, delta, n, h, bsrc)
                if float(np.max(np.abs(rnew))) < rnorm or rnorm < 1e-6:
                    break
            alpha *= 0.5
        else:  # no trial cut the residual: the run has stalled
            return u, False, rnorm
        u, res = cand, rnew
        if np.max(np.abs(u)) > 10.0:
            return u, False, rnorm
        rprev, rnorm = rnorm, float(np.max(np.abs(res)))
        if alpha < 1.0 or rnorm > _CHORD_CONTRACTION * rprev:
            factor = None
    return u, False, rnorm


def _initial_guesses(n: int, delta: float) -> list:
    h = 1.0 / (n + 1)
    x = np.arange(1, n + 1) * h
    x1, x2 = np.meshgrid(x, x, indexing="xy")
    w = max(np.sqrt(2.0) * delta, 1.5 * h)
    d1 = np.minimum(x1, 1.0 - x1)
    d2 = np.minimum(x2, 1.0 - x2)
    saddle = np.tanh((d2 - d1) / w).ravel()
    plus = (-1.0 + 2.0 * np.tanh(d2 / w)).ravel()
    minus = (1.0 - 2.0 * np.tanh(d1 / w)).ravel()
    return [saddle, plus, minus, np.zeros(n * n)]


def ac_deflated_solve(delta: float, n: int, seeds=()) -> list:
    """All distinct solutions of the discrete Allen-Cahn system.

    One Newton run, each step backtracking from a full step, starts from
    each of the ``seeds`` in turn (continuation guesses from solutions at
    a nearby ``delta``), then from a saddle-shaped guess, two one-phase
    profiles and zero, until three solutions are found. Each later run
    minimizes the residual deflated by the solutions already found, which
    blocks reconvergence to a known root. Solutions are deduplicated at
    sup-norm distance 0.1, sorted by their value at the domain centre
    (ties by L2 norm), and indexed 1..n_found. The solve draws no random
    numbers, so it is a fixed function of its arguments.

    Returns fewer than three solutions if some branch does not converge,
    as a cold start (no seeds) may at thin interfaces, where
    :class:`pmm.inverse.CoarseSolutionCache` reaches every branch by
    continuation; raises :class:`SolveFailed` only when nothing converges.
    """
    lo, hi = DELTA_RANGE
    if not lo <= delta <= hi:
        raise ValueError(f"delta must lie in [{lo}, {hi}]")
    if n < MIN_GRID_N:
        raise ValueError(f"grid size must be at least {MIN_GRID_N}")
    band = _jacobian_band(delta, n)
    found: list[np.ndarray] = []
    rnorms: list[float] = []
    guesses = [np.asarray(s, dtype=float).reshape(-1) for s in seeds]
    for guess in guesses + _initial_guesses(n, delta):
        if len(found) >= 3:
            break
        u, ok, rnorm = _newton_ac(delta, n, guess, found, band)
        if ok and np.max(np.abs(u)) <= 1.5 and all(
            np.max(np.abs(u - s)) > 0.1 for s in found
        ):
            found.append(u)
            rnorms.append(rnorm)
    if not found:
        raise SolveFailed(f"no Allen-Cahn solution converged at delta={delta}")

    def center_key(u):
        mid = n // 2
        return (u.reshape(n, n)[mid, mid], float(np.linalg.norm(u)))

    by_centre = sorted(zip(found, rnorms), key=lambda pair: center_key(pair[0]))
    return [
        GridSolution(n=n, u=u.reshape(n, n), solution_index=idx, residual_norm=rnorm)
        for idx, (u, rnorm) in enumerate(by_centre, start=1)
    ]


@dataclass(frozen=True)
class ACDesign:
    """Design points for the linearized Allen-Cahn forward solve."""

    interior_points: np.ndarray
    boundary_points: np.ndarray
    boundary_rhs: np.ndarray


def ac_boundary_values(points) -> np.ndarray:
    """Dirichlet data ``_AC_BOUNDARY`` at boundary points; a corner takes
    its x1 edge's value."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    on_edge = [np.abs(points[:, 0]) <= 1e-12, np.abs(points[:, 0] - 1.0) <= 1e-12,
               np.abs(points[:, 1]) <= 1e-12, np.abs(points[:, 1] - 1.0) <= 1e-12]
    if not np.any(on_edge, axis=0).all():
        raise ValueError("some points are not on the boundary")
    return np.select(on_edge, _AC_BOUNDARY)


def ac_design(interior_per_axis: int = 5, per_edge: int = 5) -> ACDesign:
    interior = interior_grid_2d(interior_per_axis)
    boundary = edge_points_2d(per_edge)
    return ACDesign(interior, boundary, ac_boundary_values(boundary))
