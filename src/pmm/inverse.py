"""Bayesian inverse problems over PDE parameters.

Two likelihoods score data against a forward posterior's mean at the data
locations: the plug-in baseline takes it for the solution and ignores
discretisation error, and the solver-marginalized one adds the posterior
covariance there to the noise covariance. For the nonlinear Allen-Cahn
problem the likelihood is intractable and is estimated unbiasedly by
importance-sampling the latent field around coarse-solver solutions; a
pseudo-marginal Metropolis chain accepts on that estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .kernels import IDENTITY, _sqexp_form, _sqexp_gram
from .linalg import _LOG_2PI, RngStream, chol_jitter, mvn_logpdf
from .problems import DELTA_RANGE, ACDesign, GridSolution, ac_deflated_solve

__all__ = [
    "AllZeroMass",
    "AllWeightsDegenerate",
    "SolutionIndexOutOfRange",
    "NoiseModel",
    "UniformPrior",
    "HalfCauchyPrior",
    "PMEstimate",
    "ChainResult",
    "pn_loglik",
    "MIN_GRID_POINTS",
    "grid_posterior",
    "grid_mean_std",
    "grid_mode",
    "CoarseSolutionCache",
    "ACInverseSetup",
    "pm_loglik",
    "pm_mcmc",
    "ac_plugin_mcmc",
    "plugin_delta_scan",
]

MIN_GRID_POINTS = 50  # fewest points of a grid posterior


class AllZeroMass(Exception):
    """Every grid log-likelihood underflowed; the grid misses the posterior."""


class AllWeightsDegenerate(Exception):
    """Every importance weight underflowed."""


class SolutionIndexOutOfRange(Exception):
    """A solution index exceeds the number of coarse solutions found."""


@dataclass(frozen=True)
class NoiseModel:
    """Observation-noise covariance."""

    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("noise covariance must be square")
        object.__setattr__(self, "cov", cov)

    @classmethod
    def isotropic(cls, sigma: float, n: int) -> "NoiseModel":
        if not sigma > 0.0:
            raise ValueError("sigma must be positive")
        return cls(sigma**2 * np.eye(n))

    @property
    def n(self) -> int:
        return self.cov.shape[0]


# ----------------------------------------------------------------------
# parameter priors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class UniformPrior:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")

    def logpdf(self, x: float) -> float:
        if self.lo < x < self.hi:
            return -np.log(self.hi - self.lo)
        return -np.inf


@dataclass(frozen=True)
class HalfCauchyPrior:
    """Half-Cauchy on (0, inf), the recommended weakly-informative choice
    for scale hyper-parameters."""

    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")

    def logpdf(self, x: float) -> float:
        if x <= 0.0:
            return -np.inf
        s = self.scale
        return float(np.log(2.0 / (np.pi * s)) - np.log1p((x / s) ** 2))


# ----------------------------------------------------------------------
# likelihoods
# ----------------------------------------------------------------------

def pn_loglik(y, means, cov_at_data, noise: NoiseModel):
    """Data log-likelihood with the forward posterior marginalized out.

    ``means`` is the forward posterior's mean at the data locations, or a
    ``(k, n)`` stack of them. The plug-in likelihood ``mvn_logpdf(y, means,
    noise.cov)`` takes it for the solution; this one adds ``cov_at_data``,
    the posterior covariance there, to the noise, which widens inference
    when the design is coarse.
    """
    return mvn_logpdf(y, means, noise.cov + cov_at_data)


# ----------------------------------------------------------------------
# grid posteriors
# ----------------------------------------------------------------------

def grid_posterior(theta_grid, prior, loglik) -> np.ndarray:
    """Normalized posterior density on a parameter grid.

    ``loglik`` holds the data log-likelihood at each grid point; a NaN or
    ``+inf`` raises ``FloatingPointError``. The density is normalized to
    unit trapezoid integral; points the prior excludes get zero.
    """
    grid = np.asarray(theta_grid, dtype=float).reshape(-1)
    if grid.size < MIN_GRID_POINTS:
        raise ValueError(f"need at least {MIN_GRID_POINTS} grid points")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be sorted increasing")
    logpost = np.asarray(loglik, dtype=float).reshape(grid.shape) + [prior.logpdf(t) for t in grid]
    bad = np.isnan(logpost) | (logpost == np.inf)
    if bad.any():
        raise FloatingPointError(f"log-likelihood is NaN or +inf at theta={grid[bad][0]}")
    if np.all(logpost == -np.inf):
        raise AllZeroMass("posterior mass vanished on the whole grid")
    dens = np.exp(logpost - logpost.max())  # exp(-inf) = 0 where the prior excludes theta
    return dens / np.trapezoid(dens, grid)


def grid_mean_std(theta_grid, density):
    grid = np.asarray(theta_grid, dtype=float)
    dens = np.asarray(density, dtype=float)
    mean = np.trapezoid(grid * dens, grid)
    var = np.trapezoid((grid - mean) ** 2 * dens, grid)
    return float(mean), float(np.sqrt(max(var, 0.0)))


def grid_mode(theta_grid, density) -> float:
    grid = np.asarray(theta_grid, dtype=float)
    return float(grid[int(np.argmax(density))])


# ----------------------------------------------------------------------
# coarse-solution cache for the nonlinear problem
# ----------------------------------------------------------------------

class CoarseSolutionCache:
    """Multimodal coarse solves on a regular delta grid, one table per
    (grid size, resolution).

    The constructor solves every cell of ``DELTA_RANGE`` once, by
    continuation downward from its top: each cell's deflated Newton solve
    is seeded with the branches of the cell above, which keeps the
    thin-interface branches at small delta reachable and lines up the
    branch indices of neighbouring cells. Once the two cells above both
    hold three branches, the seeds are led by the secant predictions
    ``2 u(k+1) - u(k+2)`` of each branch (Allgower & Georg, *Introduction
    to Numerical Continuation Methods*, 2003), which start Newton closer
    to the root. Lookups snap delta to the nearest cell, so the table, and
    every likelihood read from it, does not depend on a seed or on the
    order in which cells are looked up; :meth:`solve_at` takes the same
    step to an off-grid delta.
    """

    def __init__(self, grid_n: int = 31, resolution: float = 0.002):
        self.grid_n = grid_n
        self.resolution = resolution
        self._store: dict[int, list[GridSolution]] = {}
        lo, hi = DELTA_RANGE
        sols, older = [], []
        for cell in range(round(hi / resolution), round(lo / resolution) - 1, -1):
            older, sols = sols, self._step(self._delta(cell), sols, older)
            self._store[cell] = sols

    def _delta(self, cell: int) -> float:
        lo, hi = DELTA_RANGE
        return float(np.clip(cell * self.resolution, lo, hi))

    def _step(self, delta: float, sols: list, older: list) -> list:
        """The deflated solve at ``delta`` seeded from the branches ``sols``
        of the cell just above it and ``older`` of the cell above that: the
        secant predictions first when both hold three, then the branches."""
        seeds = [s.u.ravel() for s in sols]
        if len(sols) == len(older) == 3:
            seeds = [2.0 * u - v.u.ravel() for u, v in zip(seeds, older)] + seeds
        return ac_deflated_solve(delta, self.grid_n, seeds=seeds)

    def solve_at(self, delta: float) -> list:
        """The branches at ``delta`` itself, by the table's continuation step
        from the two lowest cells whose delta lies strictly above it; at a
        cell's own delta this recomputes that cell's entry bit for bit."""
        above = [[], []] + [sols for cell, sols in self._store.items() if self._delta(cell) > delta]
        return self._step(delta, above[-1], above[-2])

    def _cell(self, delta: float) -> int:
        lo, hi = DELTA_RANGE
        if not lo <= delta <= hi:
            raise ValueError(f"delta={delta} lies outside DELTA_RANGE {DELTA_RANGE}")
        return int(round(delta / self.resolution))

    def solutions(self, delta: float) -> list:
        return self._store[self._cell(delta)]


@dataclass(frozen=True)
class ACInverseSetup:
    """Context shared by every Allen-Cahn likelihood evaluation.

    Besides the design, the data locations and the coarse-solution cache,
    it holds what no likelihood call changes: the squared distances between
    the rows of the joint matrix of ``pm_loglik``, in its order
    [identity@interior, operator@interior, boundary, data] (the interior
    points appear twice), and each coarse branch's ``-u^3`` at the interior
    design points and its values ``u`` at the data points, one entry per
    (cache cell, j).
    """

    design: ACDesign
    data_locations: np.ndarray
    cache: CoarseSolutionCache
    _r2: np.ndarray = field(init=False, repr=False, compare=False)
    _branches: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        interior = self.design.interior_points
        pts = np.vstack([interior, interior, self.design.boundary_points, self.data_locations])
        object.__setattr__(self, "_r2", np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
        targets = np.vstack([interior, self.data_locations])
        branches = {}
        for cell, sols in self.cache._store.items():
            for j, sol in enumerate(sols, start=1):
                vals = sol.interpolate(targets)
                vals[:len(interior)] = -vals[:len(interior)] ** 3
                vals.setflags(write=False)  # every caller shares these arrays
                branches[cell, j] = (vals[:len(interior)], vals[len(interior):])
        object.__setattr__(self, "_branches", branches)

    def branch_values(self, delta: float, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The j-th coarse branch's ``-u^3`` at the interior design points
        and its values at the data points, shared by every delta in one
        cache cell."""
        hit = self._branches.get((self.cache._cell(delta), j))
        if hit is None:
            raise SolutionIndexOutOfRange(
                f"j={j}, only {len(self.cache.solutions(delta))} solutions found")
        return hit

    def latent_centre(self, delta: float, j: int) -> np.ndarray:
        """The latent field ``-u^3 / delta`` of the j-th branch at the
        interior design points, at this delta rather than its cell's."""
        return self.branch_values(delta, j)[0] / delta


# ----------------------------------------------------------------------
# pseudo-marginal estimator
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PMEstimate:
    """Unbiased (on the natural scale) log-likelihood estimate."""

    log_estimate: float
    log_weights: np.ndarray

    @property
    def m(self) -> int:
        return self.log_weights.size

    @classmethod
    def from_log_weights(cls, log_weights) -> "PMEstimate":
        lw = np.asarray(log_weights, dtype=float).reshape(-1)
        shift = lw.max(initial=-np.inf)
        # a finite maximum is a finite weight; only a non-finite one needs the scan
        if not math.isfinite(shift) and not np.isfinite(lw).any():
            raise AllWeightsDegenerate("all importance weights underflowed")
        return cls(float(shift + np.log(np.exp(lw - shift).sum() / lw.size)), lw)


def _operator_rows(delta: float, ell: float):
    """The operator rows' (a, c) = (delta, -1/delta) over the square root
    ``s`` of their prior variance, and ``s``: ``solve_forward``'s
    equilibration, on the coefficients each Gram entry is bilinear in."""
    op = (delta, -1.0 / delta)
    s = math.sqrt(_sqexp_gram(0.0, op, op, ell, 2))
    return (delta / s, -1.0 / (delta * s)), s


def _joint_matrix(setup: ACInverseSetup, op, ell: float, noise: NoiseModel):
    """Joint covariance of [identity@interior, operator@interior, boundary,
    data] for operator coefficients ``op``, noise added to the data block;
    the operator rows take the full bilinear form of the one set of kernel values."""
    r2 = setup._r2
    n_int = len(setup.design.interior_points)
    rows = slice(n_int, 2 * n_int)
    joint = _sqexp_gram(r2, IDENTITY, IDENTITY, ell, 2)  # the kernel values themselves
    op_rows = _sqexp_form(joint[rows], r2[rows], op, IDENTITY, ell, 2)
    op_block = _sqexp_form(joint[rows, rows], r2[rows, rows], op, op, ell, 2)
    joint[rows] = op_rows
    joint[:, rows] = op_rows.T
    joint[rows, rows] = op_block
    n_gram = len(r2) - len(setup.data_locations)
    joint[n_gram:, n_gram:] += noise.cov
    return joint


def pm_loglik(y, delta: float, ell: float, j: int, noise: NoiseModel, *,
              setup: ACInverseSetup, xi) -> PMEstimate:
    """Importance-sampled estimate of the intractable data likelihood.

    Each particle draws a latent field from the Gaussian proposal around
    the j-th coarse solution, solves the linearized forward problem it
    induces, and scores the data under the solver-marginalized Gaussian;
    weights divide out the proposal density (the latent prior is flat, so
    no prior factor appears). The estimate is the log of the weight
    average. ``xi`` is the standard-normal batch behind the particles, one
    row per particle and one column per interior design point; the
    correlated chain keeps it in its state to couple successive estimates.

    The latent field only enters the right-hand side, so one Cholesky
    factor ``L`` of the joint covariance of [identity@interior,
    operator@interior, boundary, data] serves every particle (Rasmussen &
    Williams, GPML, Alg. 2.1). One triangular solve with ``n_data``
    right-hand sides gives ``G``, the data rows of ``L^-1``, which take each
    particle's [rhs; y] to its whitened residual against the forward
    posterior mean; the trailing diagonal of ``L`` gives the log-determinant
    of the marginal data covariance. The proposal covariance is the
    identity@interior block, so the leading block of the same ``L`` draws
    the particles and gives their densities; so each log-weight is one
    constant, from the log-diagonal of ``L``, plus half the squared norm of
    its normals minus half that of its residual. When ``chol_jitter`` has to
    jitter the joint, the proposal is the leading block of the jittered
    joint; draws and densities still come from one factor, so the estimate
    stays unbiased.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    n_data = len(setup.data_locations)
    if not y.size == n_data == noise.n:
        raise ValueError(f"sizes disagree: {y.size} data values, {n_data} data "
                         f"locations, noise covariance of size {noise.n}")
    zbar = setup.latent_centre(delta, j)
    n_int = zbar.size
    if np.shape(xi)[1:] != (n_int,) or len(xi) < 1:
        raise ValueError(f"xi has shape {np.shape(xi)}, expected one or more rows of "
                         f"n_int = {n_int} columns")
    op, s = _operator_rows(delta, ell)  # the joint's operator rows come out equilibrated
    joint = _joint_matrix(setup, op, ell, noise)
    n_gram = len(joint) - n_data
    lower = chol_jitter(joint).lower
    z_draws = zbar + xi @ lower[:n_int, :n_int].T
    # G^T solves L^T G^T = I[:, n_gram:]; both are Fortran-ordered, so LAPACK
    # copies neither. A non-finite draw shows in the weights.
    eye = np.eye(len(joint), n_data, -n_gram, order="F")
    g = dtrtrs(lower.T, eye, lower=0, overwrite_b=1)[0].T
    resid = (g[:, :n_int] @ np.cbrt(-delta * z_draws).T
             + (g[:, n_int:2 * n_int] / s) @ z_draws.T
             + (g[:, 2 * n_int:n_gram] @ setup.design.boundary_rhs + g[:, n_gram:] @ y)[:, None])
    # log N(y; mean, data cov) - log N(z; zbar, K_int), whose log-determinants
    # are twice the log-diagonal sums of the data block and of the leading block
    log_diag = np.log(np.diagonal(lower))
    const = (0.5 * (n_int - n_data) * _LOG_2PI
             + log_diag[:n_int].sum() - log_diag[n_gram:].sum())
    log_w = const + 0.5 * (np.einsum("ij,ij->i", xi, xi) - np.einsum("ij,ij->j", resid, resid))
    return PMEstimate.from_log_weights(log_w)


# ----------------------------------------------------------------------
# MCMC over (delta, lengthscale, solution index)
# ----------------------------------------------------------------------

@dataclass
class ChainResult:
    """Chain trace; serializes to CSV columns
    (step, delta, ell, j, log_estimate, accepted)."""

    delta: np.ndarray
    ell: np.ndarray
    j: np.ndarray
    log_estimate: np.ndarray
    accepted: np.ndarray
    estimator_calls: int = 0

    FIELDS = ("step", "delta", "ell", "j", "log_estimate", "accepted")

    @property
    def acceptance_rate(self) -> float:
        return self.accepted.mean()

    def rows(self):
        for t in range(len(self.delta)):
            yield (t, self.delta[t], self.ell[t], int(self.j[t]),
                   self.log_estimate[t], int(self.accepted[t]))


def _plugin_table(y, setup: ACInverseSetup, noise: NoiseModel) -> dict:
    """The plug-in log-likelihood of every (cache cell, j) entry of the
    branch table, from one batched Gaussian density; NaN raises."""
    keys = list(setup._branches)
    lls = mvn_logpdf(y, np.array([setup._branches[key][1] for key in keys]), noise.cov)
    if np.isnan(lls).any():
        raise FloatingPointError(f"plug-in log-likelihood is NaN at (cell, j) = "
                                 f"{keys[np.isnan(lls).argmax()]}")
    return dict(zip(keys, lls.tolist()))


# the delta prior of both posteriors and the pilot's grid, inside the table's DELTA_RANGE
DELTA_PRIOR = UniformPrior(*DELTA_RANGE)
PILOT_GRID = tuple(np.arange(0.025, 0.146, 0.01).tolist())


def plugin_delta_scan(y, setup: ACInverseSetup, noise: NoiseModel) -> float:
    """Cheap pilot: the ``PILOT_GRID`` delta whose best branch fits best.

    The best entry of the plug-in table over the grid's cells, the first
    in (delta, j) order on ties. Used to initialize the pseudo-marginal
    chain away from the prior tails.
    """
    table = _plugin_table(y, setup, noise)
    cache = setup.cache
    entries = [(float(delta), j) for delta in PILOT_GRID
               for j in range(1, len(cache.solutions(delta)) + 1)]
    return max(entries, key=lambda e: table[cache._cell(e[0]), e[1]])[0]


J_REPROPOSAL = 0.2  # probability that a step also redraws the solution index


def _mh_chain(log_prior, loglik, n_found, theta, j, step_scales, n_steps, gen,
              noise_shape, noise_correlation):
    """Metropolis-Hastings over (theta, j) that keeps the retained likelihood.

    The walk is Gaussian in ``theta`` with per-coordinate ``step_scales``;
    with probability ``J_REPROPOSAL`` a step also redraws the solution index
    uniformly over the ``n_found(theta)`` solutions at the proposal, with
    the matching Hastings correction. The prior of j given theta is uniform
    over those solutions, so ``log_prior`` covers theta alone.

    ``loglik(theta, j, xi)`` may be a noisy estimate: a retained state keeps
    its value and is never re-evaluated, which is what makes a
    pseudo-marginal chain target the exact posterior. ``xi`` is the
    standard-normal batch of shape ``noise_shape`` behind the estimate; it
    is part of the state and is refreshed by a Crank-Nicolson move with
    ``noise_correlation``. A deterministic likelihood passes an empty batch.

    Returns the retained theta, j and log-likelihood after each step, the
    per-step acceptance flags and the number of likelihood evaluations.
    Raises ``FloatingPointError`` when a log-likelihood is NaN.
    """
    theta = np.asarray(theta, dtype=float)
    scales = np.asarray(step_scales, dtype=float)
    n_cur = n_found(theta)
    if not 1 <= j <= n_cur:
        raise SolutionIndexOutOfRange(f"initial j={j}, {n_cur} solutions found")

    def checked(theta, j, xi):
        ll = loglik(theta, j, xi)
        # a NaN would make every comparison false and the chain reject silently
        if np.isnan(ll):
            raise FloatingPointError(f"log-likelihood is NaN at theta={theta}, j={j}")
        return ll

    xi = gen.standard_normal(noise_shape)
    ll_cur = checked(theta, j, xi)
    lp_cur = log_prior(theta) - np.log(n_cur)
    calls = 1
    rho = noise_correlation

    thetas = np.empty((n_steps, theta.size))
    js = np.empty(n_steps, dtype=int)
    lls = np.empty(n_steps)
    accepted = np.zeros(n_steps, dtype=bool)
    for t in range(n_steps):
        theta_prop = theta + scales * gen.standard_normal(theta.size)
        redraw = gen.uniform() < J_REPROPOSAL
        lp_prop = log_prior(theta_prop)
        if np.isfinite(lp_prop):
            n_prop = n_found(theta_prop)
            j_prop = int(gen.integers(1, n_prop + 1)) if redraw else j
            if j_prop <= n_prop:
                xi_prop = rho * xi + np.sqrt(1.0 - rho**2) * gen.standard_normal(noise_shape)
                ll_prop = checked(theta_prop, j_prop, xi_prop)
                calls += 1
                lp_prop -= np.log(n_prop)
                # Hastings correction for the index mixture proposal
                q_fwd = (1.0 - J_REPROPOSAL) * (j_prop == j) + J_REPROPOSAL / n_prop
                q_rev = (1.0 - J_REPROPOSAL) * (j_prop == j) + J_REPROPOSAL / n_cur
                log_alpha = (ll_prop + lp_prop - ll_cur - lp_cur
                             + np.log(q_rev) - np.log(q_fwd))
                if np.log(gen.uniform()) < log_alpha:
                    theta, j, xi, n_cur = theta_prop, j_prop, xi_prop, n_prop
                    ll_cur, lp_cur = ll_prop, lp_prop
                    accepted[t] = True
        thetas[t] = theta
        js[t] = j
        lls[t] = ll_cur
    return thetas, js, lls, accepted, calls


def pm_mcmc(y, ell_prior, m_particles: int, n_steps: int, rng: RngStream, *,
            setup: ACInverseSetup, noise: NoiseModel, init, step_scales=(0.003, 0.08),
            noise_correlation: float = 0.99, estimator=None) -> ChainResult:
    """Pseudo-marginal Metropolis over (delta, log lengthscale, j).

    ``init`` is the starting (delta, ell, j). The chain is ``_mh_chain``
    with theta = (delta, log ell), priors ``DELTA_PRIOR`` and ``ell_prior``
    and the estimate of ``pm_loglik`` from ``m_particles`` particles;
    ``estimator(delta, ell, j, xi)`` replaces that estimate when given.

    The standard-normal batch behind the estimate is part of the chain
    state and is refreshed through a Crank-Nicolson move with correlation
    ``noise_correlation`` (the correlated pseudo-marginal scheme). With
    heavy-tailed importance weights the plain independent-noise chain
    freezes for thousands of steps whenever a lucky estimate is retained;
    coupling the noise cancels most of that variance in the acceptance
    ratio without changing the invariant distribution. Set the
    correlation to zero to recover the independent-noise sampler.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    if not 0.0 <= noise_correlation < 1.0:
        raise ValueError("noise_correlation must lie in [0, 1)")

    if estimator is None:
        def estimator(delta, ell, j, xi):
            return pm_loglik(y, delta, ell, j, noise, setup=setup, xi=xi)

    def log_prior(theta):
        delta, lam = theta
        # half-Cauchy density of ell with the log-scale Jacobian
        return DELTA_PRIOR.logpdf(delta) + (ell_prior.logpdf(np.exp(lam)) + lam)

    thetas, js, lls, accepted, calls = _mh_chain(
        log_prior,
        lambda theta, j, xi: estimator(theta[0], float(np.exp(theta[1])), j, xi).log_estimate,
        lambda theta: len(setup.cache.solutions(theta[0])),
        (float(init[0]), float(np.log(init[1]))), int(init[2]), step_scales, n_steps,
        rng.generator(), (m_particles, len(setup.design.interior_points)), noise_correlation,
    )
    return ChainResult(thetas[:, 0], np.exp(thetas[:, 1]), js, lls, accepted, calls)


def ac_plugin_mcmc(y, n_steps: int, rng: RngStream, *, setup: ACInverseSetup,
                   noise: NoiseModel) -> ChainResult:
    """``n_steps`` independent draws over (delta, j) from the exact posterior
    of the plug-in likelihood, which takes the coarse solution for the truth.

    Under ``DELTA_PRIOR`` and j uniform over a cell's branches, it is
    constant on each (cell, j) entry of ``_plugin_table``, with mass
    ``|cell ∩ DELTA_RANGE| exp(ll) / n(cell)``. A draw picks an entry by
    mass, then delta uniformly on the cell's slice of ``DELTA_RANGE``;
    ``log_estimate`` is the entry's ``ll``, ``ell`` is NaN and every draw
    counts as accepted.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    table = _plugin_table(y, setup, noise)
    (lo, hi), res = DELTA_RANGE, setup.cache.resolution
    cells, js = np.array(list(table)).T
    left, right = np.maximum(lo, (cells - 0.5) * res), np.minimum(hi, (cells + 0.5) * res)
    lls = np.array(list(table.values()))
    n_found = [len(setup.cache._store[cell]) for cell in cells]
    log_mass = np.log(right - left) - np.log(n_found) + lls
    gen = rng.generator()
    k = gen.choice(lls.size, size=n_steps, p=np.exp(log_mass - np.logaddexp.reduce(log_mass)))
    return ChainResult(gen.uniform(left[k], right[k]), np.full(n_steps, np.nan), js[k],
                       lls[k], np.ones(n_steps, dtype=bool))
