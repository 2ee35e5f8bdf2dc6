"""Reference oracles that the tests compare the package against.

``fd_check`` rebuilds the closed-form operator kernels of
``pmm.kernels.op_gram`` from finite differences of the plain kernel, for
the squared-exponential and the Matern-7/2 kernel, and
``linearized_ac_blocks`` states the latent-linearized Allen-Cahn system as
observation blocks for the public forward solver, which is what
``pmm.inverse.pm_loglik`` fills in one joint matrix. ``sparse_laplacian``
and ``sparse_ac_jacobian`` assemble the coarse Allen-Cahn operators as
``scipy.sparse`` matrices, against which the package's stencil and banded
Newton solve are checked, and ``ac_residual`` is the Allen-Cahn residual
built on ``sparse_laplacian``. ``fresh_lu_newton`` is the deflated Newton run
with a fresh banded LU at every step, which ``fresh_lu`` puts in place of
the package's chord iteration inside ``ac_deflated_solve``.
``plain_seed_sweep`` builds the coarse-solution table without the secant
predictor of ``pmm.inverse.CoarseSolutionCache``, and ``neighbour_seeds``
are the continuation seeds such a sweep hands a solve from a nearby cell.
``gls_phi`` is the closed-form maximizer of the 1D inverse problem's
likelihood in ``phi = 1 / theta``. ``three_call_joint`` and
``pm_loglik_all_rows`` are ``pmm.inverse``'s joint matrix and
importance-sampled estimate built the longer way: three kernel evaluations
for the joint, and one triangular solve over all of its rows with every
particle's full right-hand side, the particles from ``draw_latents`` and
each log-weight as the difference of two log-densities.
``sqexp_gram_three_term`` is the SE operator Gram as the sum of its three
bilinear terms, each times the kernel values, against which the package's
one polynomial in ``r2`` is checked, alone and in that estimate's joint.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgbsv, dtrtrs

import pmm.kernels
import pmm.problems
from pmm.forward import ObservationBlock
from pmm.inverse import PMEstimate, _operator_rows
from pmm.kernels import (
    IDENTITY,
    Matern72Kernel,
    OperatorTag,
    SqExpKernel,
    UnsupportedOperatorPair,
    op_gram,
)
from pmm.linalg import chol_jitter
from pmm.problems import (
    _NEWTON_TOL,
    DELTA_RANGE,
    _boundary_source,
    _deflation,
    _stencil_residual,
    ac_deflated_solve,
)


def order(tag: OperatorTag) -> int:
    """Differential order (2 when the Laplacian term is active)."""
    return 2 if tag.a != 0.0 else 0


def _point(x, dim: int) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(-1, dim)[0]


def _matern72(r2, ell):
    """The Matern-7/2 kernel at ``r2 = |x - y|^2``, in the precision of
    ``r2`` and ``ell``."""
    s = np.sqrt(7 * r2) / ell
    return (1 + s + 2 * s**2 / 5 + s**3 / 15) * np.exp(-s)


def _kernel(k, x, y) -> float:
    """``k(x, y)`` at a single pair of points."""
    r2 = float(np.sum((_point(x, k.dim) - _point(y, k.dim)) ** 2))
    if isinstance(k, Matern72Kernel):
        return float(_matern72(r2, k.lengthscale))
    return float(np.exp(-0.5 * r2 / k.lengthscale**2))


def default_fd_step(left: OperatorTag, right: OperatorTag, k) -> float:
    """A finite-difference step suited to the operator pair and kernel.

    Fourth-order stencils balance truncation against cancellation when the
    step scales with the lengthscale; second-order stencils are far less
    delicate. The result always lies in the admissible window
    ``[1e-5, 1e-3]``.
    """
    if order(left) + order(right) >= 4:
        return float(np.clip(7e-4 * k.lengthscale, 1e-5, 1e-3))
    return 1e-4


def fd_check(
    left: OperatorTag,
    right: OperatorTag,
    k,
    x,
    y,
    h_fd: float,
) -> float:
    """Relative error of a finite-difference oracle against the closed form.

    The operator images are rebuilt from nested central second differences
    of the plain kernel, evaluated in extended precision (fourth-order
    stencils at steps near 1e-3 lose more than four digits to cancellation
    in double precision). The error is measured relative to
    ``max(|closed form|, 0.01 * scale)``, where ``scale`` is the natural
    magnitude of the operator pair at the evaluation point; the floor
    guards zero crossings of the polynomial factor.
    """
    if not isinstance(k, (SqExpKernel, Matern72Kernel)):
        raise UnsupportedOperatorPair("fd_check targets the SE and Matern-7/2 closed forms")
    if not 1e-5 <= h_fd <= 1e-3:
        raise ValueError("h_fd must lie in [1e-5, 1e-3]")
    if order(left) == 0 and order(right) == 0:
        # a zeroth-order stencil is the function value itself
        fd0 = left.c * right.c * _kernel(k, x, y)
        value = float(op_gram(left, right, k, x, y)[0, 0])
        return abs(fd0 - value) / max(abs(value), 1e-300)
    d = k.dim
    ld = np.longdouble
    xv = _point(x, d).astype(ld)
    yv = _point(y, d).astype(ld)
    h = ld(h_fd)
    ell2 = ld(k.lengthscale) ** 2

    def kf(a, b):
        if isinstance(k, Matern72Kernel):
            return _matern72(np.sum((a - b) ** 2), ld(k.lengthscale))
        return np.exp(-np.sum((a - b) ** 2) / (2.0 * ell2))

    def op_y(a, b):
        val = right.c * kf(a, b) if right.c != 0.0 else ld(0.0)
        if right.a != 0.0:
            acc = ld(0.0)
            for i in range(d):
                e = np.zeros(d, dtype=ld)
                e[i] = h
                acc += kf(a, b + e) - 2.0 * kf(a, b) + kf(a, b - e)
            val = val + right.a * (-acc / h**2)
        return val

    fd = left.c * op_y(xv, yv) if left.c != 0.0 else ld(0.0)
    if left.a != 0.0:
        acc = ld(0.0)
        for i in range(d):
            e = np.zeros(d, dtype=ld)
            e[i] = h
            acc += op_y(xv + e, yv) - 2.0 * op_y(xv, yv) + op_y(xv - e, yv)
        fd = fd + left.a * (-acc / h**2)

    value = float(op_gram(left, right, k, x, y)[0, 0])
    kval = _kernel(k, x, y)
    # the curvature -k''(0) is 1/l^2 for SE and 7/(5 l^2) for Matern-7/2
    curvature = 1.4 if isinstance(k, Matern72Kernel) else 1.0
    mag = kval
    for tag in (left, right):
        mag *= abs(tag.c) + abs(tag.a) * (d + 2) * curvature / k.lengthscale**2
    denom = max(abs(value), 0.01 * mag)
    return float(abs(float(fd) - value) / denom)


def linearized_ac_blocks(delta: float, z, design) -> list:
    """Observation blocks of the latent-linearized Allen-Cahn system.

    Given ``z`` at the interior design points of an ``ACDesign``, the
    solver sees the interior operator equation with right-hand side ``z``,
    identity data ``u = cbrt(-delta z)`` at the same points, and the fixed
    boundary values.
    """
    zv = np.asarray(z, dtype=float).reshape(-1)
    if len(zv) != len(design.interior_points):
        raise ValueError("latent field length does not match the interior design")
    op = OperatorTag(delta, -1.0 / delta)
    return [
        ObservationBlock(op, design.interior_points, zv),
        ObservationBlock(OperatorTag.identity(), design.interior_points, np.cbrt(-delta * zv)),
        ObservationBlock(OperatorTag.boundary_trace(), design.boundary_points, design.boundary_rhs),
    ]


def sparse_laplacian(n: int):
    """5-point Laplacian on the N-by-N interior lattice, zero boundary data, CSR."""
    h = 1.0 / (n + 1)
    main = -4.0 * np.ones(n * n)
    ex = np.ones(n * n - 1)
    ex[np.arange(1, n * n) % n == 0] = 0.0
    ey = np.ones(n * n - n)
    return sp.diags([main, ex, ex, ey, ey], [0, 1, -1, n, -n], format="csr") / h**2


def ac_residual(u, delta: float, boundary=(1.0, 1.0, -1.0, -1.0)) -> np.ndarray:
    """Five-point-stencil residual of the Allen-Cahn interior equation.

    ``u`` holds interior node values, flat or (N, N); the Dirichlet data
    ``boundary``, given as the edge values (x1=0, x1=1, x2=0, x2=1), enters
    the stencil at near-boundary nodes.
    """
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    n = int(round(np.sqrt(flat.size)))
    if n * n != flat.size:
        raise ValueError("u must hold an N-by-N interior lattice")
    left, right, bottom, top = boundary
    edges = np.zeros((n, n))
    edges[:, 0] += left
    edges[:, -1] += right
    edges[0, :] += bottom
    edges[-1, :] += top
    lap = sparse_laplacian(n) @ flat + edges.ravel() * (n + 1) ** 2
    return (-delta * lap + (flat**3 - flat) / delta).reshape(u.shape)


def sparse_ac_jacobian(u, delta: float):
    """Jacobian ``-delta lap + diag((3u^2 - 1)/delta)`` of the Allen-Cahn residual, CSC."""
    u = np.asarray(u, dtype=float).reshape(-1)
    n = int(round(np.sqrt(u.size)))
    return (-delta * sparse_laplacian(n) + sp.diags((3.0 * u**2 - 1.0) / delta)).tocsc()


def fresh_lu_newton(delta, n, u0, roots, band, maxiter=200):
    """``pmm.problems._newton_ac`` with one banded LU (LAPACK ``dgbsv``) of
    the Jacobian at every iterate and every residual evaluated afresh."""
    h = 1.0 / (n + 1)
    bsrc = _boundary_source(n, h)
    u = u0.copy()
    for _ in range(maxiter):
        res = _stencil_residual(u, delta, n, h, bsrc)
        rnorm = float(np.max(np.abs(res)))
        if rnorm < _NEWTON_TOL:
            return u, True, rnorm
        ab = band.copy(order="F")
        ab[2 * n] += (3.0 * u**2 - 1.0) / delta
        _, _, step, info = dgbsv(n, n, ab, -res, overwrite_ab=True)
        if info != 0:
            return u, False, rnorm
        if roots:
            m, grad = _deflation(u, roots)
            denom = 1.0 - float(grad @ step) / m
            if abs(denom) < 1e-12:
                return u, False, rnorm
            step = step / denom
        alpha = 1.0
        for _ in range(12):
            cand = u + alpha * step
            if np.all(np.isfinite(cand)):
                rnew = _stencil_residual(cand, delta, n, h, bsrc)
                if float(np.max(np.abs(rnew))) < rnorm or rnorm < 1e-6:
                    break
            alpha *= 0.5
        else:
            return u, False, rnorm
        u = u + alpha * step
        if np.max(np.abs(u)) > 10.0:
            return u, False, rnorm
    return u, False, rnorm


@contextmanager
def fresh_lu():
    """Within the block, every Newton run of ``ac_deflated_solve`` is
    ``fresh_lu_newton``."""
    with mock.patch.object(pmm.problems, "_newton_ac", fresh_lu_newton):
        yield


def plain_seed_sweep(grid_n: int, resolution: float) -> dict:
    """The coarse-solution table, cell -> branches, from the downward
    continuation sweep that seeds each cell with the plain branches of the
    cell above and nothing else."""
    lo, hi = DELTA_RANGE
    table, sols = {}, []
    for cell in range(round(hi / resolution), round(lo / resolution) - 1, -1):
        sols = ac_deflated_solve(float(np.clip(cell * resolution, lo, hi)), grid_n,
                                 seeds=[s.u.ravel() for s in sols])
        table[cell] = sols
    return table


def neighbour_seeds(delta: float, n: int, cells_away: int, resolution: float = 0.002) -> list:
    """Flat branches of a cold deflated solve ``cells_away`` cells of
    ``resolution`` above ``delta``, or below where that leaves the range;
    no seeds for ``cells_away == 0``."""
    if cells_away == 0:
        return []
    near = delta + cells_away * resolution
    if near > DELTA_RANGE[1]:
        near = delta - cells_away * resolution
    return [s.u.ravel() for s in ac_deflated_solve(near, n)]


def gls_phi(y, mean, cov) -> float:
    """Closed-form maximizer of ``phi -> log N(y; phi * mean, cov)``.

    Whitening by the Cholesky factor of ``cov`` turns the log-likelihood
    into ``-|w_y - phi w_mu|^2 / 2`` plus a phi-free constant, so the
    maximizer is ``phi* = (w_mu . w_y) / (w_mu . w_mu)``.
    """
    lower = np.linalg.cholesky(np.asarray(cov, dtype=float))
    w_y = solve_triangular(lower, np.asarray(y, dtype=float), lower=True)
    w_mu = solve_triangular(lower, np.asarray(mean, dtype=float), lower=True)
    return float(w_mu @ w_y / (w_mu @ w_mu))


def sqexp_gram_three_term(r2, left, right, ell: float, d: int):
    """``pmm.kernels._sqexp_gram`` as ``cc' k + (ac' + ca') (d e - e^2 r2) k
    + aa' (d (d+2) e^2 - 2 (d+2) e^3 r2 + e^4 r2^2) k`` with ``e = 1/l^2``,
    each term a separate array; a term whose coefficients vanish is skipped."""
    kv = np.exp(-0.5 * (1.0 / ell**2) * r2)
    (la, lc), (ra, rc) = left, right
    if isinstance(la, np.ndarray):
        la, lc = la[:, None], lc[:, None]
    e = 1.0 / ell**2
    cc = lc * rc
    out = kv if isinstance(cc, float) and cc == 1.0 else cc * kv
    mixed = la * rc + lc * ra
    if np.any(mixed):
        out = out + mixed * (d * e - e**2 * r2) * kv
    both = la * ra
    if np.any(both):
        bl = d * (d + 2) * e**2 - 2.0 * (d + 2) * e**3 * r2 + e**4 * r2**2
        out = out + both * bl * kv
    return out


def three_call_joint(setup, op, ell: float, noise, sqexp_gram=None):
    """``pmm.inverse._joint_matrix`` with one ``sqexp_gram`` call each for
    all rows, the operator rows and the operator block; by default
    ``sqexp_gram`` is the package's ``kernels._sqexp_gram``."""
    sqexp_gram = sqexp_gram or pmm.kernels._sqexp_gram
    r2 = setup._r2
    n_int = len(setup.design.interior_points)
    rows = slice(n_int, 2 * n_int)
    joint = sqexp_gram(r2, IDENTITY, IDENTITY, ell, 2)
    op_rows = sqexp_gram(r2[rows], op, IDENTITY, ell, 2)
    joint[rows] = op_rows
    joint[:, rows] = op_rows.T
    joint[rows, rows] = sqexp_gram(r2[rows, rows], op, op, ell, 2)
    n_gram = len(r2) - len(setup.data_locations)
    joint[n_gram:, n_gram:] += noise.cov
    return joint


def pm_loglik_all_rows(y, delta: float, ell: float, j: int, m_particles: int,
                       noise, rng, *, setup, xi=None, sqexp_gram=None):
    """``pmm.inverse.pm_loglik`` by one triangular solve of the joint factor
    against the stacked right-hand sides [cbrt(-delta z); z / s; boundary;
    y] of all M particles, of which the data rows are the residuals; the
    particles and their log-densities come from ``draw_latents``, and each
    log-weight is the data log-density minus the particle's. The joint is
    ``three_call_joint``'s with ``sqexp_gram``."""
    y = np.asarray(y, dtype=float).reshape(-1)
    zbar = setup.latent_centre(delta, j)
    n_int = zbar.size
    op, s = _operator_rows(delta, ell)
    joint = three_call_joint(setup, op, ell, noise, sqexp_gram)
    n_gram = len(joint) - y.size
    factor = chol_jitter(joint)
    z_draws, log_r = draw_latents(zbar, factor.lower[:n_int, :n_int], m_particles, rng, xi=xi)
    rhs = np.empty((len(joint), m_particles))
    rhs[:n_int] = np.cbrt(-delta * z_draws).T
    rhs[n_int:2 * n_int] = z_draws.T / s
    rhs[2 * n_int:n_gram] = setup.design.boundary_rhs[:, None]
    rhs[n_gram:] = y[:, None]
    resid = dtrtrs(factor.lower, rhs, lower=1)[0][n_gram:]
    logdet = 2.0 * np.sum(np.log(np.diag(factor.lower)[n_gram:]))
    logliks = -0.5 * (y.size * np.log(2.0 * np.pi) + logdet + np.sum(resid**2, axis=0))
    return PMEstimate.from_log_weights(logliks - log_r)


def draw_latents(zbar, lower, m: int, rng, xi=None):
    """Batch of Gaussian latent draws ``zbar + lower xi`` with their
    log-densities under ``N(zbar, lower lower^T)``; ``xi`` is drawn from
    ``rng`` when not given."""
    dim = len(lower)
    if xi is None:
        xi = rng.generator().standard_normal((m, dim))
    draws = zbar[None, :] + xi @ lower.T
    logdet = 2.0 * np.sum(np.log(np.diag(lower)))
    log_r = -0.5 * (dim * np.log(2.0 * np.pi) + logdet + np.sum(xi**2, axis=1))
    return draws, log_r

