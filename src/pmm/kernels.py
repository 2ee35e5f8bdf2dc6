"""Covariance functions and their images under linear differential operators.

The forward solver conditions a Gaussian process on observations of the
form ``(a * (-laplacian) + c * identity) u`` at scattered points, given as
stacked points with one coefficient pair (a, c) per row. ``gram`` builds
every Gram matrix from the squared distances between the points and the
kernel's closed form, bilinear in each side's (a, c): squared-exponential
or Matern-7/2. The fill distance of a design completes the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UnsupportedOperatorPair",
    "EmptyDesign",
    "OperatorTag",
    "SqExpKernel",
    "Matern72Kernel",
    "gram",
    "op_gram",
    "fill_distance",
    "unit_interval_probe",
    "unit_square_probe",
]


class UnsupportedOperatorPair(Exception):
    """An operator/kernel combination has no implemented closed form."""


class EmptyDesign(Exception):
    """A design point set was empty where at least one point is required."""


@dataclass(frozen=True)
class OperatorTag:
    """A linear operator ``a * (-laplacian) + c * identity``.

    ``boundary`` marks the trace operator, which acts as the identity but
    is only admissible on boundary points. All operators in scope reduce
    to this affine family, which is what makes every pairing of tags
    available in closed form for either kernel.
    """

    a: float
    c: float
    boundary: bool = False

    def __post_init__(self):
        if self.boundary and (self.a != 0.0 or self.c != 1.0):
            raise ValueError("the boundary trace is the identity on the boundary")

    @classmethod
    def identity(cls) -> "OperatorTag":
        return cls(0.0, 1.0)

    @classmethod
    def boundary_trace(cls) -> "OperatorTag":
        return cls(0.0, 1.0, boundary=True)


@dataclass(frozen=True)
class _RadialKernel:
    """A unit-variance radial covariance with a lengthscale, in 1D or 2D."""

    lengthscale: float
    dim: int = 1

    def __post_init__(self):
        if not self.lengthscale > 0.0:
            raise ValueError("lengthscale must be positive")
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")


class SqExpKernel(_RadialKernel):
    """Squared-exponential covariance ``exp(-|x - y|^2 / (2 l^2))``."""


class Matern72Kernel(_RadialKernel):
    """Matern covariance of smoothness 7/2, ``(1 + s + 2 s^2/5 + s^3/15) e^-s``
    with ``s = sqrt(7) |x - y| / l``: finitely smooth, six times
    differentiable at the origin, so its images up to the bilaplacian exist."""


def _as_points(x, dim: int) -> np.ndarray:
    """Coerce scalars, vectors of scalars, or (n, dim) arrays to (n, dim)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        x = x[:, None] if dim == 1 else x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"points have shape {x.shape}, expected (n, {dim})")
    return x


IDENTITY = (0.0, 1.0)  # the coefficients (a, c) of the identity operator


def _nonzero(x) -> bool:
    return bool(x.any()) if isinstance(x, np.ndarray) else x != 0.0


def _sqexp_gram(r2, left, right, ell: float, d: int):
    """SE Gram entries ``(L_x R_y k)(x, y)`` from ``r2 = |x - y|^2``.

    ``left`` and ``right`` are the (a, c) of the operators on the first and
    second argument: scalars, or one value per row (per column) of ``r2``.
    With ``e = 1/l^2``, ``(-lap) k = (d e - e^2 r2) k`` on either argument
    and ``(-lap_x)(-lap_y) k = (d (d+2) e^2 - 2 (d+2) e^3 r2 + e^4 r2^2) k``,
    so an entry is ``k`` times a quadratic in ``r2`` whose coefficients are
    bilinear in the two pairs. Products and sums commute, so equal
    coefficients on both sides of a square ``r2`` give an exactly symmetric
    matrix.
    """
    return _sqexp_form(np.exp(-0.5 * (1.0 / ell**2) * r2), r2, left, right, ell, d)


def _sqexp_form(kv, r2, left, right, ell: float, d: int):
    """``_sqexp_gram`` from the kernel values ``kv = k(r2)``, which it
    returns itself when both sides are the identity: ``kv (p2 r2^2 + p1 r2
    + p0)`` by Horner's rule, without the ``r2^2`` term when ``p2`` vanishes."""
    (la, lc), (ra, rc) = left, right
    if isinstance(la, np.ndarray):
        la, lc = la[:, None], lc[:, None]
    cc, mixed, both = lc * rc, la * rc + lc * ra, la * ra
    quadratic = _nonzero(both)
    if not (quadratic or _nonzero(mixed)):
        return kv if isinstance(cc, float) and cc == 1.0 else cc * kv
    e = 1.0 / ell**2
    p0 = cc + (d * e) * mixed + (d * (d + 2) * e**2) * both
    p1 = -(e**2) * mixed - (2.0 * (d + 2) * e**3) * both
    if quadratic:
        return kv * ((e**4 * both * r2 + p1) * r2 + p0)
    return kv * (p1 * r2 + p0)


def _matern72_gram(r2, left, right, ell: float, d: int):
    """Matern-7/2 Gram entries ``(L_x R_y k)(x, y)`` from ``r2 = |x - y|^2``.

    The same bilinear form as ``_sqexp_gram``: with ``rho = sqrt(7)/l`` and
    ``s = rho |x - y|``, ``(-lap) k = rho^2/15 (3d + 3d s + (d-1) s^2 - s^3) e^-s``
    on either argument and
    ``(-lap_x)(-lap_y) k = rho^4/15 (d (d+2) (1 + s) - 2 (d+2) s^2 + s^3) e^-s``.
    """
    (la, lc), (ra, rc) = left, right
    if isinstance(la, np.ndarray):
        la, lc = la[:, None], lc[:, None]
    rho = np.sqrt(7.0) / ell
    s = rho * np.sqrt(r2)
    ev = np.exp(-s)
    out = lc * rc * (1.0 + s + 0.4 * s**2 + s**3 / 15.0) * ev
    mixed = la * rc + lc * ra
    if _nonzero(mixed):
        lap = rho**2 / 15.0 * (3 * d + 3 * d * s + (d - 1) * s**2 - s**3)
        out = out + mixed * lap * ev
    both = la * ra
    if _nonzero(both):
        bl = rho**4 / 15.0 * (d * (d + 2) * (1.0 + s) - 2 * (d + 2) * s**2 + s**3)
        out = out + both * bl * ev
    return out


def gram(k, X, left, Y=None, right=None) -> np.ndarray:
    """Gram matrix ``[(L_i R_j k)(x_i, y_j)]`` of the kernel ``k``.

    ``left`` and ``right`` are the (a, c) on the points X and Y, scalars or
    one value per point; without Y it is the exactly symmetric Gram of X.
    """
    if isinstance(k, SqExpKernel):
        closed_form = _sqexp_gram
    elif isinstance(k, Matern72Kernel):
        closed_form = _matern72_gram
    else:
        raise UnsupportedOperatorPair(f"no operator images for kernel type {type(k).__name__}")
    X = _as_points(X, k.dim)
    Y = X if Y is None else _as_points(Y, k.dim)
    r2 = np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=-1)
    return closed_form(r2, left, left if right is None else right, k.lengthscale, k.dim)


def op_gram(left: OperatorTag, right: OperatorTag, k, X, Y) -> np.ndarray:
    """``gram`` with the tag ``left`` on all of X and ``right`` on all of Y."""
    return gram(k, X, (left.a, left.c), Y, (right.a, right.c))


def fill_distance(design, domain_probe) -> float:
    """Largest distance from a probe point to its nearest design point.

    ``domain_probe`` should be a dense grid over the domain, shape
    ``(n, d)`` or ``(n,)`` in 1D; the design is read as points of the same
    dimension d. The result approximates ``sup_x min_i |x - x_i|`` from
    below at the probe resolution.

    Each probe point keeps a running minimum of its squared distances to
    the design points, and one square root is taken at the end; a design
    of a few dozen points needs no spatial index.
    """
    probe = np.asarray(domain_probe, dtype=float)
    probe = probe.reshape(len(probe), -1)
    design = np.asarray(design, dtype=float).reshape(-1, probe.shape[1])
    if design.size == 0:
        raise EmptyDesign("fill distance of an empty design")
    nearest = np.full(len(probe), np.inf)
    for point in design:
        np.minimum(nearest, ((probe - point) ** 2).sum(axis=1), out=nearest)
    return float(np.sqrt(nearest.max()))


def unit_interval_probe(n: int = 10_001) -> np.ndarray:
    """Dense probe grid over [0, 1] for 1D fill distances, shape (n, 1)."""
    return np.linspace(0.0, 1.0, n)[:, None]


def unit_square_probe(n: int = 200) -> np.ndarray:
    """Dense n-by-n probe grid over the unit square, shape (n*n, 2)."""
    g = np.linspace(0.0, 1.0, n)
    a, b = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])
