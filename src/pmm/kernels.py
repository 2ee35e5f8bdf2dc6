"""Covariance functions and their images under linear differential operators.

The forward solver conditions a Gaussian process on observations of the
form ``(a * (-laplacian) + c * identity) u`` at scattered points, so every
Gram block needs the kernel with such an operator applied to one or both
arguments. For the squared-exponential kernel these are closed forms
(polynomial times Gaussian); for the Green's-function kernel they are
finite differences of a quadrature feature map. The fill distance of a
design completes the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UnsupportedOperatorPair",
    "EmptyDesign",
    "OperatorTag",
    "SqExpKernel",
    "GreensKernel1D",
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
    available in closed form for the squared-exponential kernel.
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
    def affine_interior(cls, a: float, c: float) -> "OperatorTag":
        """``a * (-laplacian) + c * identity`` acting on interior points."""
        return cls(float(a), float(c))

    @classmethod
    def boundary_trace(cls) -> "OperatorTag":
        return cls(0.0, 1.0, boundary=True)


@dataclass(frozen=True)
class SqExpKernel:
    """Squared-exponential covariance ``exp(-|x - y|^2 / (2 l^2))``."""

    lengthscale: float
    dim: int = 1

    def __post_init__(self):
        if not self.lengthscale > 0.0:
            raise ValueError("lengthscale must be positive")
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")


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


def _sqexp_pair_from_r2(left: OperatorTag, right: OperatorTag, r2, ell: float, d: int,
                        kv=None):
    """Closed form of ``(left_x right_y k)(x, y)`` in terms of ``|x-y|^2``.

    With ``e = 1/l^2`` the building blocks are
    ``(-lap) k = (d e - e^2 r2) k`` on either argument and
    ``(-lap_x)(-lap_y) k = (d (d+2) e^2 - 2 (d+2) e^3 r2 + e^4 r2^2) k``;
    both are symmetric in the two arguments, so the affine combination
    below covers every tag pairing. ``kv`` may supply the plain kernel
    values ``exp(-e r2 / 2)`` when the caller already has them.
    """
    e = 1.0 / ell**2
    if kv is None:
        kv = np.exp(-0.5 * e * r2)
    out = left.c * right.c * kv
    mixed = left.a * right.c + left.c * right.a
    if mixed != 0.0:
        out = out + mixed * (d * e - e**2 * r2) * kv
    if left.a != 0.0 and right.a != 0.0:
        bl = d * (d + 2) * e**2 - 2.0 * (d + 2) * e**3 * r2 + e**4 * r2**2
        out = out + left.a * right.a * bl * kv
    return out


def op_gram(left: OperatorTag, right: OperatorTag, k, X, Y) -> np.ndarray:
    """Gram block ``[(left_x right_y k)(x_i, y_j)]`` for point sets X, Y.

    ``left`` acts on the first kernel argument and ``right`` on the
    second; with the operators in scope this convention makes the full
    block matrix of a solve symmetric.
    """
    if isinstance(k, SqExpKernel):
        X = _as_points(X, k.dim)
        Y = _as_points(Y, k.dim)
        r2 = np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=-1)
        return _sqexp_pair_from_r2(left, right, r2, k.lengthscale, k.dim)
    if isinstance(k, GreensKernel1D):
        return k.features(left, X) @ k.features(right, Y).T
    raise UnsupportedOperatorPair(f"no operator images for kernel type {type(k).__name__}")


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


class GreensKernel1D:
    """Prior covariance built from the Dirichlet Green's function on (0, 1).

    The kernel is ``k(x, y) = int_0^1 G(x, z) G(y, z) dz`` with
    ``G(x, z) = min(x, z) (1 - max(x, z))``, the Green's function of the
    negative second derivative with zero boundary values. The integral is
    evaluated by composite Gauss-Legendre quadrature, which represents the
    kernel exactly as an inner product of feature vectors
    ``sqrt(w_q) G(x, z_q)``; operator images are central second
    differences of the features, so every Gram block is a feature product
    and positive semi-definite by construction.

    Sample paths vanish at the boundary, so this prior is only meaningful
    for problems with zero Dirichlet data.
    """

    dim = 1

    def __init__(self, quadrature_nodes: int = 256):
        if quadrature_nodes < 8 or quadrature_nodes % 2:
            raise ValueError("quadrature_nodes must be an even count >= 8")
        self.quadrature_nodes = quadrature_nodes
        panels = quadrature_nodes // 2
        gx, gw = np.polynomial.legendre.leggauss(2)
        edges = np.linspace(0.0, 1.0, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        self._z = (half[:, None] * gx[None, :] + mid[:, None]).ravel()
        self._sqw = np.sqrt((half[:, None] * gw[None, :]).ravel())

    def _g(self, x: np.ndarray) -> np.ndarray:
        xc = x[:, None]
        z = self._z[None, :]
        return np.minimum(xc, z) * (1.0 - np.maximum(xc, z))

    def features(self, tag: OperatorTag, X) -> np.ndarray:
        """Quadrature feature matrix of ``tag`` applied to the kernel, (n, q)."""
        x = _as_points(X, 1)[:, 0]
        out = tag.c * self._g(x) if tag.c != 0.0 else 0.0
        if tag.a != 0.0:
            h = 2.0 / self.quadrature_nodes  # the width of one quadrature panel
            lap = (self._g(x + h) - 2.0 * self._g(x) + self._g(x - h)) / h**2
            out = out + tag.a * (-lap)
        return np.asarray(out) * self._sqw[None, :]

