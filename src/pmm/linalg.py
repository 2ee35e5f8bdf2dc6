"""Dense symmetric-positive-definite linear algebra.

Wraps Cholesky factorization with an adaptive diagonal-jitter schedule,
triangular solves, multivariate normal log-density and sampling, and a
seedable counter-based RNG wrapper used by every stochastic operation in
this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

__all__ = [
    "NotPositiveDefinite",
    "RngStream",
    "CholFactor",
    "chol_jitter",
    "psd_solve",
    "mvn_logpdf",
    "mvn_sample",
]

_LOG_2PI = np.log(2.0 * np.pi)
_MASK64 = (1 << 64) - 1


class NotPositiveDefinite(np.linalg.LinAlgError):
    """Raised when a matrix cannot be factorized even at the maximum jitter."""


@dataclass
class RngStream:
    """Seedable random stream, one of many independent streams per seed.

    Backed by the counter-based Philox bit generator keyed on
    ``(seed, stream_id)``: identical pairs reproduce identical draw
    sequences regardless of platform or thread count, provided draws are
    consumed in the same order within one stream.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def generator(self) -> np.random.Generator:
        """Return the generator for this stream, creating it on first use."""
        if self._gen is None:
            key = np.array(
                [self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
            )
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen


@dataclass(frozen=True)
class CholFactor:
    """Lower Cholesky factor of ``m + jitter_used * I``."""

    lower: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def chol_jitter(m) -> CholFactor:
    """Cholesky factorization with a geometric jitter schedule.

    Attempts ``L L^T = m`` directly, then retries with ``m + j I`` for
    ``j = 1e-10 s, 1e-9 s, ...`` up to ``1e-2 s``. The schedule is
    scale-free: ``s = mean(diag(m))``, with unit scale substituted when
    the diagonal mean is not positive.

    Parameters
    ----------
    m : ndarray, shape (n, n)
        Symmetric matrix to factor.

    Returns
    -------
    CholFactor
        Factor together with the jitter value that succeeded.

    Raises
    ------
    NotPositiveDefinite
        If factorization fails for every jitter in the schedule.
    FloatingPointError
        If the factor's diagonal is not finite, which is how a NaN or inf
        anywhere in the lower triangle of ``m`` shows, or if a failed
        factorization meets a non-finite entry of ``m``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    jitter = 0.0
    while True:
        try:
            lower = np.linalg.cholesky(m + jitter * np.eye(n) if jitter else m)
        except np.linalg.LinAlgError:
            if jitter:
                jitter *= 10.0
            else:
                # an inf below the diagonal fails here rather than in the factor
                if not np.isfinite(m).all():
                    raise FloatingPointError(f"size-{n} matrix has non-finite entries") from None
                # the scale is needed only once the plain factorization has failed
                scale = float(np.mean(np.diag(m)))
                if scale <= 0.0 or not np.isfinite(scale):
                    scale = 1.0
                jitter = 1e-10 * scale
            if jitter > 1e-2 * scale * (1.0 + 1e-12):
                raise NotPositiveDefinite(
                    f"Cholesky failed up to jitter {1e-2 * scale:.3e} "
                    f"(matrix size {n}, diagonal mean {scale:.3e})"
                ) from None
        else:
            # the diagonal entries are positive square roots, so their sum is
            # finite exactly when each of them is
            if not math.isfinite(lower.trace()):
                raise FloatingPointError(f"Cholesky factor of a size-{n} matrix is not finite")
            return CholFactor(lower=lower, jitter_used=jitter)


def psd_solve(f: CholFactor, b) -> np.ndarray:
    """Solve ``(m + jitter_used * I) x = b`` given the factor of ``m``.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    b = np.asarray(b, dtype=float)
    return cho_solve((f.lower, True), b)


def mvn_logpdf(y, mu, cov):
    """Log-density of a multivariate normal, ``log N(y; mu, cov)``.

    A 1-D ``mu`` gives a float; a ``(k, n)`` stack of means gives ``k``
    values from one :func:`chol_jitter` factor of ``cov`` and one triangular
    solve (Rasmussen & Williams, GPML, Alg. 2.1). A nearly singular ``cov``
    is evaluated at its jittered regularization.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    mu = np.asarray(mu, dtype=float)
    means = mu.reshape(1, -1) if mu.ndim < 2 else mu
    if means.ndim != 2 or means.shape[1] != y.size:
        raise ValueError(f"means of shape {mu.shape} do not match {y.size} data values")
    f = chol_jitter(cov)
    if f.n != y.size:
        raise ValueError("covariance dimension does not match y")
    # chol_jitter has checked the factor; a NaN in y or the means comes out as NaN
    alpha = solve_triangular(f.lower, (y - means).T, lower=True, check_finite=False)
    logdet = 2.0 * np.sum(np.log(np.diag(f.lower)))
    logpdf = -0.5 * (y.size * _LOG_2PI + logdet + np.sum(alpha**2, axis=0))
    return float(logpdf[0]) if mu.ndim < 2 else logpdf


def mvn_sample(mu, cov, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` samples from ``N(mu, cov)``, shape ``(n, dim)``.

    Samples are ``mu + L xi`` for standard normal ``xi`` and the jittered
    Cholesky factor ``L``; draws are a pure function of ``(mu, cov, rng)``.
    """
    mu = np.asarray(mu, dtype=float).reshape(-1)
    f = chol_jitter(cov)
    if f.n != mu.size:
        raise ValueError("covariance dimension does not match mu")
    xi = rng.generator().standard_normal((n, mu.size))
    return mu[None, :] + xi @ f.lower.T
