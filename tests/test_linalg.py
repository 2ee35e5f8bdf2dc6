import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from pmm.linalg import (
    CholFactor,
    NotPositiveDefinite,
    RngStream,
    chol_jitter,
    mvn_logpdf,
    mvn_sample,
    psd_solve,
)


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestCholJitter:
    def test_identity(self):
        f = chol_jitter(np.eye(3))
        assert f.jitter_used == 0.0
        np.testing.assert_allclose(f.lower, np.eye(3))

    def test_hand_factor(self):
        # [[4,2],[2,3]] factors as [[2,0],[1,sqrt(2)]]
        f = chol_jitter(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert f.jitter_used == 0.0
        np.testing.assert_allclose(
            f.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], rtol=1e-15
        )

    def test_rank_deficient_gets_jitter(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        # eigenvalue oracle: the smallest eigenvalue is exactly 0
        assert abs(np.linalg.eigvalsh(m)[0]) < 1e-15
        f = chol_jitter(m)
        assert f.jitter_used >= 1e-10 * np.mean(np.diag(m))
        recon = f.lower @ f.lower.T
        target = m + f.jitter_used * np.eye(2)
        assert np.linalg.norm(recon - target) / np.linalg.norm(target) < 1e-8

    @pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (20, 2), (60, 3)])
    def test_round_trip(self, n, seed):
        m = random_spd(n, seed)
        f = chol_jitter(m)
        recon = f.lower @ f.lower.T
        target = m + f.jitter_used * np.eye(n)
        assert np.linalg.norm(recon - target) / np.linalg.norm(target) < 1e-8

    def test_hopeless_matrix_raises(self):
        with pytest.raises(NotPositiveDefinite):
            chol_jitter(np.array([[1.0, 0.0], [0.0, -5.0]]))

    @pytest.mark.parametrize("entry,value,error", [
        ((2, 0), np.nan, FloatingPointError),
        ((1, 1), np.nan, FloatingPointError),
        ((0, 0), np.inf, FloatingPointError),
        # an inf below the diagonal drives a pivot to -inf, which LAPACK
        # rejects; the failure is traced to the non-finite input
        ((2, 1), np.inf, FloatingPointError),
    ])
    def test_non_finite_matrix_raises(self, entry, value, error):
        # LAPACK returns a NaN factor for a NaN input without complaint; both
        # errors must be ones the CLI reports as a failed numerical stage
        from pmm.cli import NUMERICAL_ERRORS

        m = random_spd(4, 5)
        m[entry] = value
        with pytest.raises(error):
            chol_jitter(m)
        assert issubclass(error, NUMERICAL_ERRORS)

    def test_zero_matrix_uses_unit_scale(self):
        f = chol_jitter(np.zeros((3, 3)))
        assert f.jitter_used == 1e-10

    @pytest.mark.parametrize("scale", [1.0, 3.0, 0.37])
    def test_singular_psd_matrix_takes_the_first_rung(self, scale):
        # the second pivot of a rank-1 matrix is exactly zero, which the plain
        # factorization refuses and the smallest jitter repairs
        m = np.full((2, 2), scale)
        f = chol_jitter(m)
        assert f.jitter_used == 1e-10 * np.mean(np.diag(m))

    @pytest.mark.parametrize("diag", [[-5e-11, -5e-11], [-5e-11, 4e-11]])
    def test_negative_diagonal_mean_uses_unit_scale(self, diag):
        f = chol_jitter(np.diag(diag))
        assert f.jitter_used == 1e-10

    def test_schedule_is_geometric(self):
        # smallest eigenvalue -1e-8: the schedule walks up by factors of 10
        # from 1e-10 * mean(diag) until the shift dominates
        m = np.diag([1.0, 1.0, -1e-8])
        f = chol_jitter(m)
        jitter_min = 1e-10 * np.mean(np.diag(m))
        ratio = np.log10(f.jitter_used / jitter_min)
        assert abs(ratio - round(ratio)) < 1e-9
        assert f.jitter_used > 1e-8


class TestPsdSolve:
    def test_identity(self):
        f = chol_jitter(np.eye(4))
        b = np.arange(4.0)
        np.testing.assert_allclose(psd_solve(f, b), b)

    def test_hand_solve(self):
        f = chol_jitter(np.array([[4.0, 2.0], [2.0, 3.0]]))
        x = psd_solve(f, np.array([8.0, 7.0]))
        np.testing.assert_allclose(x, [1.25, 1.5], rtol=1e-14)

    def test_residual_random(self):
        m = random_spd(5, 7)
        f = chol_jitter(m)
        b = np.random.default_rng(8).standard_normal(5)
        x = psd_solve(f, b)
        res = (m + f.jitter_used * np.eye(5)) @ x - b
        assert np.linalg.norm(res) / np.linalg.norm(b) < 1e-8

    def test_matrix_rhs(self):
        m = random_spd(6, 9)
        f = chol_jitter(m)
        b = np.random.default_rng(10).standard_normal((6, 3))
        x = psd_solve(f, b)
        assert x.shape == (6, 3)
        assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) < 1e-8


class TestMvnLogpdf:
    def test_standard_normal_at_mode(self):
        val = mvn_logpdf([0.0], [0.0], [[1.0]])
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-14)

    def test_unit_deviation(self):
        val = mvn_logpdf([1.0], [0.0], [[1.0]])
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi) - 0.5, abs=1e-14)

    def test_diagonal_is_sum_of_marginals(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(4)
        mu = rng.standard_normal(4)
        sd = rng.uniform(0.5, 2.0, 4)
        val = mvn_logpdf(y, mu, np.diag(sd**2))
        ref = sum(norm.logpdf(y[i], mu[i], sd[i]) for i in range(4))
        assert val == pytest.approx(ref, rel=1e-12)

    def test_normalization_by_quadrature(self):
        sd = 1.7
        total, _ = quad(
            lambda t: np.exp(mvn_logpdf([t], [0.3], [[sd**2]])),
            0.3 - 10 * sd, 0.3 + 10 * sd, limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mvn_logpdf([0.0, 1.0], [0.0], [[1.0]])

    def test_one_mean_gives_a_float(self):
        val = mvn_logpdf(np.ones(3), np.zeros(3), random_spd(3, 13))
        assert type(val) is float

    @pytest.mark.parametrize("k,n", [(1, 1), (1, 5), (7, 1), (40, 6)])
    def test_batch_matches_per_row_loop(self, k, n):
        rng = np.random.default_rng(14)
        y = rng.standard_normal(n)
        means = rng.standard_normal((k, n))
        cov = random_spd(n, 15)
        got = mvn_logpdf(y, means, cov)
        assert isinstance(got, np.ndarray) and got.shape == (k,)
        want = np.array([mvn_logpdf(y, mu, cov) for mu in means])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("y,means,cov", [
        (np.zeros(4), np.zeros((5, 3)), random_spd(3, 17)),  # y longer than the means
        (np.zeros(2), np.zeros((5, 3)), random_spd(3, 17)),  # y shorter than the means
        (np.zeros(3), np.zeros((5, 3)), random_spd(4, 17)),  # covariance of the wrong size
        (np.zeros(3), np.zeros((2, 5, 3)), random_spd(3, 17)),  # means of three dimensions
    ])
    def test_batch_shape_mismatch(self, y, means, cov):
        with pytest.raises(ValueError):
            mvn_logpdf(y, means, cov)

    def test_nan_data_gives_nan(self):
        # non-finite data reach the caller as NaN, which it must reject
        got = mvn_logpdf([0.0, np.nan], np.zeros((3, 2)), np.eye(2))
        assert np.isnan(got).all()


class TestMvnSample:
    def test_degenerate_cov_stays_near_mean(self):
        mu = np.array([2.0, -1.0])
        draws = mvn_sample(mu, np.zeros((2, 2)), 100, RngStream(0))
        f = chol_jitter(np.zeros((2, 2)))
        assert np.max(np.abs(draws - mu)) < 10 * np.sqrt(f.jitter_used)

    def test_law_of_large_numbers(self):
        draws = mvn_sample([0.5], [[1.0]], 10_000, RngStream(1))
        assert abs(draws.mean() - 0.5) < 0.05
        assert abs(draws.var() - 1.0) < 0.1

    def test_determinism(self):
        cov = random_spd(3, 12)
        a = mvn_sample(np.zeros(3), cov, 7, RngStream(42, 5))
        b = mvn_sample(np.zeros(3), cov, 7, RngStream(42, 5))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = mvn_sample([0.0], [[1.0]], 5, RngStream(42, 0))
        b = mvn_sample([0.0], [[1.0]], 5, RngStream(42, 1))
        assert not np.allclose(a, b)

    def test_covariance_recovered(self):
        cov = np.array([[2.0, 0.6], [0.6, 0.5]])
        draws = mvn_sample(np.zeros(2), cov, 20_000, RngStream(3))
        emp = np.cov(draws.T)
        assert np.max(np.abs(emp - cov)) < 0.08


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(7, 3).generator().standard_normal(10)
        b = RngStream(7, 3).generator().standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_negative_seed_ok(self):
        RngStream(-12345).generator().standard_normal(3)
