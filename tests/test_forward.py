import numpy as np
import pytest

from pmm import kernels
from pmm.forward import (
    ConvergenceRow,
    ForwardPosterior,
    ObservationBlock,
    assemble_gram,
    boundary_points_1d,
    convergence_experiment,
    edge_points_2d,
    interior_grid_1d,
    interior_grid_2d,
    nested_points_1d,
    sample_paths,
    solve_forward,
)
from pmm.kernels import Matern72Kernel, OperatorTag, SqExpKernel, op_gram
from pmm.linalg import RngStream, chol_jitter
from pmm.problems import Poisson1D, ac_design
from reference import fd_check, linearized_ac_blocks

ID = OperatorTag.identity()
NL = OperatorTag(1.0, 0.0)
BT = OperatorTag.boundary_trace()


def block_by_block(blocks, k):
    """The Gram matrix assembled from one ``op_gram`` product per block pair."""
    return np.block([[op_gram(bi.op, bj.op, k, bi.points, bj.points) for bj in blocks]
                     for bi in blocks])


def mixed_1d_blocks(m):
    """Three operators on one 1D design: a*(-lap) + c with both terms, the
    identity, and the boundary trace."""
    xi = interior_grid_1d(m)
    return [
        ObservationBlock(OperatorTag(0.7, -2.0), xi, np.zeros(m)),
        ObservationBlock(ID, xi, np.zeros(m)),
        ObservationBlock(BT, boundary_points_1d(), np.zeros(2)),
    ]


def poisson_posterior(m=16, ell=0.2, design="uniform"):
    problem = Poisson1D()
    return problem, solve_forward(problem.blocks(m, design=design), SqExpKernel(ell))


class TestObservationBlock:
    def test_valid(self):
        b = ObservationBlock(NL, interior_grid_1d(4), np.ones(4))
        assert b.size == 4
        assert b.points.shape == (4, 1)

    def test_len_mismatch(self):
        with pytest.raises(ValueError):
            ObservationBlock(NL, interior_grid_1d(4), np.ones(3))

    def test_boundary_tag_needs_boundary_points(self):
        with pytest.raises(ValueError):
            ObservationBlock(BT, interior_grid_1d(3), np.zeros(3))

    def test_interior_tag_rejects_boundary_points(self):
        with pytest.raises(ValueError):
            ObservationBlock(NL, boundary_points_1d(), np.zeros(2))


class TestAssembleGram:
    def test_single_identity_block_is_kernel_gram(self):
        k = SqExpKernel(0.5)
        pts = interior_grid_1d(5)
        gram = assemble_gram([ObservationBlock(ID, pts, np.zeros(5))], k)
        np.testing.assert_array_equal(gram, op_gram(ID, ID, k, pts, pts))

    def test_exactly_symmetric(self):
        problem = Poisson1D()
        gram = assemble_gram(problem.blocks(12), SqExpKernel(0.3))
        np.testing.assert_array_equal(gram, gram.T)

    def test_off_diagonal_block_matches_fd(self):
        k = SqExpKernel(0.5)
        xi = interior_grid_1d(3)
        xb = boundary_points_1d()
        blocks = [
            ObservationBlock(NL, xi, np.zeros(3)),
            ObservationBlock(BT, xb, np.zeros(2)),
        ]
        gram = assemble_gram(blocks, k)
        # the (interior, boundary) block holds (-lap_x) k(x_i, b_j)
        for i in range(3):
            for j in range(2):
                err = fd_check(NL, BT, k, xi[i], xb[j], 1e-4)
                assert err < 1e-4
                assert gram[i, 3 + j] == op_gram(NL, BT, k, xi[i], xb[j])[0, 0]


    @pytest.mark.parametrize("m", [4, 16, 80])
    def test_stacked_rows_equal_block_products_sqexp(self, m):
        # one expression over per-row coefficients, bit for bit the Gram of
        # one closed form per block pair, for the Poisson and mixed designs
        k = SqExpKernel(0.2)
        for blocks in (Poisson1D().blocks(m), mixed_1d_blocks(m)):
            np.testing.assert_array_equal(assemble_gram(blocks, k), block_by_block(blocks, k))

    @pytest.mark.parametrize("ell", [0.05, 0.1, 0.15])
    def test_stacked_rows_equal_block_products_allen_cahn(self, ell):
        design = ac_design(5, 5)
        z = np.linspace(-20.0, 20.0, len(design.interior_points))
        blocks = linearized_ac_blocks(0.04, z, design)
        k = SqExpKernel(ell, dim=2)
        np.testing.assert_array_equal(assemble_gram(blocks, k), block_by_block(blocks, k))

    def test_matern_stacked_rows_symmetric_and_match_block_products(self):
        # the Matern-7/2 closed form over all rows: exactly symmetric, and bit
        # for bit the Gram of one closed form per block pair
        k = Matern72Kernel(0.2)
        for m in (4, 10, 16, 40, 80):
            for blocks in (Poisson1D().blocks(m, design="nested"), mixed_1d_blocks(m)):
                gram = assemble_gram(blocks, k)
                np.testing.assert_array_equal(gram, gram.T)
                np.testing.assert_array_equal(gram, block_by_block(blocks, k))


class TestSolveForward:
    def test_zero_data_zero_mean(self):
        problem = Poisson1D()
        blocks = problem.blocks(8)
        zero_blocks = [ObservationBlock(b.op, b.points, np.zeros(b.size)) for b in blocks]
        post = solve_forward(zero_blocks, SqExpKernel(0.2))
        grid = np.linspace(0, 1, 50)
        np.testing.assert_allclose(post.mean(grid), 0.0, atol=1e-14)

    @pytest.mark.parametrize("m", [10, 16])
    def test_boundary_interpolation(self, m):
        _, post = poisson_posterior(m)
        bmean = post.mean(boundary_points_1d())
        assert np.max(np.abs(bmean)) <= 1e-8

    def test_mean_accuracy_m40(self):
        problem, post = poisson_posterior(40)
        grid = np.linspace(0, 1, 512)
        exact = problem.exact(grid)
        err = np.linalg.norm(post.mean(grid) - exact) / np.linalg.norm(exact)
        assert err < 1e-2

    def test_mean_linear_in_data(self):
        problem = Poisson1D()
        blocks = problem.blocks(10)
        scaled = [ObservationBlock(b.op, b.points, 3.0 * b.rhs) for b in blocks]
        grid = np.linspace(0, 1, 64)
        m1 = solve_forward(blocks, SqExpKernel(0.2)).mean(grid)
        m3 = solve_forward(scaled, SqExpKernel(0.2)).mean(grid)
        np.testing.assert_allclose(m3, 3.0 * m1, rtol=1e-10, atol=1e-14)

    def test_operator_residual_at_design_points(self):
        # applying the interior operator to the mean reproduces the forcing
        problem, post = poisson_posterior(16)
        xi = interior_grid_1d(16)
        rows = kernels.gram(SqExpKernel(0.2), xi, (NL.a, NL.c), post.points, post.coeffs)
        residual = rows @ post.weights - problem.forcing(xi[:, 0])
        assert np.max(np.abs(residual)) < 1e-6


class TestPosteriorCov:
    def test_diag_below_prior_variance(self):
        _, post = poisson_posterior(10)
        grid = np.linspace(0, 1, 40)
        var = np.diag(post.cov(grid))
        assert np.all(var <= 1.0 + 1e-8)

    def test_observed_points_have_tiny_variance(self):
        _, post = poisson_posterior(16)
        cov = post.cov(boundary_points_1d())
        assert np.max(np.diag(cov)) <= 1e-8

    def test_nested_trace_decreases(self):
        problem = Poisson1D()
        grid = np.linspace(0, 1, 100)
        traces = []
        for m in (10, 20):
            post = solve_forward(problem.blocks(m, design="nested"), SqExpKernel(0.2))
            traces.append(np.trace(post.cov(grid)))
        assert traces[1] < traces[0]

    def test_psd_on_random_points(self):
        _, post = poisson_posterior(12)
        pts = np.sort(np.random.default_rng(0).uniform(0.01, 0.99, 30))
        cov = post.cov(pts)
        np.testing.assert_array_equal(cov, cov.T)
        f = chol_jitter(cov)
        assert f.jitter_used <= 1e-6  # prior variance is 1


class TestPosteriorVar:
    # (kernel, design, m, whether the equilibrated Gram needs jitter)
    @pytest.mark.parametrize("kernel,design,m,jittered", [
        (SqExpKernel(0.2), "uniform", 10, False),
        (SqExpKernel(0.2), "nested", 10, False),
        (SqExpKernel(0.2), "uniform", 40, True),
        (SqExpKernel(0.2), "nested", 40, True),
        (Matern72Kernel(0.2), "uniform", 10, False),
        (Matern72Kernel(0.2), "nested", 10, False),
        (Matern72Kernel(0.2), "uniform", 40, False),
        (Matern72Kernel(0.2), "nested", 40, False),
    ])
    def test_matches_cov_diagonal_1d(self, kernel, design, m, jittered):
        post = solve_forward(Poisson1D().blocks(m, design=design), kernel)
        assert (post.gram_factor.jitter_used > 0.0) == jittered
        grid = np.linspace(0.0, 1.0, 512)
        var = post.var(grid)
        np.testing.assert_allclose(var, np.diag(post.cov(grid)), rtol=0.0, atol=1e-15)
        assert var.min() >= 0.0

    def test_matches_cov_diagonal_2d(self):
        blocks = [
            ObservationBlock(NL, interior_grid_2d(4), np.ones(16)),
            ObservationBlock(BT, edge_points_2d(4), np.zeros(16)),
        ]
        post = solve_forward(blocks, SqExpKernel(0.3, dim=2))
        # random points plus the observed edge points, where the variance is zero
        pts = np.vstack([np.random.default_rng(0).uniform(0.0, 1.0, (200, 2)),
                         edge_points_2d(4)])
        var = post.var(pts)
        np.testing.assert_allclose(var, np.diag(post.cov(pts)), rtol=0.0, atol=1e-15)
        assert var.min() >= 0.0

    def test_convergence_trace_matches_cov_trace(self):
        # the converge experiment's defaults
        problem, kernel = Poisson1D(), SqExpKernel(0.1)
        grid = np.linspace(0.0, 1.0, 512)
        m_list = [5, 10, 20, 40, 80]
        rows = convergence_experiment(problem, kernel, m_list, grid)
        for row, m in zip(rows, m_list):
            cov = solve_forward(problem.blocks(m, design="nested"), kernel).cov(grid)
            assert row.cov_trace == pytest.approx(np.trace(cov), rel=1e-7, abs=0.0)

    def test_convergence_experiment_forms_no_covariance(self, monkeypatch):
        calls = []
        cov = ForwardPosterior.cov
        monkeypatch.setattr(ForwardPosterior, "cov",
                            lambda self, X: calls.append(len(X)) or cov(self, X))
        convergence_experiment(Poisson1D(), SqExpKernel(0.1), [5, 10, 20],
                               np.linspace(0.0, 1.0, 64))
        assert calls == []


class TestSamplePaths:
    def test_boundary_values_pinned(self):
        _, post = poisson_posterior(16)
        draws = sample_paths(post, boundary_points_1d(), 50, RngStream(0))
        assert np.max(np.abs(draws)) < 1e-3

    def test_sample_variance_matches_cov(self):
        _, post = poisson_posterior(8, ell=0.15)
        grid = np.linspace(0.05, 0.95, 12)
        target = np.diag(post.cov(grid))
        draws = sample_paths(post, grid, 1000, RngStream(1))
        emp = draws.var(axis=0)
        mask = target > 1e-6
        assert mask.any()
        assert np.all(np.abs(emp[mask] - target[mask]) / target[mask] < 0.15)

    def test_reproducible(self):
        _, post = poisson_posterior(8)
        grid = np.linspace(0, 1, 20)
        a = sample_paths(post, grid, 3, RngStream(7, 2))
        b = sample_paths(post, grid, 3, RngStream(7, 2))
        np.testing.assert_array_equal(a, b)


class TestDesigns:
    def test_interior_grid(self):
        np.testing.assert_allclose(interior_grid_1d(4)[:, 0], [0.2, 0.4, 0.6, 0.8])

    def test_nested_prefix_property(self):
        a = nested_points_1d(10)
        b = nested_points_1d(25)
        np.testing.assert_array_equal(a, b[:10])

    def test_nested_points_distinct_interior(self):
        pts = nested_points_1d(64)[:, 0]
        assert len(np.unique(pts)) == 64
        assert pts.min() > 0.0 and pts.max() < 1.0

    def test_2d_designs(self):
        g = interior_grid_2d(3)
        assert g.shape == (9, 2)
        assert g.min() > 0 and g.max() < 1
        e = edge_points_2d(4)
        assert e.shape == (16, 2)
        on_edge = (e == 0.0) | (e == 1.0)
        assert np.all(on_edge.any(axis=1))
        # corners excluded
        assert not np.any(on_edge.all(axis=1))


class TestConvergenceExperiment:
    def test_rows_and_monotonicity(self):
        problem = Poisson1D()
        grid = np.linspace(0, 1, 256)
        rows = convergence_experiment(problem, SqExpKernel(0.1), [5, 10, 20, 40], grid)
        assert [r.m for r in rows] == [5, 10, 20, 40]
        errs = [r.err_l2_rel for r in rows]
        traces = [r.cov_trace for r in rows]
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        assert all(b <= a for a, b in zip(traces, traces[1:]))
        assert all(r.h > 0 for r in rows)

    def test_uniform_fill_distance_is_half_spacing(self):
        problem = Poisson1D()
        grid = np.linspace(0, 1, 128)
        rows = convergence_experiment(problem, SqExpKernel(0.2), [5, 10], grid,
                                      design="uniform")
        for r in rows:
            s = 1.0 / (r.m + 1)
            assert r.h == pytest.approx(s / 2, abs=2e-4)

    def test_matern72_rate(self):
        # the mean's error against the fill distance h falls at least as fast
        # as h^(beta - rho - d/2) = h^1.5: beta = nu + d/2 = 4, operator order
        # rho = 2, d = 1
        rows = convergence_experiment(Poisson1D(), Matern72Kernel(0.2), [40, 80, 160],
                                      np.linspace(0, 1, 512), design="nested")
        h = np.array([r.h for r in rows])
        err = np.array([r.err_l2_rel for r in rows])
        assert np.polyfit(np.log(h), np.log(err), 1)[0] >= 1.5
        assert err[-1] < 1e-3

    def test_m_list_must_increase(self):
        with pytest.raises(ValueError):
            convergence_experiment(Poisson1D(), SqExpKernel(0.2), [10, 5],
                                   np.linspace(0, 1, 64))

    def test_row_serialization(self):
        row = ConvergenceRow(5, 0.1, 0.2, 0.3)
        assert row.astuple() == (5, 0.1, 0.2, 0.3)
        assert ConvergenceRow.FIELDS == ("m", "h", "err_l2_rel", "cov_trace")
