import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import spsolve

import pmm.problems
from pmm.forward import edge_points_2d, interior_grid_2d, solve_forward
from pmm.inverse import ACInverseSetup, CoarseSolutionCache
from pmm.kernels import SqExpKernel
from pmm.linalg import RngStream
from pmm.problems import (
    DELTA_RANGE,
    GridSolution,
    Poisson1D,
    _jacobian_band,
    _jacobian_factor,
    _jacobian_solve,
    _lap,
    ac_boundary_values,
    ac_deflated_solve,
    ac_design,
    generate_data,
    poisson_exact,
)
from reference import (
    ac_residual,
    fresh_lu,
    fresh_lu_newton,
    linearized_ac_blocks,
    neighbour_seeds,
    sparse_ac_jacobian,
    sparse_laplacian,
)


def fd_poisson_solve(theta, n_cells=10_000):
    """Independent second-order finite-difference solve of -theta u'' = sin(2 pi x)."""
    h = 1.0 / n_cells
    x = np.arange(1, n_cells) * h
    rhs = np.sin(2 * np.pi * x) / theta
    main = 2.0 * np.ones(n_cells - 1)
    off = -1.0 * np.ones(n_cells - 2)
    from scipy.linalg import solveh_banded
    ab = np.vstack([np.concatenate([[0.0], off]), main])
    u = solveh_banded(ab, rhs * h**2)
    return x, u


class TestPoissonExact:
    def test_boundary_values(self):
        assert poisson_exact(1.0, 0.0) == 0.0
        assert poisson_exact(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_point(self):
        assert poisson_exact(1.0, 0.25) == pytest.approx(1.0 / (4 * np.pi**2), rel=1e-14)

    def test_theta_scaling(self):
        x = np.linspace(0, 1, 11)
        np.testing.assert_allclose(poisson_exact(2.0, x), 0.5 * poisson_exact(1.0, x))

    def test_against_fd_solver(self):
        x, u_fd = fd_poisson_solve(1.3)
        u = poisson_exact(1.3, x)
        assert np.max(np.abs(u - u_fd)) < 1e-6

    def test_residual_fourth_order_stencil(self):
        # -theta u'' = sin(2 pi x) at random interior points
        rng = np.random.default_rng(0)
        theta, h = 0.8, 1e-3
        x = rng.uniform(0.05, 0.95, 100)
        u = lambda t: poisson_exact(theta, t)
        upp = (-u(x - 2 * h) + 16 * u(x - h) - 30 * u(x) + 16 * u(x + h) - u(x + 2 * h)) / (12 * h**2)
        assert np.max(np.abs(-theta * upp - np.sin(2 * np.pi * x))) < 1e-6

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            poisson_exact(0.0, 0.5)


class TestGenerateData:
    def test_noiseless_limit(self):
        y = generate_data(1.0, [0.25, 0.75], 1e-12, RngStream(0))
        np.testing.assert_allclose(y, poisson_exact(1.0, np.array([0.25, 0.75])), atol=1e-10)

    def test_reference_scenario(self):
        # theta0 = 1, locations {0.25, 0.75}, sigma = 0.01
        y = generate_data(1.0, [0.25, 0.75], 0.01, RngStream(1))
        exact = poisson_exact(1.0, np.array([0.25, 0.75]))
        assert np.max(np.abs(y - exact)) < 0.05

    def test_reproducible(self):
        a = generate_data(1.0, [0.25, 0.75], 0.01, RngStream(2, 1))
        b = generate_data(1.0, [0.25, 0.75], 0.01, RngStream(2, 1))
        np.testing.assert_array_equal(a, b)


class TestAllenCahnResidual:
    def test_constant_one_with_uniform_boundary(self):
        # u = +1 solves the interior equation when every edge is +1
        n = 20
        u = np.ones((n, n))
        res = ac_residual(u, 0.05, boundary=(1.0, 1.0, 1.0, 1.0))
        np.testing.assert_allclose(res, 0.0, atol=1e-12)

    def test_zero_state_interior(self):
        n = 24
        res = ac_residual(np.zeros((n, n)), 0.05)
        # away from the boundary the residual vanishes; the ring adjacent to
        # the boundary picks up the +-1 edge data
        assert np.max(np.abs(res[2:-2, 2:-2])) == 0.0
        assert np.max(np.abs(res)) > 0.0

    def test_converged_solution_residual(self):
        sols = ac_deflated_solve(0.05, 31)
        for s in sols:
            assert np.max(np.abs(ac_residual(s.u, 0.05))) < 1e-9


class TestBandedNewton:
    """The stencil and the banded LU against the sparse assembly they replace,
    and the chord Newton against a fresh LU at every step."""

    @pytest.mark.parametrize("n", [16, 31])
    def test_stencil_matches_sparse_laplacian(self, n):
        u = np.random.default_rng(n).standard_normal(n * n)
        ref = sparse_laplacian(n) @ u
        got = _lap(u, n, 1.0 / (n + 1))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [16, 31])
    def test_newton_step_matches_sparse_solve(self, n):
        # u spans [-1, 1], so 3u^2 - 1 takes both signs and J is indefinite
        delta = 0.04
        u = np.random.default_rng(100 + n).uniform(-1.0, 1.0, n * n)
        res = ac_residual(u, delta)
        ref = spsolve(sparse_ac_jacobian(u, delta), -res)
        step = _jacobian_solve(_jacobian_factor(_jacobian_band(delta, n), u, delta), -res)
        assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [16, 31])
    @pytest.mark.parametrize("delta", [0.02, 0.04, 0.1, 0.15])
    @pytest.mark.parametrize("cells_away", [1, 2])
    def test_every_newton_run_matches_fresh_lu(self, monkeypatch, n, delta, cells_away):
        # given the same start and the same deflated roots, a run that keeps
        # its LU while full steps contract converges, or fails, as a run with
        # a fresh LU at every step does, and to the same root; the solve is
        # seeded with the branches one or two table cells away, as in the
        # coarse sweep (the cold solve is covered by the whole-solve check
        # below)
        chord = pmm.problems._newton_ac
        gaps = []

        def both(*args):
            got, want = chord(*args), fresh_lu_newton(*args)
            assert got[1] == want[1]
            if got[1]:
                gaps.append(float(np.max(np.abs(got[0] - want[0]))))
            return got

        seeds = neighbour_seeds(delta, n, cells_away)
        monkeypatch.setattr(pmm.problems, "_newton_ac", both)
        ac_deflated_solve(delta, n, seeds=seeds)
        assert gaps and max(gaps) <= 1e-10

    @pytest.mark.parametrize("n", [16, 31])
    @pytest.mark.parametrize("delta", [0.02, 0.04, 0.1, 0.15])
    def test_cold_solve_matches_fresh_lu(self, n, delta):
        # the roots agree to ~1e-13, not bitwise, and deflation carries that
        # gap into every later run of the solve
        got = ac_deflated_solve(delta, n)
        with fresh_lu():
            want = ac_deflated_solve(delta, n)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            gap = float(np.max(np.abs(a.u - b.u)))
            assert gap <= 1e-10, f"j={a.solution_index}: {gap:.2e}"

    def test_nan_seed_is_discarded(self):
        sols = ac_deflated_solve(0.04, 31, seeds=[np.full(961, np.nan)])
        assert len(sols) == 3
        for s in sols:
            assert s.residual_norm < 1e-9


class TestDeflatedSolve:
    def test_three_solutions_at_reference_delta(self):
        sols = ac_deflated_solve(0.04, 31)
        assert len(sols) == 3
        for s in sols:
            assert s.residual_norm < 1e-9
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.max(np.abs(sols[i].u - sols[j].u)) > 0.5

    def test_solution_ordering_by_center(self):
        sols = ac_deflated_solve(0.04, 31)
        centers = [s.center_value() for s in sols]
        assert centers == sorted(centers)
        assert [s.solution_index for s in sols] == [1, 2, 3]

    def test_reflection_symmetry_of_solution_set(self):
        sols = ac_deflated_solve(0.04, 31)
        for s in sols:
            reflected = s.u[:, ::-1]
            dmin = min(np.max(np.abs(reflected - t.u)) for t in sols)
            assert dmin < 1e-6

    def test_continuation_seeds_recover_thin_interface(self):
        # a cold start misses branches at the lower end of the range; seeding
        # each solve with the branches of the one above, in steps of the
        # table's resolution, carries all three down from 0.031
        assert len(ac_deflated_solve(0.021, 31)) < 3
        sols = ac_deflated_solve(0.031, 31)
        for delta in (0.029, 0.027, 0.025, 0.023, 0.021):
            sols = ac_deflated_solve(delta, 31, seeds=[s.u.ravel() for s in sols])
        np.testing.assert_allclose([s.center_value() for s in sols], [-1.0, 0.0, 1.0], atol=1e-3)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            ac_deflated_solve(0.04, 8)

    def test_spec_delta_range(self):
        assert DELTA_RANGE == (0.02, 0.15)
        with pytest.raises(ValueError):
            ac_deflated_solve(0.2, 31)
        with pytest.raises(ValueError):
            ac_deflated_solve(0.019, 31)


class TestLatentMap:
    def test_grid_solution_interpolation(self):
        # the latent centre -u^3/delta of a coarse branch is its grid
        # solution interpolated at the interior design points, cubed and
        # scaled by the requested delta rather than its cache cell's
        cache = CoarseSolutionCache(16, 0.05)
        setup = ACInverseSetup(design=ac_design(5, 5), data_locations=interior_grid_2d(3),
                               cache=cache)
        pts = setup.design.interior_points
        for j, sol in enumerate(cache.solutions(0.04), start=1):
            direct = -sol.interpolate(pts) ** 3 / 0.04
            np.testing.assert_array_equal(setup.latent_centre(0.04, j), direct)


class TestLinearizedBlocks:
    def test_blocks_recombine_to_interior_equation(self):
        # block-1 rhs plus u^3/delta from block-2 reproduces the original
        # interior equation (which equals zero at a solution's latent field)
        design = ac_design(4, 4)
        rng = np.random.default_rng(3)
        z = rng.uniform(-20, 20, len(design.interior_points))
        delta = 0.05
        b1, b2, b3 = linearized_ac_blocks(delta, z, design)
        recombined = b1.rhs + b2.rhs**3 / delta
        np.testing.assert_allclose(recombined, 0.0, atol=1e-12)

    def test_boundary_rhs_signs(self):
        design = ac_design(3, 4)
        pts = design.boundary_points
        on_x1 = (pts[:, 0] == 0.0) | (pts[:, 0] == 1.0)
        assert on_x1.sum() == 8 and len(pts) == 16
        np.testing.assert_array_equal(design.boundary_rhs[on_x1], 1.0)
        np.testing.assert_array_equal(design.boundary_rhs[~on_x1], -1.0)

    def test_operator_coefficients(self):
        design = ac_design(3, 3)
        delta = 0.04
        b1 = linearized_ac_blocks(delta, np.zeros(9), design)[0]
        assert b1.op.a == delta
        assert b1.op.c == pytest.approx(-1.0 / delta)

    def test_self_consistency_with_newton_solution(self):
        # the forward posterior built from a converged solution's latent
        # field reproduces that solution on the grid
        delta = 0.04
        sols = ac_deflated_solve(delta, 31)
        sol = sols[0]
        design = ac_design(7, 5)
        z = -sol.interpolate(design.interior_points) ** 3 / delta
        post = solve_forward(linearized_ac_blocks(delta, z, design), SqExpKernel(0.08, dim=2))
        coords = sol.coords
        pts = np.column_stack([np.repeat(coords, sol.n), np.tile(coords, sol.n)])
        mean = post.mean(pts)
        ref = sol.u.T.ravel()
        err = np.linalg.norm(mean - ref) / np.linalg.norm(ref)
        assert err < 0.05


class TestACBoundaryValues:
    def test_edges(self):
        pts = np.array([[0.0, 0.3], [1.0, 0.7], [0.4, 0.0], [0.6, 1.0]])
        np.testing.assert_array_equal(ac_boundary_values(pts), [1.0, 1.0, -1.0, -1.0])

    def test_interior_rejected(self):
        with pytest.raises(ValueError):
            ac_boundary_values(np.array([[0.5, 0.5]]))


class TestGridSolution:
    def test_physical_range_guard(self):
        with pytest.raises(ValueError):
            GridSolution(n=2, u=np.full((2, 2), 2.0), solution_index=1, residual_norm=0.0)

    def test_interpolate_matches_scipy(self):
        # the numpy bilinear form equals scipy's RegularGridInterpolator bit
        # for bit on the padded lattice: at the design and data points, at
        # the lattice nodes and the boundary, and at random points
        n = 31
        rng = np.random.default_rng(11)
        sol = GridSolution(n=n, u=rng.uniform(-1.2, 1.2, (n, n)), solution_index=1,
                           residual_norm=0.0)
        full = np.zeros((n + 2, n + 2))
        full[1:-1, 1:-1] = sol.u
        full[1:-1, 0] = full[1:-1, -1] = 1.0
        full[0, 1:-1] = full[-1, 1:-1] = -1.0
        coords = np.concatenate([[0.0], sol.coords, [1.0]])
        reference = RegularGridInterpolator((coords, coords), full.T)
        nodes = np.column_stack([np.repeat(coords, n + 2), np.tile(coords, n + 2)])
        for pts in (interior_grid_2d(5), edge_points_2d(5), interior_grid_2d(4), nodes,
                    rng.uniform(0.0, 1.0, (5000, 2))):
            np.testing.assert_array_equal(sol.interpolate(pts), reference(pts))

    def test_interpolate_outside_square_raises(self):
        sol = GridSolution(n=2, u=np.zeros((2, 2)), solution_index=1, residual_norm=0.0)
        for pt in ([1.01, 0.5], [0.5, -0.01], [np.nan, 0.5]):
            with pytest.raises(ValueError):
                sol.interpolate(np.array([pt]))
