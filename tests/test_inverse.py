import re

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

import pmm.inverse
import pmm.kernels
import pmm.linalg
import pmm.problems
from pmm.forward import ObservationBlock, _equilibrate, assemble_gram, interior_grid_2d, solve_forward
from pmm.inverse import (
    ACInverseSetup,
    AllWeightsDegenerate,
    AllZeroMass,
    CoarseSolutionCache,
    DELTA_PRIOR,
    HalfCauchyPrior,
    NoiseModel,
    PILOT_GRID,
    PMEstimate,
    SolutionIndexOutOfRange,
    UniformPrior,
    ac_plugin_mcmc,
    grid_mean_std,
    grid_mode,
    grid_posterior,
    plugin_delta_scan,
    pm_loglik,
    pm_mcmc,
    pn_loglik,
    _joint_matrix,
    _mh_chain,
    _operator_rows,
    _plugin_table,
)
from pmm.kernels import Matern72Kernel, OperatorTag, SqExpKernel, op_gram
from pmm.linalg import RngStream, chol_jitter, mvn_logpdf
from pmm.problems import DELTA_RANGE, Poisson1D, ac_deflated_solve, ac_design, generate_data, poisson_exact
from reference import (
    ac_residual,
    draw_latents,
    fresh_lu,
    gls_phi,
    linearized_ac_blocks,
    neighbour_seeds,
    plain_seed_sweep,
    pm_loglik_all_rows,
    sqexp_gram_three_term,
    three_call_joint,
)


def normals(m: int, n: int, *key) -> np.ndarray:
    """An (m, n) standard-normal batch from the stream ``RngStream(*key)``."""
    return RngStream(*key).generator().standard_normal((m, n))


@pytest.fixture(scope="module")
def ac_context():
    data_locations = interior_grid_2d(4)
    cache = CoarseSolutionCache(31, 0.002)
    setup = ACInverseSetup(design=ac_design(5, 5), data_locations=data_locations, cache=cache)
    truth = cache.solutions(0.04)[0].interpolate(data_locations)
    sigma = 0.02
    y = truth + sigma * RngStream(0, 32).generator().standard_normal(len(truth))
    return setup, y, NoiseModel.isotropic(sigma, len(y))


class TestNoiseModel:
    def test_isotropic(self):
        nm = NoiseModel.isotropic(0.1, 3)
        np.testing.assert_allclose(nm.cov, 0.01 * np.eye(3))
        assert nm.n == 3

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            NoiseModel.isotropic(0.0, 2)


class TestPriors:
    def test_uniform(self):
        p = UniformPrior(0.0, 2.0)
        assert p.logpdf(1.0) == pytest.approx(-np.log(2.0))
        assert p.logpdf(2.5) == -np.inf

    def test_half_cauchy_normalization(self):
        from scipy.integrate import quad
        p = HalfCauchyPrior(0.7)
        total, _ = quad(lambda t: np.exp(p.logpdf(t)), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)
        assert p.logpdf(-0.1) == -np.inf


class TestPluginLoglik:
    # the plug-in likelihood takes the forward mean for the solution:
    # mvn_logpdf(y, mean, noise.cov)
    def test_at_mode(self):
        n = 4
        y = np.arange(float(n))
        val = mvn_logpdf(y, y, NoiseModel(np.eye(n)).cov)
        assert val == pytest.approx(-0.5 * n * np.log(2 * np.pi))

    def test_scalar_formula(self):
        val = mvn_logpdf([0.1], [0.0], NoiseModel.isotropic(0.01, 1).cov)
        assert val == pytest.approx(norm.logpdf(0.1, 0.0, 0.01), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(5)
        mu = rng.standard_normal(5)
        cov = np.diag(rng.uniform(0.5, 2.0, 5))
        perm = rng.permutation(5)
        a = mvn_logpdf(y, mu, cov)
        b = mvn_logpdf(y[perm], mu[perm], cov[np.ix_(perm, perm)])
        assert a == pytest.approx(b, rel=1e-12)


class TestPnLoglik:
    def make_posterior(self, with_identity_at=None, m=8, ell=0.2):
        problem = Poisson1D()
        blocks = problem.blocks(m)
        if with_identity_at is not None:
            pts = np.asarray(with_identity_at)[:, None]
            blocks.append(ObservationBlock(OperatorTag.identity(), pts,
                                           problem.exact(pts[:, 0])))
        return solve_forward(blocks, SqExpKernel(ell))

    def test_equals_plugin_when_solver_exact(self):
        locs = [0.25, 0.75]
        post = self.make_posterior(with_identity_at=locs)
        noise = NoiseModel.isotropic(0.01, 2)
        y = np.array([0.03, -0.02])
        at = np.asarray(locs)[:, None]
        a = pn_loglik(y, post.mean(at), post.cov(at), noise)
        b = mvn_logpdf(y, post.mean(at), noise.cov)
        assert a == pytest.approx(b, abs=1e-6)

    def test_lower_at_mode_when_inflated(self):
        locs = np.array([[0.3], [0.6]])
        post = self.make_posterior(m=4)
        noise = NoiseModel.isotropic(0.01, 2)
        mu = post.mean(locs)
        assert np.trace(post.cov(locs)) > 1e-8
        assert pn_loglik(mu, post.mean(locs), post.cov(locs), noise) < mvn_logpdf(mu, mu, noise.cov)

    def test_scalar_case(self):
        locs = np.array([[0.4]])
        post = self.make_posterior(m=4)
        noise = NoiseModel.isotropic(0.01, 1)
        s2 = post.cov(locs)[0, 0]
        mu = post.mean(locs)[0]
        y = 0.05
        want = -0.5 * np.log(2 * np.pi * (1e-4 + s2)) - 0.5 * (y - mu) ** 2 / (1e-4 + s2)
        got = pn_loglik([y], post.mean(locs), post.cov(locs), noise)
        assert got == pytest.approx(want, rel=1e-9)


class TestGridPosterior:
    def test_constant_loglik_returns_prior(self):
        grid = np.linspace(0.01, 1.99, 100)
        prior = UniformPrior(0.0, 2.0)
        dens = grid_posterior(grid, prior, np.zeros_like(grid))
        np.testing.assert_allclose(dens, dens[0])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_mass(self):
        grid = np.linspace(0.1, 1.0, 60)
        with pytest.raises(AllZeroMass):
            grid_posterior(grid, UniformPrior(2.0, 3.0), np.zeros_like(grid))

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            grid_posterior(np.linspace(0, 1, 10), UniformPrior(0, 1), np.zeros(10))

    def test_one_value_per_grid_point(self):
        grid = np.linspace(0.1, 1.0, 60)
        with pytest.raises(ValueError):
            grid_posterior(grid, UniformPrior(0.0, 2.0), np.zeros(59))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_plus_inf_loglik_raises(self, bad):
        grid = np.linspace(0.1, 1.0, 60)
        loglik = np.zeros_like(grid)
        loglik[17] = bad
        with pytest.raises(FloatingPointError, match="theta="):
            grid_posterior(grid, UniformPrior(0.0, 2.0), loglik)

    def test_prior_minus_inf_is_zero_mass(self):
        # the prior excludes the upper half of the grid: zero density there, no error
        grid = np.linspace(0.1, 1.0, 60)
        dens = grid_posterior(grid, UniformPrior(0.0, 0.55), np.zeros_like(grid))
        assert np.all(dens[grid > 0.55] == 0.0)
        assert np.all(dens[grid < 0.55] > 0.0)

    def test_gaussian_loglik_recovers_moments(self):
        grid = np.linspace(-3, 5, 400)
        dens = grid_posterior(grid, UniformPrior(-4, 6), norm.logpdf(grid, 1.2, 0.4))
        mean, std = grid_mean_std(grid, dens)
        assert mean == pytest.approx(1.2, abs=1e-3)
        assert std == pytest.approx(0.4, abs=1e-3)
        assert grid_mode(grid, dens) == pytest.approx(1.2, abs=0.02)


@pytest.fixture(scope="module")
def scenario():
    # small-noise configuration isolates the discretisation effects
    locations = np.array([0.25, 0.75])
    sigma = 0.001
    y = generate_data(1.0, locations, sigma, RngStream(5, 1))
    noise = NoiseModel.isotropic(sigma, 2)
    grid = np.linspace(0.4, 2.5, 220)
    prior = UniformPrior(0.25, 4.0)
    kernel = SqExpKernel(0.2)
    at_theta_1 = {}
    for m in (4, 8, 16):
        post = solve_forward(Poisson1D(1.0).blocks(m), kernel)
        at_theta_1[m] = post.mean(locations[:, None]), post.cov(locations[:, None])

    def posterior_for(m, kind):
        # the posterior at theta has mean mean_1 / theta and covariance cov_1
        mean, cov = at_theta_1[m]
        means = mean / grid[:, None]
        if kind == "pn":
            return grid_posterior(grid, prior, pn_loglik(y, means, cov, noise))
        return grid_posterior(grid, prior, mvn_logpdf(y, means, noise.cov))

    return grid, posterior_for, y, noise, at_theta_1


@pytest.mark.parametrize("kernel", [SqExpKernel(0.2), Matern72Kernel(0.2)],
                         ids=["sqexp", "matern72"])
@pytest.mark.parametrize("m", [4, 16])
def test_posterior_at_theta_is_scaled_theta_1_posterior(kernel, m):
    # the per-theta solve is the oracle for the identity the 1D inverse
    # problem relies on: mean(theta) = mean(1) / theta, cov(theta) = cov(1)
    x = np.array([[0.1], [0.25], [0.4], [0.6], [0.75], [0.9]])  # off the mean's zeros
    ref = solve_forward(Poisson1D(1.0).blocks(m), kernel)
    for theta in (0.26, 1.0, 2.5, 3.99):
        post = solve_forward(Poisson1D(theta).blocks(m), kernel)
        np.testing.assert_allclose(theta * post.mean(x), ref.mean(x), rtol=1e-10)
        np.testing.assert_allclose(post.cov(x), ref.cov(x), rtol=0.0, atol=1e-13)


class TestInverse1DBehavior:

    def test_pn_narrows_with_design(self, scenario):
        grid, posterior_for = scenario[:2]
        stds = [grid_mean_std(grid, posterior_for(m, "pn"))[1] for m in (4, 8, 16)]
        assert stds[0] > stds[1] > stds[2]

    def test_plugin_width_insensitive_to_design(self, scenario):
        grid, posterior_for = scenario[:2]
        stds = [grid_mean_std(grid, posterior_for(m, "plugin"))[1] for m in (4, 8, 16)]
        assert (max(stds) - min(stds)) / max(stds) < 0.25

    def test_plugin_mode_bias_shrinks(self, scenario):
        grid, posterior_for = scenario[:2]
        err4 = abs(grid_mode(grid, posterior_for(4, "plugin")) - 1.0)
        err16 = abs(grid_mode(grid, posterior_for(16, "plugin")) - 1.0)
        assert err4 > err16
        assert err16 < 0.05

    def test_pn_approaches_plugin_with_refinement(self, scenario):
        locations = np.array([0.25, 0.75])
        sigma = 0.001
        y = generate_data(1.0, locations, sigma, RngStream(5, 1))
        noise = NoiseModel.isotropic(sigma, 2)
        kernel = SqExpKernel(0.2)
        gaps = []
        for m in (4, 8, 16, 32):
            post = solve_forward(Poisson1D(1.0).blocks(m, design="nested"), kernel)
            mean, cov = post.mean(locations[:, None]), post.cov(locations[:, None])
            a = pn_loglik(y, mean, cov, noise)
            b = mvn_logpdf(y, mean, noise.cov)
            gaps.append(abs(a - b))
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_pn_mode_at_closed_form_mle(self, scenario, m):
        # the PN likelihood is Gaussian in phi = 1/theta with a phi-free
        # covariance, so its maximizer is the GLS estimate; under the flat
        # prior the grid mode lies within one spacing of 1 / phi*
        grid, posterior_for, y, noise, at_theta_1 = scenario
        mean, cov = at_theta_1[m]
        theta_star = 1.0 / gls_phi(y, mean, noise.cov + cov)
        assert grid[0] <= theta_star <= grid[-1]
        spacing = grid[1] - grid[0]
        assert abs(grid_mode(grid, posterior_for(m, "pn")) - theta_star) <= spacing


def rw_metropolis(logtarget, init, step_scales, n_steps, rng):
    """``_mh_chain`` as a plain random-walk Metropolis chain: one solution
    index, a flat prior and a deterministic target. Returns the states and
    the acceptance rate."""
    thetas, _, _, accepted, _ = _mh_chain(
        lambda theta: 0.0, lambda theta, j, xi: logtarget(theta), lambda theta: 1,
        init, 1, step_scales, n_steps, rng.generator(), (0,), 0.0)
    return thetas, accepted.mean()


class TestRwMetropolis:
    def test_standard_normal_moments(self):
        chain, rate = rw_metropolis(lambda x: -0.5 * float(x @ x), np.zeros(1),
                                    [2.4], 100_000, RngStream(3))
        assert 0.2 < rate < 0.7
        assert abs(chain.mean()) < 0.05
        assert abs(chain.var() - 1.0) < 0.1

    def test_reproducible(self):
        target = lambda x: -0.5 * float(x @ x)
        a, _ = rw_metropolis(target, np.zeros(2), [1.0, 1.0], 500, RngStream(9, 4))
        b, _ = rw_metropolis(target, np.zeros(2), [1.0, 1.0], 500, RngStream(9, 4))
        np.testing.assert_array_equal(a, b)

    def test_two_state_detailed_balance(self):
        # discretized two-well target: transition counts between the wells
        # are symmetric, and the occupancies match the well masses (the
        # substantive balance check; count symmetry alone is an exact
        # alternation property of any scalar trajectory)
        def logtarget(x):
            return float(np.log(0.3 * norm.pdf(x[0], -1, 0.3) + 0.7 * norm.pdf(x[0], 1, 0.3)))

        chain, _ = rw_metropolis(logtarget, np.zeros(1), [1.2], 200_000, RngStream(11))
        states = (chain[:, 0] > 0).astype(int)
        up = np.sum((states[:-1] == 0) & (states[1:] == 1))
        down = np.sum((states[:-1] == 1) & (states[1:] == 0))
        assert abs(up - down) <= 1
        assert up > 50
        assert abs(states.mean() - 0.7) < 0.03


class TestPMEstimate:
    def test_log_weight_combination(self):
        lw = np.array([-1.0, -2.0, -3.0])
        est = PMEstimate.from_log_weights(lw)
        assert est.m == 3
        assert est.log_estimate == pytest.approx(logsumexp(lw) - np.log(3), rel=1e-14)

    def test_single_weight(self):
        est = PMEstimate.from_log_weights(np.array([-4.2]))
        assert est.log_estimate == pytest.approx(-4.2)

    def test_degenerate_weights(self):
        with pytest.raises(AllWeightsDegenerate):
            PMEstimate.from_log_weights(np.array([-np.inf, -np.inf]))


class TestConjugateToy:
    """Gaussian toy with a closed-form marginal: y | z ~ N(z, s^2),
    z ~ N(0, t^2) used both as prior and proposal, so the weights are
    p(y | z_i) alone and the estimator targets N(y; 0, s^2 + t^2)."""

    s, t, y = 0.7, 1.1, 0.3

    def estimate(self, m, rng):
        z = self.t * rng.generator().standard_normal(m)
        logw = norm.logpdf(self.y, z, self.s)
        return PMEstimate.from_log_weights(logw)

    def exact(self):
        return norm.logpdf(self.y, 0.0, np.hypot(self.s, self.t))

    def test_unbiased(self):
        vals = np.array([
            np.exp(self.estimate(64, RngStream(100, i)).log_estimate) for i in range(200)
        ])
        target = np.exp(self.exact())
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - target) < 3 * se

    def test_error_scales_with_particles(self):
        sds = []
        for m in (32, 128):
            vals = [self.estimate(m, RngStream(200 + m, i)).log_estimate for i in range(20)]
            sds.append(np.std(vals))
        assert np.isfinite(sds[0]) and sds[0] > 0
        assert sds[1] < sds[0]


class TestImportanceSampleZ:
    """The Gaussian latent proposal inside ``pm_loglik``: centred at the
    latent field ``-u^3 / delta`` of the j-th coarse branch, with the prior
    kernel's Gram matrix as covariance, whose factor is the leading block of
    the joint matrix's factor."""

    @staticmethod
    def shared_factor(setup, noise, delta, ell):
        joint = _joint_matrix(setup, _operator_rows(delta, ell)[0], ell, noise)
        factor = chol_jitter(joint)
        n_int = len(setup.design.interior_points)
        return factor, factor.lower[:n_int, :n_int]

    @staticmethod
    def k_int(setup, ell):
        x = setup.design.interior_points
        return op_gram(OperatorTag.identity(), OperatorTag.identity(), SqExpKernel(ell, dim=2), x, x)

    def test_leading_block_factors_proposal_covariance(self, ac_context):
        setup, _, noise = ac_context
        factor, lower = self.shared_factor(setup, noise, 0.04, 0.2)
        assert factor.jitter_used == 0.0
        np.testing.assert_allclose(lower @ lower.T, self.k_int(setup, 0.2), rtol=0, atol=1e-14)

    def test_collapsed_proposal_returns_center(self, ac_context):
        setup, _, noise = ac_context
        _, lower = self.shared_factor(setup, noise, 0.04, 0.2)
        zbar = setup.latent_centre(0.04, 1)
        z, _ = draw_latents(zbar, 1e-6 * lower, normals(1, zbar.size, 1))
        center = -setup.cache.solutions(0.04)[0].interpolate(setup.design.interior_points) ** 3 / 0.04
        np.testing.assert_array_equal(zbar, center)
        assert np.max(np.abs(z[0] - center)) < 1e-4

    def test_log_density_at_center(self, ac_context):
        setup, _, noise = ac_context
        _, lower = self.shared_factor(setup, noise, 0.04, 0.2)
        center = setup.latent_centre(0.04, 1)
        expected = mvn_logpdf(center, center, self.k_int(setup, 0.2))
        _, log_r = draw_latents(center, lower, np.zeros((1, len(center))))
        assert log_r[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ell", [0.05, 0.1, 0.2])
    def test_particle_densities_match_mvn_logpdf(self, ac_context, ell):
        # at a state whose joint needs no jitter, each particle's density is
        # that of N(zbar, K_int), whatever the joint's other rows hold
        setup, _, noise = ac_context
        factor, lower = self.shared_factor(setup, noise, 0.04, ell)
        assert factor.jitter_used == 0.0
        zbar = setup.latent_centre(0.04, 2)
        z, log_r = draw_latents(zbar, lower, normals(6, zbar.size, 3, 1))
        k_int = self.k_int(setup, ell)
        for z_i, lr in zip(z, log_r):
            assert lr == pytest.approx(mvn_logpdf(z_i, zbar, k_int), rel=1e-12)

    def test_reproducible(self, ac_context):
        # the batch is chain state: one batch gives one estimate and stays as it was
        setup, y, noise = ac_context
        xi = normals(4, 25, 4, 7)
        kept = xi.copy()
        a = pm_loglik(y, 0.04, 0.2, 2, noise, setup=setup, xi=xi)
        b = pm_loglik(y, 0.04, 0.2, 2, noise, setup=setup, xi=xi)
        np.testing.assert_array_equal(a.log_weights, b.log_weights)
        np.testing.assert_array_equal(xi, kept)

    def test_index_out_of_range(self, ac_context):
        setup, y, noise = ac_context
        with pytest.raises(SolutionIndexOutOfRange):
            pm_loglik(y, 0.04, 0.2, 4, noise, setup=setup, xi=np.zeros((4, 25)))


class TestOneGramPath:
    """``pm_loglik``'s joint matrix and the forward solver's Gram matrix are
    one expression, ``kernels._sqexp_gram``."""

    @pytest.mark.parametrize("ell", [0.05, 0.1, 0.15])
    @pytest.mark.parametrize("per_axis", [5, 8])
    def test_joint_is_equilibrated_forward_gram(self, ac_context, per_axis, ell):
        # the linearized solve's blocks [operator, identity, boundary] plus
        # identity rows at the data, equilibrated as solve_forward does, with
        # the noise added and the rows put in the joint's order
        setup, _, noise = ac_context
        setup = ACInverseSetup(design=ac_design(per_axis, per_axis),
                               data_locations=setup.data_locations, cache=setup.cache)
        delta, n_int, n_data = 0.0406, per_axis**2, len(setup.data_locations)
        blocks = linearized_ac_blocks(delta, np.zeros(n_int), setup.design) + [
            ObservationBlock(OperatorTag.identity(), setup.data_locations, np.zeros(n_data))]
        gram, _ = _equilibrate(assemble_gram(blocks, SqExpKernel(ell, dim=2)))
        gram[-n_data:, -n_data:] += noise.cov
        order = np.r_[n_int:2 * n_int, :n_int, 2 * n_int:len(gram)]
        joint = _joint_matrix(setup, _operator_rows(delta, ell)[0], ell, noise)
        np.testing.assert_allclose(joint, gram[np.ix_(order, order)], rtol=0, atol=1e-14)

    def test_every_gram_goes_through_the_shared_expression(self, ac_context, monkeypatch):
        setup, y, noise = ac_context
        shapes, real = [], pmm.kernels._sqexp_gram

        def recording(r2, *args):
            shapes.append(np.shape(r2))
            return real(r2, *args)

        monkeypatch.setattr(pmm.kernels, "_sqexp_gram", recording)
        monkeypatch.setattr(pmm.inverse, "_sqexp_gram", recording)
        post = solve_forward(Poisson1D().blocks(8), SqExpKernel(0.2))
        assert shapes == [(10, 10)]  # 8 interior and 2 boundary rows, in one call
        shapes.clear()
        post.cov(np.linspace(0.0, 1.0, 7))
        assert sorted(shapes) == [(7, 7), (7, 10)]  # the prior and the cross-covariance
        shapes.clear()
        pm_loglik(y, 0.04, 0.1, 1, noise, setup=setup, xi=np.zeros((4, 25)))
        assert setup._r2.shape in shapes


@pytest.fixture(scope="module")
def designs(ac_context):
    """The default 5x5 setup and the dense workload's 8x8 design (8 points
    per edge) with the same data and coarse table, by interior points per axis."""
    setup = ac_context[0]
    dense = ACInverseSetup(design=ac_design(8, 8), data_locations=setup.data_locations,
                           cache=setup.cache)
    return {5: setup, 8: dense}


class TestJointMatrixBits:
    @pytest.mark.parametrize("delta,ell", [(0.025, 0.05), (0.0406, 0.1), (0.1, 0.15),
                                           (0.04, 0.3), (0.15, 0.08)])
    @pytest.mark.parametrize("per_axis", [5, 8])
    def test_equals_three_call_build(self, ac_context, designs, per_axis, delta, ell):
        # one set of kernel values, sliced for the operator rows, changes no bit
        setup, noise = designs[per_axis], ac_context[2]
        op = _operator_rows(delta, ell)[0]
        np.testing.assert_array_equal(_joint_matrix(setup, op, ell, noise),
                                      three_call_joint(setup, op, ell, noise))


class TestDataRowSolve:
    """``pm_loglik`` solves for the data rows of the inverse joint factor
    only; the oracle solves every row for every particle."""

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("ell", [0.05, 0.1, 0.15])
    @pytest.mark.parametrize("delta", [0.025, 0.0406, 0.1])
    @pytest.mark.parametrize("per_axis", [5, 8])
    def test_matches_all_rows_oracle(self, ac_context, designs, per_axis, delta, ell, j):
        setup, (_, y, noise) = designs[per_axis], ac_context
        joint = _joint_matrix(setup, _operator_rows(delta, ell)[0], ell, noise)
        assert chol_jitter(joint).jitter_used == 0.0
        xi = normals(16, per_axis**2, 21, j)
        got = pm_loglik(y, delta, ell, j, noise, setup=setup, xi=xi)
        want = pm_loglik_all_rows(y, delta, ell, j, noise, setup=setup, xi=xi)
        np.testing.assert_allclose(got.log_weights, want.log_weights, rtol=1e-10, atol=0)
        assert got.log_estimate == pytest.approx(want.log_estimate, rel=1e-10)

    def test_chain_matches_oracle_chain(self, ac_context):
        setup, y, noise = ac_context

        def oracle(delta, ell, j, xi):
            return pm_loglik_all_rows(y, delta, ell, j, noise, setup=setup, xi=xi)

        kwargs = dict(setup=setup, noise=noise, init=(0.04, 0.1, 1))
        a = pm_mcmc(y, HalfCauchyPrior(1.0), 8, 300, RngStream(14, 4), **kwargs)
        b = pm_mcmc(y, HalfCauchyPrior(1.0), 8, 300, RngStream(14, 4), estimator=oracle, **kwargs)
        for name in ("delta", "ell", "j", "accepted"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
        np.testing.assert_allclose(a.log_estimate, b.log_estimate, rtol=1e-10, atol=0)
        assert 0.0 < a.acceptance_rate < 1.0

    @pytest.mark.parametrize("m", [1, 8, 64])
    def test_one_solve_with_n_data_columns(self, ac_context, monkeypatch, m):
        setup, y, noise = ac_context
        shapes, real = [], pmm.inverse.dtrtrs

        def recording(a, b, *args, **kwargs):
            shapes.append((a.shape, b.shape))
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(pmm.inverse, "dtrtrs", recording)
        n = len(setup._r2)
        for calls in (1, 2):
            pm_loglik(y, 0.04, 0.1, 1, noise, setup=setup, xi=normals(m, 25, calls))
            assert shapes == [((n, n), (n, len(y)))] * calls


class TestThreeTermOracle:
    """The estimate with the SE Gram as one polynomial in ``r2`` against the
    all-rows oracle whose joint sums the form's three terms."""

    @pytest.mark.parametrize("per_axis,m,n_steps", [(5, 32, 500), (8, 64, 200)])
    def test_chain_matches_oracle_chain(self, ac_context, designs, per_axis, m, n_steps):
        setup, (_, y, noise) = designs[per_axis], ac_context

        def oracle(delta, ell, j, xi):
            return pm_loglik_all_rows(y, delta, ell, j, noise, setup=setup, xi=xi,
                                      sqexp_gram=sqexp_gram_three_term)

        kwargs = dict(setup=setup, noise=noise, init=(0.04, 0.1, 1))
        a = pm_mcmc(y, HalfCauchyPrior(1.0), m, n_steps, RngStream(27, per_axis), **kwargs)
        b = pm_mcmc(y, HalfCauchyPrior(1.0), m, n_steps, RngStream(27, per_axis),
                    estimator=oracle, **kwargs)
        for name in ("delta", "ell", "j", "accepted"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
        np.testing.assert_allclose(a.log_estimate, b.log_estimate, rtol=1e-10, atol=0)
        assert 0.0 < a.acceptance_rate < 1.0

    @pytest.mark.parametrize("per_axis", [5, 8])
    def test_drawn_batch_matches_oracle(self, ac_context, designs, per_axis):
        # one batch of 16 particles, outside any chain
        setup, (_, y, noise) = designs[per_axis], ac_context
        xi = normals(16, per_axis**2, 5, 2)
        got = pm_loglik(y, 0.0406, 0.1, 2, noise, setup=setup, xi=xi)
        want = pm_loglik_all_rows(y, 0.0406, 0.1, 2, noise, setup=setup, xi=xi,
                                  sqexp_gram=sqexp_gram_three_term)
        np.testing.assert_allclose(got.log_weights, want.log_weights, rtol=1e-10, atol=0)


class TestPmLoglik:
    def test_single_particle_is_single_weight(self, ac_context):
        setup, y, noise = ac_context
        est = pm_loglik(y, 0.04, 0.1, 1, noise, setup=setup, xi=normals(1, 25, 6))
        assert est.m == 1
        assert est.log_estimate == pytest.approx(est.log_weights[0])

    def test_weight_count(self, ac_context):
        # one weight per row of the batch, whatever its number of rows
        setup, y, noise = ac_context
        est = pm_loglik(y, 0.04, 0.1, 1, noise, setup=setup, xi=normals(7, 25, 7))
        assert est.m == 7
        assert len(est.log_weights) == 7

    def test_fixed_xi_reproducible(self, ac_context):
        # the estimate is a function of the batch alone: a call at another
        # state, with another batch, in between leaves no trace on it
        setup, y, noise = ac_context
        xi = normals(4, 25, 8)
        a = pm_loglik(y, 0.04, 0.1, 1, noise, setup=setup, xi=xi)
        pm_loglik(y, 0.09, 0.2, 3, noise, setup=setup, xi=normals(4, 25, 9))
        b = pm_loglik(y, 0.04, 0.1, 1, noise, setup=setup, xi=xi.copy())
        assert a.log_estimate == b.log_estimate

    @staticmethod
    def two_factor_estimate(y, delta, ell, j, xi, setup, noise):
        """The estimate through the public forward solver: one factor for the
        Gram of the linearized solve, one for the marginal data covariance."""
        kernel = SqExpKernel(ell, dim=2)
        x_int = setup.design.interior_points
        zbar = -setup.cache.solutions(delta)[j - 1].interpolate(x_int) ** 3 / delta
        k_prop = op_gram(OperatorTag.identity(), OperatorTag.identity(), kernel, x_int, x_int)
        z = zbar + xi @ np.linalg.cholesky(k_prop).T
        post = solve_forward(linearized_ac_blocks(delta, z[0], setup.design), kernel)
        x_data = setup.data_locations
        sigma = noise.cov + post.cov(x_data)
        rhs = np.vstack([z.T, np.cbrt(-delta * z).T,
                         np.tile(setup.design.boundary_rhs[:, None], (1, len(z)))])
        means = post.cross_cov(x_data) @ post.weights_for(rhs)
        log_w = [mvn_logpdf(y, means[:, i], sigma) - mvn_logpdf(z[i], zbar, k_prop)
                 for i in range(len(z))]
        return logsumexp(log_w) - np.log(len(z))

    def check_against_two_factor_path(self, setup, y, noise, ell, j):
        n_int = len(setup.design.interior_points)
        # 0.0406 snaps to the 0.040 cell, so the latent centre must use the
        # actual delta while the branch comes from the cell
        delta = 0.0406
        xi = normals(8, n_int, 20, j)
        got = pm_loglik(y, delta, ell, j, noise, setup=setup, xi=xi)
        want = self.two_factor_estimate(y, delta, ell, j, xi, setup, noise)
        assert got.log_estimate == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("ell", [0.05, 0.1, 0.15])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_joint_factor_matches_two_factor_path(self, ac_context, ell, j):
        self.check_against_two_factor_path(*ac_context, ell, j)

    # the dense workload's 8x8 interior design with 8 points per edge; at
    # ell = 0.15 its equilibrated Gram has condition number about 1e10, and
    # any two factorizations of it differ near 1e-7 relative
    @pytest.mark.parametrize("ell", [0.05, 0.1])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_joint_factor_matches_two_factor_path_dense(self, ac_context, ell, j):
        setup, y, noise = ac_context
        dense = ACInverseSetup(design=ac_design(8, 8), data_locations=setup.data_locations,
                               cache=setup.cache)
        self.check_against_two_factor_path(dense, y, noise, ell, j)

    @pytest.mark.parametrize("y_size,noise_size", [(16, 1), (15, 16), (16, 17)])
    def test_size_mismatch_raises(self, ac_context, y_size, noise_size):
        # a 1x1 noise covariance used to broadcast over the whole data block
        setup, y, _ = ac_context
        noise = NoiseModel.isotropic(0.02, noise_size)
        with pytest.raises(ValueError, match=f"{y_size} data values, 16 data locations, "
                                             f"noise covariance of size {noise_size}"):
            pm_loglik(y[:y_size], 0.04, 0.1, 1, noise, setup=setup, xi=np.zeros((4, 25)))

    @pytest.mark.parametrize("shape", [(25,), (0, 25), (32, 24)])
    def test_xi_shape_mismatch_raises(self, ac_context, shape):
        # unchecked, a 1-D batch would read as one particle, an empty one give
        # no weights and a narrow one fail in matmul
        setup, y, noise = ac_context
        with pytest.raises(ValueError, match=re.escape(f"xi has shape {shape}, expected one "
                                                       "or more rows of n_int = 25 columns")):
            pm_loglik(y, 0.04, 0.1, 1, noise, setup=setup, xi=np.zeros(shape))

    def test_one_cell_shares_branch_values(self, ac_context):
        setup, _, _ = ac_context
        d1, d2 = 0.0401, 0.0409  # both in the 0.040 cell
        for a, b in zip(setup.branch_values(d1, 2), setup.branch_values(d2, 2)):
            assert a is b
        c1, c2 = setup.latent_centre(d1, 2), setup.latent_centre(d2, 2)
        np.testing.assert_allclose(c1 / c2, d2 / d1, rtol=1e-14)


class TestPmMcmc:
    def test_prior_support_respected(self, ac_context):
        setup, y, noise = ac_context
        chain = pm_mcmc(y, HalfCauchyPrior(1.0), 4, 120, RngStream(10, 1), setup=setup,
                        noise=noise, init=(0.04, 0.1, 1))
        assert np.all(chain.delta > 0.02) and np.all(chain.delta < 0.15)
        assert np.all((chain.j >= 1) & (chain.j <= 3))

    def test_estimator_called_once_per_evaluated_proposal(self, ac_context):
        setup, y, noise = ac_context
        calls = []

        def stub(delta, ell, j, xi):
            calls.append(delta)
            return PMEstimate.from_log_weights(np.array([0.0]))

        chain = pm_mcmc(y, HalfCauchyPrior(1.0), 4, 200, RngStream(11, 2), setup=setup,
                        noise=noise, init=(0.04, 0.1, 1), estimator=stub)
        # one call at init plus one per in-support proposal; retained states
        # are never recomputed
        assert len(calls) == chain.estimator_calls
        assert len(calls) <= 201

    @pytest.mark.parametrize("nan_call", [0, 5])
    def test_nan_estimate_raises(self, ac_context, nan_call):
        # a NaN log-likelihood, at the initial state or at a proposal, must
        # stop the chain instead of being rejected
        setup, y, noise = ac_context
        calls = []

        def stub(delta, ell, j, xi):
            calls.append(delta)
            if len(calls) > nan_call:
                return PMEstimate(float("nan"), np.array([np.nan]))
            return PMEstimate.from_log_weights(np.array([0.0]))

        with pytest.raises(FloatingPointError):
            pm_mcmc(y, HalfCauchyPrior(1.0), 4, 200, RngStream(11, 2), setup=setup,
                    noise=noise, init=(0.04, 0.1, 1), estimator=stub)
        assert len(calls) == nan_call + 1

    def test_reproducible(self, ac_context):
        setup, y, noise = ac_context
        kwargs = dict(setup=setup, noise=noise, init=(0.04, 0.1, 1))
        a = pm_mcmc(y, HalfCauchyPrior(1.0), 4, 60, RngStream(12, 3), **kwargs)
        b = pm_mcmc(y, HalfCauchyPrior(1.0), 4, 60, RngStream(12, 3), **kwargs)
        np.testing.assert_array_equal(a.delta, b.delta)
        np.testing.assert_array_equal(a.log_estimate, b.log_estimate)

    def test_no_steps_raises(self, ac_context):
        setup, y, noise = ac_context
        with pytest.raises(ValueError, match="n_steps"):
            pm_mcmc(y, HalfCauchyPrior(1.0), 2, 0, RngStream(13), setup=setup,
                    noise=noise, init=(0.04, 0.1, 1))

    def test_empty_noise_draw_reads_no_bits(self):
        # _mh_chain refreshes the noise batch on every evaluated proposal,
        # an empty one included; that must leave the generator where it was
        a, b = RngStream(20).generator(), RngStream(20).generator()
        assert a.standard_normal((0,)).shape == (0,)
        np.testing.assert_array_equal(a.standard_normal(4), b.standard_normal(4))
        np.testing.assert_array_equal(a.uniform(size=2), b.uniform(size=2))

    def test_rows_format(self, ac_context):
        setup, y, noise = ac_context
        chain = pm_mcmc(y, HalfCauchyPrior(1.0), 2, 10, RngStream(13), setup=setup,
                        noise=noise, init=(0.04, 0.1, 1))
        rows = list(chain.rows())
        assert len(rows) == 10
        assert rows[0][0] == 0
        assert chain.FIELDS == ("step", "delta", "ell", "j", "log_estimate", "accepted")


class TestPluginChain:
    def test_runs_and_respects_support(self, ac_context):
        setup, y, noise = ac_context
        chain = ac_plugin_mcmc(y, 300, RngStream(14), setup=setup, noise=noise)
        assert np.all(chain.delta > 0.02) and np.all(chain.delta < 0.15)
        assert chain.acceptance_rate > 0.05

    def test_no_draws_raises(self, ac_context):
        setup, y, noise = ac_context
        with pytest.raises(ValueError, match="n_steps"):
            ac_plugin_mcmc(y, 0, RngStream(14), setup=setup, noise=noise)

    def test_exact_target(self, ac_context):
        # The plug-in likelihood is constant on each cache cell, so the exact
        # posterior over (cell, j) is a finite sum: the cell's width inside
        # the prior support times L(cell, j) / n(cell).
        setup, y, noise = ac_context
        (lo, hi), res = DELTA_RANGE, setup.cache.resolution
        states, logp = [], []
        for cell in range(10, 76):
            sols = setup.cache.solutions(cell * res)
            width = min(hi, (cell + 0.5) * res) - max(lo, (cell - 0.5) * res)
            for j, sol in enumerate(sols, start=1):
                states.append((cell, j))
                logp.append(np.log(width / len(sols))
                            + mvn_logpdf(y, sol.interpolate(setup.data_locations), noise.cov))
        exact = np.exp(np.array(logp) - max(logp))
        exact /= exact.sum()

        n = 40_000
        draws = ac_plugin_mcmc(y, n, RngStream(15), setup=setup, noise=noise)
        index = {state: k for k, state in enumerate(states)}
        labels = np.array([index[int(round(d / res)), j] for d, j in zip(draws.delta, draws.j)])
        freq = np.bincount(labels, minlength=len(states)) / n
        tv = 0.5 * np.abs(freq - exact).sum()
        # the draws are independent, so each frequency has the binomial
        # standard error; the bound is three times the total-variation
        # distance those errors would make if every state were off by one
        bound = 3.0 * 0.5 * np.sqrt(exact * (1.0 - exact) / n).sum()
        assert tv < bound, f"TV {tv:.4f} from the exact target, bound {bound:.4f}"

    def test_draws_lie_in_their_cells_slice(self, ac_context, monkeypatch):
        # a nearly flat table makes delta nearly uniform on DELTA_RANGE, so
        # the end cells, clipped to half a cell, take half an inner cell's
        # share; each entry's distinct value names the entry a draw came
        # from, and its delta must lie in that cell's slice
        setup, y, noise = ac_context
        (lo, hi), res = DELTA_RANGE, setup.cache.resolution
        table = {key: 1e-9 * k for k, key in enumerate(setup._branches)}
        monkeypatch.setattr(pmm.inverse, "_plugin_table", lambda y, setup, noise: table)
        n = 20_000
        draws = ac_plugin_mcmc(y, n, RngStream(19), setup=setup, noise=noise)
        entry_of = {ll: key for key, ll in table.items()}
        cells = []
        for delta, j, ll in zip(draws.delta, draws.j, draws.log_estimate):
            cell, j_entry = entry_of[ll]
            assert j == j_entry
            assert max(lo, (cell - 0.5) * res) <= delta <= min(hi, (cell + 0.5) * res)
            cells.append(cell)
        for end in (round(lo / res), round(hi / res)):
            expected = n * 0.5 * res / (hi - lo)
            assert abs(cells.count(end) - expected) < 4.0 * np.sqrt(expected)

    def test_table_values_equal_direct_loglik(self, ac_context):
        # the chain reads its likelihood from a per-(cell, j) table; each
        # retained value must be that table's entry, bit for bit, and each
        # entry the direct plug-in evaluation up to the rounding of a
        # batched triangular solve
        cache = ac_context[0].cache
        setup = ACInverseSetup(design=ac_design(3, 3), data_locations=interior_grid_2d(2),
                               cache=cache)
        truth = cache.solutions(0.04)[0].interpolate(setup.data_locations)
        y = truth + 0.02 * RngStream(3, 32).generator().standard_normal(len(truth))
        noise = NoiseModel.isotropic(0.02, len(y))
        chain = ac_plugin_mcmc(y, 300, RngStream(16), setup=setup, noise=noise)
        assert len({(setup.cache._cell(d), j) for d, j in zip(chain.delta, chain.j)}) > 5
        table = _plugin_table(y, setup, noise)
        for delta, j, ll in zip(chain.delta, chain.j, chain.log_estimate):
            entry = table[setup.cache._cell(delta), j]
            assert ll == entry
            direct = mvn_logpdf(y, setup.branch_values(delta, j)[1], noise.cov)
            assert entry == pytest.approx(direct, rel=1e-13, abs=0.0)

    def test_pilot_scan_finds_neighborhood(self, ac_context):
        setup, y, noise = ac_context
        best = plugin_delta_scan(y, setup, noise)
        assert abs(best - 0.04) < 0.02

    def test_pilot_scan_is_first_best_entry(self, ac_context):
        # the scan's oracle: every (delta, j) pair in turn, first strict maximum
        setup, y, noise = ac_context
        best, best_ll = None, -np.inf
        for delta in PILOT_GRID:
            for j in range(1, len(setup.cache.solutions(delta)) + 1):
                ll = mvn_logpdf(y, setup.branch_values(delta, j)[1], noise.cov)
                if ll > best_ll:
                    best, best_ll = float(delta), ll
        assert plugin_delta_scan(y, setup, noise) == best

    def test_pilot_scan_ties_go_to_the_smallest_delta(self, ac_context, monkeypatch):
        setup, y, noise = ac_context
        monkeypatch.setattr(pmm.inverse, "_plugin_table",
                            lambda y, setup, noise: dict.fromkeys(setup._branches, -1.0))
        assert plugin_delta_scan(y, setup, noise) == PILOT_GRID[0]

    def test_prior_and_pilot_grid_lie_in_the_table(self):
        # the coarse table answers only inside DELTA_RANGE
        assert DELTA_PRIOR == UniformPrior(*DELTA_RANGE)
        assert DELTA_RANGE[0] < min(PILOT_GRID) and max(PILOT_GRID) < DELTA_RANGE[1]
        np.testing.assert_allclose(np.diff(PILOT_GRID), 0.01, rtol=1e-12)

    def test_table_has_one_entry_per_branch(self, ac_context):
        setup, y, noise = ac_context
        table = _plugin_table(y, setup, noise)
        assert list(table) == list(setup._branches)
        assert len(table) == 198  # 66 cells of three branches each
        assert all(type(v) is float for v in table.values())

    def test_table_factors_once(self, ac_context, monkeypatch):
        setup, y, noise = ac_context
        calls = []
        chol = pmm.linalg.chol_jitter

        def counted(m):
            calls.append(1)
            return chol(m)

        monkeypatch.setattr(pmm.linalg, "chol_jitter", counted)
        plugin_delta_scan(y, setup, noise)
        assert len(calls) == 1
        ac_plugin_mcmc(y, 50, RngStream(17), setup=setup, noise=noise)
        assert len(calls) == 2

    def test_nan_entry_raises_before_either_chain(self, ac_context, monkeypatch):
        setup, y, noise = ac_context
        key = next(iter(setup._branches))
        at_interior, at_data = setup._branches[key]
        poisoned = at_data.copy()
        poisoned[3] = np.nan
        monkeypatch.setitem(setup._branches, key, (at_interior, poisoned))
        chains = []
        monkeypatch.setattr(pmm.inverse, "_mh_chain", lambda *args: chains.append(args))
        with pytest.raises(FloatingPointError, match=re.escape(str(key))):
            plugin_delta_scan(y, setup, noise)
        with pytest.raises(FloatingPointError, match="NaN"):
            ac_plugin_mcmc(y, 10, RngStream(18), setup=setup, noise=noise)
        assert chains == []


class TestCoarseCache:
    def test_snapping_and_memoization(self, ac_context):
        setup, _, _ = ac_context
        a = setup.cache.solutions(0.0401)
        b = setup.cache.solutions(0.0399)
        assert a is b  # same 0.002 cell

    @pytest.mark.parametrize("cells_away", [0, 1, 2])
    def test_cell_at_delta0_matches_cold_solve(self, ac_context, cells_away):
        # allen-cahn writes solutions_*.csv from the cell of delta0 = 0.04;
        # a deflated solve there, cold or seeded from a cold solve one or two
        # cells above, finds the same branches in the same order
        cold = ac_deflated_solve(0.04, 31, seeds=neighbour_seeds(0.04, 31, cells_away))
        cell = ac_context[0].cache.solutions(0.04)
        assert len(cold) == len(cell) == 3
        for a, b in zip(cold, cell):
            assert a.solution_index == b.solution_index
            np.testing.assert_allclose(b.u, a.u, rtol=0.0, atol=1e-12)

    def test_continuation_to_thin_interfaces(self, ac_context):
        # a cold deflated solve at the bottom of the range misses branches;
        # the sweep reaches all three by continuation from above
        cache = ac_context[0].cache
        assert len(ac_deflated_solve(0.02, 31)) < 3
        sols = cache.solutions(0.021)
        assert len(sols) == 3
        assert all(s.residual_norm < 1e-9 for s in sols)

    @pytest.mark.parametrize("delta", [0.0201, 0.021, 0.03, 0.04])
    def test_solve_at_reaches_every_branch(self, ac_context, delta):
        # the data's continuation step to delta0 finds three converged
        # branches even where a cold solve misses some (0.0201, 0.021); on a
        # cell's own delta it is that cell's table entry, bit for bit
        cache = ac_context[0].cache
        sols = cache.solve_at(delta)
        assert len(sols) == 3
        assert all(np.max(np.abs(ac_residual(s.u, delta))) < 1e-9 for s in sols)
        if delta == 0.04:
            for a, b in zip(sols, cache.solutions(delta)):
                np.testing.assert_array_equal(a.u, b.u)

    def test_every_cell_holds_three_branches_at_n16(self):
        # the -1, saddle and +1 branches, as at N = 31
        cache = CoarseSolutionCache(16, 0.002)
        assert len(cache._store) == 66
        for cell, sols in cache._store.items():
            centres = [s.center_value() for s in sols]
            assert len(centres) == 3 and centres[0] < -0.5 < 0.5 < centres[2], (cell, centres)

    def test_branches_continue_across_cells(self, ac_context):
        # every cell holds three converged branches, and branch j of one
        # cell is the continuation of branch j of the cell above it
        cache = ac_context[0].cache
        res = cache.resolution
        cells = range(75, 9, -1)
        for upper, lower in zip(cells, cells[1:]):
            above, below = cache.solutions(upper * res), cache.solutions(lower * res)
            assert len(below) == 3
            assert all(s.residual_norm < 1e-9 for s in below)
            for a, b in zip(above, below):
                jump = float(np.max(np.abs(a.u - b.u)))
                assert jump < 0.25, f"branch {a.solution_index}: jump {jump:.3f} at cell {lower}"

    def test_table_matches_plain_seed_sweep(self, ac_context):
        # the secant predictor only moves Newton's starting points: every
        # (cell, j) entry is the root that the plain-seed sweep converges to
        cache = ac_context[0].cache
        oracle = plain_seed_sweep(31, 0.002)
        assert sorted(cache._store) == sorted(oracle)
        for cell, want in oracle.items():
            got = cache._store[cell]
            assert len(got) == len(want) == 3
            for j, (a, b) in enumerate(zip(got, want), start=1):
                gap = float(np.max(np.abs(a.u - b.u)))
                assert gap < 1e-9, f"cell {cell}, j={j}: {gap:.2e}"

    def test_table_matches_fresh_lu_sweep(self, ac_context):
        # the chord iteration reuses an LU only while full steps contract
        # tenfold, so every entry is the root a fresh LU per step reaches
        cache = ac_context[0].cache
        with fresh_lu():
            oracle = CoarseSolutionCache(31, 0.002)
        assert sorted(cache._store) == sorted(oracle._store)
        for cell, want in oracle._store.items():
            got = cache._store[cell]
            assert len(got) == len(want) == 3
            for j, (a, b) in enumerate(zip(got, want), start=1):
                gap = float(np.max(np.abs(a.u - b.u)))
                assert gap <= 1e-10, f"cell {cell}, j={j}: {gap:.2e}"

    def test_sweep_banded_solve_count(self, monkeypatch):
        # a fresh LU at every Newton step makes 526 factorizations with the
        # secant predictor (786 with plain seeds); keeping the LU while full
        # steps contract makes 232. Each of the 198 branches needs at least one.
        calls = []
        factor = pmm.problems._jacobian_factor

        def counted(*args):
            calls.append(1)
            return factor(*args)

        monkeypatch.setattr(pmm.problems, "_jacobian_factor", counted)
        cache = CoarseSolutionCache(31, 0.002)
        assert all(len(sols) == 3 for sols in cache._store.values())
        assert 66 * 3 <= len(calls) <= 250

    @pytest.mark.parametrize("delta", [0.0199, 0.1501])
    def test_outside_range_raises(self, ac_context, delta):
        with pytest.raises(ValueError, match="DELTA_RANGE"):
            ac_context[0].cache.solutions(delta)
