"""Acceptance suite: one test per headline criterion.

Each test prints a single PASS/FAIL line, which ``conftest.py`` repeats in
the terminal summary, and asserts the criterion at its stated tolerance,
including the runtime budget.
"""

import json
import os
import time

import numpy as np
import pytest

from pmm.cli import main
from pmm.forward import interior_grid_2d, solve_forward
from pmm.inverse import (
    ACInverseSetup,
    CoarseSolutionCache,
    HalfCauchyPrior,
    NoiseModel,
    PMEstimate,
    UniformPrior,
    ac_plugin_mcmc,
    grid_mean_std,
    grid_mode,
    grid_posterior,
    plugin_delta_scan,
    pm_mcmc,
    pn_loglik,
)
from pmm.kernels import Matern72Kernel, OperatorTag, SqExpKernel, op_gram
from pmm.linalg import RngStream, mvn_logpdf
from pmm.problems import Poisson1D, ac_deflated_solve, ac_design, generate_data, poisson_exact
from reference import default_fd_step, fd_check

ID = OperatorTag.identity()
NL = OperatorTag(1.0, 0.0)
TAGS = [ID, NL, OperatorTag(0.7, -2.0), OperatorTag(0.04, -25.0)]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def test_criterion_1_operator_kernels():
    """200 randomized fd checks < 1e-4; symbolic anchors to 1e-10; < 5 s."""
    with Timer() as t:
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            ell = rng.uniform(0.1, 2.0)
            dim = int(rng.integers(1, 3))
            k = SqExpKernel(ell, dim)
            left = TAGS[rng.integers(0, len(TAGS))]
            right = TAGS[rng.integers(0, len(TAGS))]
            x, y = rng.uniform(0.0, 1.0, (2, dim))
            err = fd_check(left, right, k, x, y, default_fd_step(left, right, k))
            worst = max(worst, err)
        anchor_err = 0.0
        for ell in (0.3, 1.0, 1.7):
            k = SqExpKernel(ell, 1)
            a1 = op_gram(NL, ID, k, 0.4, 0.4)[0, 0]
            a2 = op_gram(NL, NL, k, 0.4, 0.4)[0, 0]
            anchor_err = max(anchor_err,
                             abs(a1 - 1.0 / ell**2) / (1.0 / ell**2),
                             abs(a2 - 3.0 / ell**4) / (3.0 / ell**4))
    ok = worst < 1e-4 and anchor_err < 1e-10 and t.elapsed < 5.0
    report(1, ok, f"fd worst {worst:.2e} (<1e-4), anchors {anchor_err:.2e} (<1e-10), "
                  f"{t.elapsed:.2f}s (<5s)")
    assert worst < 1e-4
    assert anchor_err < 1e-10
    assert t.elapsed < 5.0


def test_criterion_2_forward_interpolation():
    """Boundary-block mean and variance within 1e-8 at m in {10, 40}; < 1 s."""
    with Timer() as t:
        problem = Poisson1D()
        boundary = np.array([[0.0], [1.0]])
        worst_mean = worst_var = 0.0
        for kernel in (SqExpKernel(0.2), Matern72Kernel(0.2)):
            for m in (10, 40):
                post = solve_forward(problem.blocks(m), kernel)
                worst_mean = max(worst_mean, float(np.max(np.abs(post.mean(boundary)))))
                worst_var = max(worst_var, float(np.max(np.diag(post.cov(boundary)))))
    ok = worst_mean <= 1e-8 and worst_var <= 1e-8 and t.elapsed < 1.0
    report(2, ok, f"boundary mean {worst_mean:.2e}, variance {worst_var:.2e} "
                  f"(both <=1e-8), {t.elapsed:.2f}s (<1s)")
    assert worst_mean <= 1e-8
    assert worst_var <= 1e-8
    assert t.elapsed < 1.0


def test_criterion_3_forward_convergence():
    """Nested refinement: error and trace non-increasing, final error < 1e-3; < 10 s."""
    from pmm.forward import convergence_experiment
    with Timer() as t:
        problem = Poisson1D()
        grid = np.linspace(0.0, 1.0, 512)
        rows = convergence_experiment(problem, SqExpKernel(0.1),
                                      [5, 10, 20, 40, 80], grid, design="nested")
        errs = [r.err_l2_rel for r in rows]
        traces = [r.cov_trace for r in rows]
    err_mono = all(b <= a for a, b in zip(errs, errs[1:]))
    trace_mono = all(b <= a for a, b in zip(traces, traces[1:]))
    ok = err_mono and trace_mono and errs[-1] < 1e-3 and t.elapsed < 10.0
    report(3, ok, f"errors {['%.1e' % e for e in errs]} non-increasing={err_mono}, "
                  f"traces non-increasing={trace_mono}, final {errs[-1]:.2e} (<1e-3), "
                  f"{t.elapsed:.2f}s (<10s)")
    assert err_mono and trace_mono
    assert errs[-1] < 1e-3
    assert t.elapsed < 10.0


def central_interval(theta_grid, density, level=0.95):
    """Central credible interval of a grid density, from its trapezoid CDF."""
    steps = 0.5 * (density[1:] + density[:-1]) * np.diff(theta_grid)
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    tail = 0.5 * (1.0 - level)
    lo, hi = np.interp([tail, 1.0 - tail], cdf, theta_grid)
    return float(lo), float(hi)


def test_criterion_4_inverse_widening():
    """Posterior widening and mode convergence on the 1D problem; >= 4/5 seeds; < 30 s.

    Each seed draws two observations at x = 0.25, 0.75 with sigma = 0.01
    and builds grid posteriors at m in {4, 8, 16}. A seed passes when
    - widening: the PN posterior std falls strictly as m grows;
    - stability: the plug-in std varies by less than 25% across m;
    - modes: the m = 16 PN and plug-in modes lie within 5% of the mode of
      the exact-model posterior (closed-form ``poisson_exact`` through
      the plug-in likelihood, same grid and prior), which is what the method
      converges to as the design refines;
    - coverage: theta0 lies inside the central 95% credible interval of
      the m = 16 PN posterior.
    Independently of the solver, the exact-model mode must also match the
    closed-form MLE (1/(4 pi^2)) / mean(y * [1, -1]) to within one grid
    spacing on every seed where that MLE lies inside the grid.

    Modes are not compared with theta0 itself: the observed solution
    amplitude is only 1/(4 pi^2) ~ 0.025, so the MLE scatters with
    standard deviation sigma / (sqrt(2) u(0.25)) ~ 0.28 across data draws
    and |mode - 1| <= 0.05 holds for roughly one seed in seven, whatever
    the estimator.
    """
    theta0, sigma = 1.0, 0.01
    locations = np.array([0.25, 0.75])
    noise = NoiseModel.isotropic(sigma, 2)
    prior = UniformPrior(0.25, 4.0)
    grid = np.linspace(0.26, 3.99, 240)
    spacing = grid[1] - grid[0]
    kernel = SqExpKernel(0.2)
    m_values = (4, 8, 16)

    with Timer() as t:
        # one solve per design size serves every seed and theta: the posterior
        # at theta has mean mean_1 / theta and covariance cov_1
        at_theta_1 = {}
        for m in m_values:
            post = solve_forward(Poisson1D(1.0).blocks(m), kernel)
            at_theta_1[m] = post.mean(locations[:, None]), post.cov(locations[:, None])
        seed_results, lines, bad_reference = [], [], []
        for seed in range(5):
            y = generate_data(theta0, locations, sigma, RngStream(seed, 21))

            def posteriors(m):
                mean, cov = at_theta_1[m]
                means = mean / grid[:, None]
                pn = grid_posterior(grid, prior, pn_loglik(y, means, cov, noise))
                plug = grid_posterior(grid, prior, mvn_logpdf(y, means, noise.cov))
                return pn, plug

            per_m = {m: posteriors(m) for m in m_values}
            exact_means = poisson_exact(1.0, locations) / grid[:, None]
            exact = grid_posterior(grid, prior, mvn_logpdf(y, exact_means, noise.cov))
            pn_stds = [grid_mean_std(grid, per_m[m][0])[1] for m in m_values]
            plug_stds = [grid_mean_std(grid, per_m[m][1])[1] for m in m_values]
            pn_mode = grid_mode(grid, per_m[16][0])
            plug_mode = grid_mode(grid, per_m[16][1])
            exact_mode = grid_mode(grid, exact)
            lo, hi = central_interval(grid, per_m[16][0])
            mle = (1.0 / (4.0 * np.pi**2)) / np.mean(y * [1.0, -1.0])

            clauses = {
                "widening": pn_stds[0] > pn_stds[1] > pn_stds[2],
                "stability": (max(plug_stds) - min(plug_stds)) / max(plug_stds) < 0.25,
                "modes": max(abs(pn_mode - exact_mode),
                             abs(plug_mode - exact_mode)) <= 0.05 * exact_mode,
                "coverage": lo <= theta0 <= hi,
            }
            if grid[0] <= mle <= grid[-1] and abs(exact_mode - mle) > spacing:
                bad_reference.append(seed)
            seed_results.append(clauses)
            lines.append(
                f"seed{seed}: modes PN {pn_mode:.3f} plug {plug_mode:.3f} "
                f"exact {exact_mode:.3f} (MLE {mle:.3f}), 95% CI [{lo:.3f}, {hi:.3f}], "
                + " ".join(f"{name}={ok}" for name, ok in clauses.items()))

    passes = sum(all(c.values()) for c in seed_results)
    failed = "; ".join(
        f"seed{i} fails {', '.join(name for name, ok in c.items() if not ok)}"
        for i, c in enumerate(seed_results) if not all(c.values())
    )
    ok = passes >= 4 and not bad_reference and t.elapsed < 30.0
    report(4, ok, f"{passes}/5 seeds pass ({'; '.join(lines)}), {t.elapsed:.1f}s (<30s)")
    assert t.elapsed < 30.0
    assert not bad_reference, (
        f"exact-model grid mode is more than one grid spacing ({spacing:.4f}) from the "
        f"closed-form MLE on seeds {bad_reference}"
    )
    assert passes >= 4, f"only {passes}/5 seeds pass (need 4): {failed}"


def test_criterion_5_allen_cahn_multimodality():
    """Exactly 3 solutions at delta = 0.04, N = 31, well separated; < 30 s."""
    with Timer() as t:
        sols = ac_deflated_solve(0.04, 31)
        n_found = len(sols)
        min_dist = min(
            float(np.max(np.abs(a.u - b.u)))
            for i, a in enumerate(sols) for b in sols[i + 1:]
        ) if n_found > 1 else 0.0
        max_resid = max(s.residual_norm for s in sols)
    ok = n_found == 3 and min_dist > 0.5 and max_resid < 1e-9 and t.elapsed < 30.0
    report(5, ok, f"{n_found} solutions, min pairwise sup-distance {min_dist:.2f} (>0.5), "
                  f"max residual {max_resid:.1e} (<1e-9), {t.elapsed:.1f}s (<30s)")
    assert n_found == 3
    assert min_dist > 0.5
    assert max_resid < 1e-9
    assert t.elapsed < 30.0


def test_criterion_6_pseudo_marginal_unbiasedness():
    """Conjugate Gaussian toy: mean of 200 estimates within 3 MC standard
    errors of the closed form; spread shrinks from M=32 to M=128; < 20 s."""
    from scipy.stats import norm
    s_noise, tau, y_obs = 0.7, 1.1, 0.3

    def estimate(m, rng):
        z = tau * rng.generator().standard_normal(m)
        return PMEstimate.from_log_weights(norm.logpdf(y_obs, z, s_noise))

    with Timer() as t:
        vals = np.array([
            np.exp(estimate(64, RngStream(900, i)).log_estimate) for i in range(200)
        ])
        target = norm.pdf(y_obs, 0.0, np.hypot(s_noise, tau))
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        bias_z = abs(vals.mean() - target) / se
        spreads = []
        for m in (32, 128):
            reps = [estimate(m, RngStream(910 + m, i)).log_estimate for i in range(20)]
            spreads.append(float(np.std(reps)))
    ok = bias_z < 3.0 and spreads[1] < spreads[0] and t.elapsed < 20.0
    report(6, ok, f"|mean - exact| = {bias_z:.2f} MC standard errors (<3), "
                  f"log-estimate sd M=32: {spreads[0]:.3f} -> M=128: {spreads[1]:.3f}, "
                  f"{t.elapsed:.1f}s (<20s)")
    assert bias_z < 3.0
    assert spreads[1] < spreads[0]
    assert t.elapsed < 20.0


@pytest.mark.slow
def test_criterion_7_allen_cahn_inverse_coverage():
    """Desk-scale chains: the solver-aware 90% interval covers delta0 and is
    at least as wide as the plug-in baseline's, for >= 4/5 seeds; < 15 min."""
    delta0, sigma = 0.04, 0.02
    n_steps, burn, m_particles = 5000, 1000, 32
    data_locations = interior_grid_2d(4)

    with Timer() as t:
        # the coarse table depends on neither the seed nor the data, and the
        # truth is its continuation step to delta0, as in the allen-cahn CLI
        setup = ACInverseSetup(design=ac_design(5, 5), data_locations=data_locations,
                               cache=CoarseSolutionCache(31, 0.002))
        truth = setup.cache.solve_at(delta0)[0].interpolate(data_locations)
        results = []
        for seed in range(5):
            y = truth + sigma * RngStream(seed, 32).generator().standard_normal(len(truth))
            noise = NoiseModel.isotropic(sigma, len(y))
            d_init = plugin_delta_scan(y, setup, noise)
            chain = pm_mcmc(y, HalfCauchyPrior(1.0), m_particles, n_steps,
                            RngStream(seed, 33), setup=setup, noise=noise,
                            init=(d_init, 0.1, 1))
            plug = ac_plugin_mcmc(y, n_steps, RngStream(seed, 34), setup=setup, noise=noise)
            lo, hi = np.quantile(chain.delta[burn:], [0.05, 0.95])
            # the plug-in draws are independent, so none is burn-in
            lop, hip = np.quantile(plug.delta, [0.05, 0.95])
            covered = lo <= delta0 <= hi
            wider = (hi - lo) >= (hip - lop)
            results.append((covered, wider, hi - lo, hip - lop, chain.acceptance_rate))

    passes = sum(c and w for c, w, *_ in results)
    detail = "; ".join(
        f"seed{i}: cover={c} widthPN={wn:.4f} widthPlug={wp:.4f} acc={a:.2f}"
        for i, (c, w, wn, wp, a) in enumerate(results)
    )
    ok = passes >= 4 and t.elapsed < 900.0
    report(7, ok, f"{passes}/5 seeds pass ({detail}), {t.elapsed:.0f}s (<900s)")
    assert passes >= 4
    assert t.elapsed < 900.0


def test_criterion_8_cli_determinism(tmp_path):
    """Every subcommand re-run from its manifest reproduces byte-identical CSVs."""
    configs = {
        "forward-demo": ["--eval_points", "64"],
        "converge": ["--m_list", "5,10,20", "--eval_points", "128"],
        "inverse-1d": ["--m_list", "4,8", "--grid_n", "60"],
        "allen-cahn": ["--n_steps", "60", "--burn_in", "10", "--m_particles", "4",
                       "--data_per_axis", "2", "--interior_per_axis", "3",
                       "--per_edge", "3"],
    }
    with Timer() as t:
        identical = {}
        for experiment, args in configs.items():
            first = tmp_path / experiment / "first"
            second = tmp_path / experiment / "second"
            assert main([experiment, "--output-dir", str(first), "--seed", "11", *args]) == 0
            assert main([experiment, "--output-dir", str(second),
                         "--from-manifest", str(first / "manifest.json")]) == 0
            same = True
            for name in sorted(os.listdir(first)):
                if not name.endswith(".csv"):
                    continue
                with open(first / name, "rb") as fa, open(second / name, "rb") as fb:
                    same &= fa.read() == fb.read()
            identical[experiment] = same
    ok = all(identical.values())
    report(8, ok, f"byte-identical reruns: {identical}, {t.elapsed:.0f}s")
    assert ok
