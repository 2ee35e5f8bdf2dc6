"""Batch experiment harness.

Four subcommands reproduce the package's headline experiments as
plot-ready CSV files plus a JSON manifest capturing the fully resolved
configuration, seed, version, wall time and every artifact choice that is
not forced by the problem statement. Re-running a subcommand from its
manifest reproduces the CSVs byte for byte.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .forward import convergence_experiment, interior_grid_2d, sample_paths, solve_forward
from .inverse import (
    ACInverseSetup,
    CoarseSolutionCache,
    HalfCauchyPrior,
    MIN_GRID_POINTS,
    NoiseModel,
    UniformPrior,
    ac_plugin_mcmc,
    grid_posterior,
    plugin_delta_scan,
    pm_mcmc,
    pn_loglik,
    AllZeroMass,
    AllWeightsDegenerate,
    SolutionIndexOutOfRange,
)
from .kernels import Matern72Kernel, SqExpKernel
from .linalg import NotPositiveDefinite, RngStream, mvn_logpdf
from .problems import (
    DELTA_RANGE,
    MIN_GRID_N,
    Poisson1D,
    SolveFailed,
    ac_deflated_solve,
    ac_design,
    generate_data,
)

__all__ = ["main", "run_forward_demo", "run_converge", "run_inverse_1d", "run_allen_cahn", "ConfigError"]

EXPERIMENTS = ("forward-demo", "converge", "inverse-1d", "allen-cahn")

NUMERICAL_ERRORS = (
    NotPositiveDefinite,
    SolveFailed,
    AllZeroMass,
    AllWeightsDegenerate,
    SolutionIndexOutOfRange,
    np.linalg.LinAlgError,
    FloatingPointError,
)


class ConfigError(Exception):
    pass


class StageFailure(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {type(cause).__name__}: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except NUMERICAL_ERRORS as exc:
        raise StageFailure(name, exc) from exc


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def _int_list(text: str):
    return [int(tok) for tok in str(text).split(",") if tok.strip()]

def _float_list(text: str):
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


SCHEMAS = {
    "forward-demo": {
        "seed": (int, 0),
        "m_values": (_int_list, "10,40"),
        "kernel": (str, "sqexp"),
        "lengthscale": (float, 0.2),
        "design": (str, "nested"),
        "eval_points": (int, 512),
        "n_samples": (int, 20),
    },
    "converge": {
        "seed": (int, 0),
        "m_list": (_int_list, "5,10,20,40,80"),
        "kernel": (str, "sqexp"),
        "lengthscale": (float, 0.1),
        "design": (str, "nested"),
        "eval_points": (int, 512),
        "theta": (float, 1.0),
    },
    "inverse-1d": {
        "seed": (int, 0),
        "theta0": (float, 1.0),
        "locations": (_float_list, "0.25,0.75"),
        "sigma": (float, 0.01),
        "m_list": (_int_list, "4,8,16"),
        "kernel": (str, "sqexp"),
        "lengthscale": (float, 0.2),
        "design": (str, "uniform"),
        "prior_lo": (float, 0.25),
        "prior_hi": (float, 4.0),
        "grid_n": (int, 240),
    },
    "allen-cahn": {
        "seed": (int, 0),
        "delta0": (float, 0.04),
        "sigma": (float, 0.02),
        "data_per_axis": (int, 4),
        "data_grid_n": (int, 31),
        "data_branch": (int, 1),
        "grid_n": (int, 31),
        "interior_per_axis": (int, 5),
        "per_edge": (int, 5),
        "m_particles": (int, 32),
        "n_steps": (int, 5000),
        "burn_in": (int, 1000),
        "ell_init": (float, 0.1),
        "delta_step": (float, 0.003),
        "logell_step": (float, 0.08),
        "ell_prior_scale": (float, 1.0),
        "noise_correlation": (float, 0.99),
        "cache_resolution": (float, 0.002),
    },
}

# artifact choices surfaced in every manifest, keyed by experiment
METADATA_NOTES = {
    "forward-demo": {
        "error_norm": "relative L2 on the evaluation grid",
        "samples_at": "first entry of m_values",
        "design_placement": "van der Corput prefixes (nested) or equispaced interior grids",
    },
    "converge": {
        "error_norm": "relative L2 on the evaluation grid",
        "fill_distance_probe": "10001-point grid on [0,1]",
        "exact_solution": "u(x) = sin(2*pi*x)/(4*pi^2*theta), verified by finite differences",
    },
    "inverse-1d": {
        "exact_solution": "u(x) = sin(2*pi*x)/(4*pi^2*theta), verified by finite differences",
        "theta_prior": "uniform on (prior_lo, prior_hi)",
        "posterior_grid": "trapezoid-normalized density on a regular theta grid",
        "theta_dependence": "one solve per design size, at theta = 1: mean / theta, same covariance",
    },
    "allen-cahn": {
        "noise_sigma": "artifact choice, not pinned by the problem statement",
        "chain": "correlated pseudo-marginal (noise_correlation), pilot-initialized",
        "data_locations": "regular interior lattice, artifact choice",
        "data_source": "coarse-solver branch at delta0 (data_grid_n, data_branch)",
        "delta0": "artifact choice 0.04 by default",
        "latent_prior": "improper flat prior; constant cancels in acceptance ratios",
        "identity_observation_points": "interior design points",
        "solutions_files": "the coarse branches of delta0's cell in the solution table",
        "burn_in": "recorded for summaries only; both chain CSVs hold every step",
        "coarse_solutions": "one downward continuation sweep over [0.02, 0.15] at "
                            "cache_resolution, each cell seeded by the secant "
                            "predictor 2u(k+1) - u(k+2) of the two cells above, "
                            "independent of seed and data",
    },
}


def _parse_config(experiment: str, config_file: str | None, overrides: dict) -> dict:
    schema = SCHEMAS[experiment]
    cfg = {key: spec[1] for key, spec in schema.items()}
    raw: dict = {}
    if config_file:
        if not os.path.exists(config_file):
            raise ConfigError(f"config file not found: {config_file}")
        with open(config_file, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{config_file}:{lineno}: expected key=value")
                key, val = line.split("=", 1)
                raw[key.strip()] = val.strip()
    raw.update(overrides)
    for key, val in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for {experiment}")
        caster = schema[key][0]
        try:
            cfg[key] = caster(val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {val!r} ({exc})") from exc
    # defaults given as strings still need casting
    for key, (caster, _) in schema.items():
        if isinstance(cfg[key], str) and caster is not str:
            cfg[key] = caster(cfg[key])
    _validate(experiment, cfg)
    return cfg


# On 2 or 3 points an evaluation grid holds only zeros of the exact 1D
# solution sin(2 pi x)/(4 pi^2 theta), where a relative error reads noise.
MIN_EVAL_POINTS = 16


def _validate(experiment: str, cfg: dict) -> None:
    if "kernel" in cfg:
        if cfg["kernel"] not in KERNELS:
            raise ConfigError(f"kernel must be 'sqexp' or 'matern72', got {cfg['kernel']!r}")
        try:
            _make_kernel(cfg)  # each kernel checks its own parameters
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if "design" in cfg and cfg["design"] not in ("uniform", "nested"):
        raise ConfigError(f"design must be 'uniform' or 'nested', got {cfg['design']!r}")
    for key in ("lengthscale", "sigma", "delta_step", "logell_step", "cache_resolution",
                "theta", "theta0", "ell_init", "ell_prior_scale"):
        if key in cfg and not cfg[key] > 0.0:
            raise ConfigError(f"{key} must be positive")
    least = dict.fromkeys(("n_samples", "data_per_axis", "data_branch", "interior_per_axis",
                           "per_edge", "m_particles"), 1)
    least.update(eval_points=MIN_EVAL_POINTS, data_grid_n=MIN_GRID_N,
                 grid_n=MIN_GRID_N if experiment == "allen-cahn" else MIN_GRID_POINTS)
    for key, lo in least.items():
        if key in cfg and cfg[key] < lo:
            raise ConfigError(f"{key} must be at least {lo}")
    for key in ("m_values", "m_list"):
        if key in cfg and (not cfg[key] or min(cfg[key]) < 1):
            raise ConfigError(f"{key} needs at least one design size, each at least 1")
    if "m_list" in cfg and any(b <= a for a, b in zip(cfg["m_list"], cfg["m_list"][1:])):
        raise ConfigError("m_list must be strictly increasing")
    if experiment == "inverse-1d":
        if not 0.0 <= cfg["prior_lo"] < cfg["prior_hi"]:
            raise ConfigError("need 0 <= prior_lo < prior_hi")
        if not cfg["locations"] or not all(0.0 < x < 1.0 for x in cfg["locations"]):
            raise ConfigError("locations must be one or more points in (0, 1)")
    if experiment == "allen-cahn":
        lo, hi = DELTA_RANGE
        if not lo < cfg["delta0"] < hi:
            raise ConfigError(f"delta0 must lie in ({lo}, {hi})")
        if not 0.0 <= cfg["noise_correlation"] < 1.0:
            raise ConfigError("noise_correlation must lie in [0, 1)")
        if cfg["burn_in"] >= cfg["n_steps"]:
            raise ConfigError("burn_in must be smaller than n_steps")


KERNELS = {"sqexp": SqExpKernel, "matern72": Matern72Kernel}


def _make_kernel(cfg: dict):
    return KERNELS[cfg["kernel"]](cfg["lengthscale"])


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------

def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header, rows) -> None:
    # integers and flags as %d, floats as %.17g, by the first row's column types
    lines, fmt = [",".join(header)], None
    for row in rows:
        fmt = fmt or ",".join("%d" if isinstance(v, (bool, np.bool_, int, np.integer))
                              else "%.17g" for v in row)
        lines.append(fmt % tuple(row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_manifest(out_dir: str, experiment: str, cfg: dict, files, wall: float) -> str:
    manifest = {
        "experiment": experiment,
        "config": cfg,
        "version": __version__,
        "wall_time_s": wall,
        "metadata": METADATA_NOTES[experiment],
        "files": sorted(os.path.basename(f) for f in files),
    }
    path = os.path.join(out_dir, "manifest.json")
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------

def run_forward_demo(cfg: dict, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.monotonic()
    kernel = _make_kernel(cfg)
    problem = Poisson1D()
    grid = np.linspace(0.0, 1.0, cfg["eval_points"])
    per_m = {}
    with _stage("forward solve"):
        for m in cfg["m_values"]:
            post = solve_forward(problem.blocks(m, design=cfg["design"]), kernel)
            per_m[m] = (post.mean(grid), np.diag(post.cov(grid)).copy(), post)
    header = ["x"]
    cols = [grid]
    for m in cfg["m_values"]:
        header += [f"mean_m{m}", f"var_m{m}"]
        cols += [per_m[m][0], per_m[m][1]]
    mean_cov_path = os.path.join(out_dir, "mean_cov.csv")
    _write_csv(mean_cov_path, header, zip(*cols))

    m0 = cfg["m_values"][0]
    with _stage("posterior sampling"):
        draws = sample_paths(per_m[m0][2], grid, cfg["n_samples"], RngStream(cfg["seed"], 11))
    header = ["x"] + [f"sample_{i + 1:02d}" for i in range(cfg["n_samples"])]
    samples_path = os.path.join(out_dir, "samples.csv")
    _write_csv(samples_path, header, zip(grid, *draws))

    files = [mean_cov_path, samples_path]
    files.append(_write_manifest(out_dir, "forward-demo", cfg, files, time.monotonic() - t0))
    return files


def run_converge(cfg: dict, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.monotonic()
    kernel = _make_kernel(cfg)
    problem = Poisson1D(cfg["theta"])
    grid = np.linspace(0.0, 1.0, cfg["eval_points"])
    with _stage("convergence experiment"):
        rows = convergence_experiment(problem, kernel, cfg["m_list"], grid, design=cfg["design"])
    path = os.path.join(out_dir, "convergence.csv")
    _write_csv(path, ["m", "h", "err_l2_rel", "cov_trace"], (r.astuple() for r in rows))
    files = [path, _write_manifest(out_dir, "converge", cfg, [path], time.monotonic() - t0)]
    return files


def run_inverse_1d(cfg: dict, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.monotonic()
    locations = np.asarray(cfg["locations"], dtype=float)
    with _stage("data generation"):
        y = generate_data(cfg["theta0"], locations, cfg["sigma"], RngStream(cfg["seed"], 21))
    noise = NoiseModel.isotropic(cfg["sigma"], len(locations))
    prior = UniformPrior(cfg["prior_lo"], cfg["prior_hi"])
    grid = np.linspace(cfg["prior_lo"] + 1e-9, cfg["prior_hi"] - 1e-9, cfg["grid_n"])
    kernel = _make_kernel(cfg)

    def posteriors_for(m: int):
        # one solve serves every theta: the forcing is theta-free and the boundary data are zero
        post = solve_forward(Poisson1D(1.0).blocks(m, design=cfg["design"]), kernel)
        means = post.mean(locations) / grid[:, None]
        return (grid_posterior(grid, prior, pn_loglik(y, means, post.cov(locations), noise)),
                grid_posterior(grid, prior, mvn_logpdf(y, means, noise.cov)))

    with _stage("grid posteriors"):
        results = [posteriors_for(m) for m in cfg["m_list"]]

    files = []
    for name, idx in (("posterior_pmm.csv", 0), ("posterior_plugin.csv", 1)):
        header = ["theta"] + [f"density_m{m}" for m in cfg["m_list"]]
        path = os.path.join(out_dir, name)
        _write_csv(path, header, zip(grid, *(r[idx] for r in results)))
        files.append(path)
    files.append(_write_manifest(out_dir, "inverse-1d", cfg, files, time.monotonic() - t0))
    return files


def run_allen_cahn(cfg: dict, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.monotonic()
    files = []

    with _stage("data generation"):
        source = ac_deflated_solve(cfg["delta0"], cfg["data_grid_n"], RngStream(cfg["seed"], 31))
        if cfg["data_branch"] > len(source):
            raise SolutionIndexOutOfRange(
                f"data_branch={cfg['data_branch']}, only {len(source)} solutions found")
        data_locations = interior_grid_2d(cfg["data_per_axis"])
        truth = source[cfg["data_branch"] - 1].interpolate(data_locations)
        noise_draw = cfg["sigma"] * RngStream(cfg["seed"], 32).generator().standard_normal(len(truth))
        y = truth + noise_draw
    data_path = os.path.join(out_dir, "data.csv")
    _write_csv(data_path, ["x1", "x2", "y"], zip(data_locations[:, 0], data_locations[:, 1], y))
    files.append(data_path)

    with _stage("coarse solution table"):
        setup = ACInverseSetup(
            design=ac_design(cfg["interior_per_axis"], cfg["per_edge"]),
            data_locations=data_locations,
            cache=CoarseSolutionCache(cfg["grid_n"], cfg["cache_resolution"]),
        )
    for sol in setup.cache.solutions(cfg["delta0"]):
        path = os.path.join(out_dir, f"solutions_{sol.solution_index}.csv")
        # row-major u[j, i] sits at (x1, x2) = (coords[i], coords[j])
        _write_csv(path, ["x1", "x2", "u"],
                   zip(np.tile(sol.coords, sol.n), np.repeat(sol.coords, sol.n), sol.u.ravel()))
        files.append(path)

    noise = NoiseModel.isotropic(cfg["sigma"], len(y))
    delta_prior = UniformPrior(*DELTA_RANGE)

    with _stage("pilot initialization"):
        init_delta = plugin_delta_scan(y, setup, noise, np.arange(0.025, 0.146, 0.01))
    with _stage("pseudo-marginal chain"):
        chain = pm_mcmc(
            y, delta_prior, HalfCauchyPrior(cfg["ell_prior_scale"]),
            cfg["m_particles"], cfg["n_steps"], RngStream(cfg["seed"], 33),
            setup=setup, noise=noise,
            step_scales=(cfg["delta_step"], cfg["logell_step"]),
            init=(init_delta, cfg["ell_init"], 1),
            noise_correlation=cfg["noise_correlation"],
        )
    chain_path = os.path.join(out_dir, "chain.csv")
    _write_csv(chain_path, chain.FIELDS, chain.rows())
    files.append(chain_path)

    with _stage("plug-in baseline chain"):
        plug = ac_plugin_mcmc(
            y, delta_prior, cfg["n_steps"], RngStream(cfg["seed"], 34),
            setup=setup, noise=noise, step_scale=cfg["delta_step"],
            init=(init_delta, 1),
        )
    plug_path = os.path.join(out_dir, "chain_plugin.csv")
    _write_csv(plug_path, plug.FIELDS, plug.rows())
    files.append(plug_path)

    files.append(_write_manifest(out_dir, "allen-cahn", cfg, files, time.monotonic() - t0))
    return files


RUNNERS = {
    "forward-demo": run_forward_demo,
    "converge": run_converge,
    "inverse-1d": run_inverse_1d,
    "allen-cahn": run_allen_cahn,
}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _collect_overrides(pairs) -> dict:
    overrides = {}
    i = 0
    while i < len(pairs):
        tok = pairs[i]
        if not tok.startswith("--"):
            raise ConfigError(f"expected --key value, got {tok!r}")
        key = tok[2:].replace("-", "_")
        if "=" in key:
            key, val = key.split("=", 1)
        else:
            if i + 1 >= len(pairs):
                raise ConfigError(f"missing value for {tok!r}")
            val = pairs[i + 1]
            i += 1
        overrides[key] = val
        i += 1
    return overrides


def _manifest_config(path: str, experiment: str) -> dict:
    """The configuration a run manifest stores, as key -> value strings."""
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not a JSON manifest: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"{path} is not a run manifest: no \"config\" object")
    if manifest.get("experiment") != experiment:
        raise ConfigError(f"manifest is for {manifest.get('experiment')!r}, not {experiment!r}")
    return {k: str(v) if not isinstance(v, list) else ",".join(map(str, v))
            for k, v in manifest["config"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pmm",
        description="Meshless probabilistic PDE solver experiments",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--from-manifest", dest="from_manifest",
                        help="re-run with the configuration stored in a manifest")
    parser.add_argument("--output-dir", default=".", help="directory for output files")
    args, extra = parser.parse_known_args(argv)

    try:
        overrides = _collect_overrides(extra)
        base_cfg = {}
        if args.from_manifest:
            base_cfg = _manifest_config(args.from_manifest, args.experiment)
        cfg = _parse_config(args.experiment, args.config, {**base_cfg, **overrides})
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        files = RUNNERS[args.experiment](cfg, args.output_dir)
    except StageFailure as exc:
        print(f"numerical failure in {exc}", file=sys.stderr)
        return 3
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
