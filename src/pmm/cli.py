"""Batch experiment harness.

Four subcommands reproduce the package's headline experiments as
plot-ready CSV files plus a JSON manifest capturing the fully resolved
configuration, seed, version, wall time, the wall time of each stage and
every artifact choice that is not forced by the problem statement.
Re-running a subcommand from its manifest reproduces the CSVs byte for byte.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
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
def _stage(name: str, stage_s: dict):
    """Name the stage in a numerical failure, and record its wall time in
    ``stage_s`` when it succeeds."""
    t0 = time.monotonic()
    try:
        yield
    except NUMERICAL_ERRORS as exc:
        raise StageFailure(name, exc) from exc
    stage_s[name] = time.monotonic() - t0


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def _int_list(text: str):
    return [int(tok) for tok in str(text).split(",") if tok.strip()]

def _float_list(text: str):
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


# least value of a float key that must be strictly positive
POSITIVE = "positive"

# On 2 or 3 points an evaluation grid holds only zeros of the exact 1D
# solution sin(2 pi x)/(4 pi^2 theta), where a relative error reads noise.
MIN_EVAL_POINTS = 16

# experiment -> key -> (type, default, least): type parses the key's text,
# default is a typed value, and least is the smallest allowed value (or list
# entry), POSITIVE, or None. _validate holds the rules beyond one key's bound.
SCHEMAS = {
    "forward-demo": {
        "seed": (int, 0, None),
        "m_values": (_int_list, [10, 40], 1),
        "kernel": (str, "sqexp", None),
        "lengthscale": (float, 0.2, POSITIVE),
        "design": (str, "nested", None),
        "eval_points": (int, 512, MIN_EVAL_POINTS),
        "n_samples": (int, 20, 1),
    },
    "converge": {
        "seed": (int, 0, None),
        "m_list": (_int_list, [5, 10, 20, 40, 80], 1),
        "kernel": (str, "sqexp", None),
        "lengthscale": (float, 0.1, POSITIVE),
        "design": (str, "nested", None),
        "eval_points": (int, 512, MIN_EVAL_POINTS),
        "theta": (float, 1.0, POSITIVE),
    },
    "inverse-1d": {
        "seed": (int, 0, None),
        "theta0": (float, 1.0, POSITIVE),
        "locations": (_float_list, [0.25, 0.75], None),
        "sigma": (float, 0.01, POSITIVE),
        "m_list": (_int_list, [4, 8, 16], 1),
        "kernel": (str, "sqexp", None),
        "lengthscale": (float, 0.2, POSITIVE),
        "design": (str, "uniform", None),
        "prior_lo": (float, 0.25, None),
        "prior_hi": (float, 4.0, None),
        "grid_n": (int, 240, MIN_GRID_POINTS),
    },
    "allen-cahn": {
        "seed": (int, 0, None),
        "delta0": (float, 0.04, None),
        "sigma": (float, 0.02, POSITIVE),
        "data_per_axis": (int, 4, 1),
        "data_grid_n": (int, 31, MIN_GRID_N),
        "data_branch": (int, 1, 1),
        "grid_n": (int, 31, MIN_GRID_N),
        "interior_per_axis": (int, 5, 1),
        "per_edge": (int, 5, 1),
        "m_particles": (int, 32, 1),
        "n_steps": (int, 5000, 1),
        "burn_in": (int, 1000, 0),
        "ell_init": (float, 0.1, POSITIVE),
        "delta_step": (float, 0.003, POSITIVE),
        "logell_step": (float, 0.08, POSITIVE),
        "ell_prior_scale": (float, 1.0, POSITIVE),
        "noise_correlation": (float, 0.99, None),
        "cache_resolution": (float, 0.002, POSITIVE),
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
        "data_source": "branch data_branch at delta0 from one continuation step below "
                       "the data_grid_n solution table, independent of seed",
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
    cfg = {key: copy.copy(default) for key, (_, default, _) in schema.items()}
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
        try:
            cfg[key] = schema[key][0](val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {val!r} ({exc})") from exc
    _validate(experiment, cfg)
    return cfg


def _validate(experiment: str, cfg: dict) -> None:
    for key, (_, _, least) in SCHEMAS[experiment].items():
        if least is None:
            continue
        values = cfg[key] if isinstance(cfg[key], list) else [cfg[key]]
        if least is POSITIVE:
            ok, bound = all(v > 0.0 for v in values), "positive"
        else:
            ok, bound = all(v >= least for v in values), f"at least {least}"
        if not (values and ok):
            what = "needs one or more entries, each" if values is cfg[key] else "must be"
            raise ConfigError(f"{key} {what} {bound}, got {cfg[key]!r}")
    if "kernel" in cfg and cfg["kernel"] not in KERNELS:
        raise ConfigError(f"kernel must be 'sqexp' or 'matern72', got {cfg['kernel']!r}")
    if "design" in cfg and cfg["design"] not in ("uniform", "nested"):
        raise ConfigError(f"design must be 'uniform' or 'nested', got {cfg['design']!r}")
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


def _write_csv(out_dir: str, name: str, header, rows) -> str:
    # integers and flags as %d, floats as %.17g, by the first row's column types
    lines, fmt = [",".join(header)], None
    for row in rows:
        fmt = fmt or ",".join("%d" if isinstance(v, (bool, np.bool_, int, np.integer))
                              else "%.17g" for v in row)
        lines.append(fmt % tuple(row))
    path = os.path.join(out_dir, name)
    _write_atomic(path, "\n".join(lines) + "\n")
    return path


def _write_manifest(out_dir: str, experiment: str, cfg: dict, files, wall: float,
                    stage_s: dict) -> str:
    manifest = {
        "experiment": experiment,
        "config": cfg,
        "version": __version__,
        "wall_time_s": wall,
        "diagnostics": {"stage_s": stage_s},
        "metadata": METADATA_NOTES[experiment],
        "files": sorted(os.path.basename(f) for f in files),
    }
    path = os.path.join(out_dir, "manifest.json")
    _write_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# experiments: each writes its CSVs into an existing directory, records
# the wall time of each stage in stage_s and returns the CSVs' paths
# ----------------------------------------------------------------------

def run_forward_demo(cfg: dict, out_dir: str, stage_s: dict) -> list:
    kernel = _make_kernel(cfg)
    problem = Poisson1D()
    grid = np.linspace(0.0, 1.0, cfg["eval_points"])
    per_m = {}
    with _stage("forward solve", stage_s):
        for m in cfg["m_values"]:
            post = solve_forward(problem.blocks(m, design=cfg["design"]), kernel)
            per_m[m] = (post.mean(grid), np.diag(post.cov(grid)).copy(), post)
    header = ["x"]
    cols = [grid]
    for m in cfg["m_values"]:
        header += [f"mean_m{m}", f"var_m{m}"]
        cols += [per_m[m][0], per_m[m][1]]
    mean_cov_path = _write_csv(out_dir, "mean_cov.csv", header, zip(*cols))

    m0 = cfg["m_values"][0]
    with _stage("posterior sampling", stage_s):
        draws = sample_paths(per_m[m0][2], grid, cfg["n_samples"], RngStream(cfg["seed"], 11))
    header = ["x"] + [f"sample_{i + 1:02d}" for i in range(cfg["n_samples"])]
    return [mean_cov_path, _write_csv(out_dir, "samples.csv", header, zip(grid, *draws))]


def run_converge(cfg: dict, out_dir: str, stage_s: dict) -> list:
    kernel = _make_kernel(cfg)
    problem = Poisson1D(cfg["theta"])
    grid = np.linspace(0.0, 1.0, cfg["eval_points"])
    with _stage("convergence experiment", stage_s):
        rows = convergence_experiment(problem, kernel, cfg["m_list"], grid, design=cfg["design"])
    return [_write_csv(out_dir, "convergence.csv", ["m", "h", "err_l2_rel", "cov_trace"],
                       (r.astuple() for r in rows))]


def run_inverse_1d(cfg: dict, out_dir: str, stage_s: dict) -> list:
    locations = np.asarray(cfg["locations"], dtype=float)
    with _stage("data generation", stage_s):
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

    with _stage("grid posteriors", stage_s):
        results = [posteriors_for(m) for m in cfg["m_list"]]

    header = ["theta"] + [f"density_m{m}" for m in cfg["m_list"]]
    return [_write_csv(out_dir, name, header, zip(grid, *(r[idx] for r in results)))
            for idx, name in enumerate(("posterior_pmm.csv", "posterior_plugin.csv"))]


def run_allen_cahn(cfg: dict, out_dir: str, stage_s: dict) -> list:
    with _stage("coarse solution table", stage_s):
        caches = {n: CoarseSolutionCache(n, cfg["cache_resolution"])
                  for n in {cfg["grid_n"], cfg["data_grid_n"]}}

    with _stage("data generation", stage_s):
        source = caches[cfg["data_grid_n"]].solve_at(cfg["delta0"])
        if cfg["data_branch"] > len(source):
            raise SolutionIndexOutOfRange(
                f"data_branch={cfg['data_branch']}, only {len(source)} solutions found")
        data_locations = interior_grid_2d(cfg["data_per_axis"])
        truth = source[cfg["data_branch"] - 1].interpolate(data_locations)
        noise_draw = cfg["sigma"] * RngStream(cfg["seed"], 32).generator().standard_normal(len(truth))
        y = truth + noise_draw
    files = [_write_csv(out_dir, "data.csv", ["x1", "x2", "y"],
                        zip(data_locations[:, 0], data_locations[:, 1], y))]

    setup = ACInverseSetup(
        design=ac_design(cfg["interior_per_axis"], cfg["per_edge"]),
        data_locations=data_locations,
        cache=caches[cfg["grid_n"]],
    )
    for sol in setup.cache.solutions(cfg["delta0"]):
        # row-major u[j, i] sits at (x1, x2) = (coords[i], coords[j])
        files.append(_write_csv(
            out_dir, f"solutions_{sol.solution_index}.csv", ["x1", "x2", "u"],
            zip(np.tile(sol.coords, sol.n), np.repeat(sol.coords, sol.n), sol.u.ravel())))

    noise = NoiseModel.isotropic(cfg["sigma"], len(y))
    delta_prior = UniformPrior(*DELTA_RANGE)

    with _stage("pilot initialization", stage_s):
        init_delta = plugin_delta_scan(y, setup, noise, np.arange(0.025, 0.146, 0.01))
    with _stage("pseudo-marginal chain", stage_s):
        chain = pm_mcmc(
            y, delta_prior, HalfCauchyPrior(cfg["ell_prior_scale"]),
            cfg["m_particles"], cfg["n_steps"], RngStream(cfg["seed"], 33),
            setup=setup, noise=noise,
            step_scales=(cfg["delta_step"], cfg["logell_step"]),
            init=(init_delta, cfg["ell_init"], 1),
            noise_correlation=cfg["noise_correlation"],
        )
    files.append(_write_csv(out_dir, "chain.csv", chain.FIELDS, chain.rows()))

    with _stage("plug-in baseline chain", stage_s):
        plug = ac_plugin_mcmc(
            y, delta_prior, cfg["n_steps"], RngStream(cfg["seed"], 34),
            setup=setup, noise=noise, step_scale=cfg["delta_step"],
            init=(init_delta, 1),
        )
    files.append(_write_csv(out_dir, "chain_plugin.csv", plug.FIELDS, plug.rows()))
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

    os.makedirs(args.output_dir, exist_ok=True)
    t0, stage_s = time.monotonic(), {}
    try:
        files = RUNNERS[args.experiment](cfg, args.output_dir, stage_s)
    except StageFailure as exc:
        print(f"numerical failure in {exc}", file=sys.stderr)
        return 3
    files.append(_write_manifest(args.output_dir, args.experiment, cfg, files,
                                 time.monotonic() - t0, stage_s))
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
