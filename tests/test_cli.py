import json
import os

import numpy as np
import pytest

import pmm.cli
import pmm.inverse
import pmm.linalg
from pmm.cli import (
    POSITIVE,
    SCHEMAS,
    ConfigError,
    _collect_overrides,
    _parse_config,
    _validate,
    main,
    run_inverse_1d,
)
from pmm.forward import ForwardPosterior, interior_grid_2d
from pmm.inverse import CoarseSolutionCache
from pmm.problems import SolveFailed

FAST_AC = [
    "--n_steps", "40", "--burn_in", "10", "--m_particles", "4",
    "--data_per_axis", "2", "--interior_per_axis", "3", "--per_edge", "3",
]

# (experiment, key, least) for every key that SCHEMAS bounds
BOUNDED = [(experiment, key, spec[2]) for experiment, schema in SCHEMAS.items()
           for key, spec in schema.items() if spec[2] is not None]


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfig:
    def test_defaults(self):
        cfg = _parse_config("converge", None, {})
        assert cfg["m_list"] == [5, 10, 20, 40, 80]
        assert cfg["kernel"] == "sqexp"
        # each parse holds its own copy of a list default
        cfg["m_list"].append(160)
        assert _parse_config("converge", None, {})["m_list"] == [5, 10, 20, 40, 80]

    @pytest.mark.parametrize("experiment", sorted(SCHEMAS))
    def test_schema_defaults_pass_validation(self, experiment):
        _validate(experiment, {key: spec[1] for key, spec in SCHEMAS[experiment].items()})

    @pytest.mark.parametrize("experiment", sorted(SCHEMAS))
    def test_every_key_at_its_least_value_accepted(self, experiment):
        at_least = {key: "1e-300" if least is POSITIVE else str(least)
                    for exp, key, least in BOUNDED if exp == experiment}
        _parse_config(experiment, None, at_least)

    @pytest.mark.parametrize("experiment,key,least", BOUNDED,
                             ids=[f"{exp}-{key}" for exp, key, _ in BOUNDED])
    def test_value_past_least_rejected(self, tmp_path, capsys, experiment, key, least):
        out = tmp_path / "out"
        past = 0.0 if least is POSITIVE else least - 1
        assert main([experiment, "--output-dir", str(out), f"--{key}", str(past)]) == 2
        assert f"config error: {key} " in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            _parse_config("converge", None, {"bogus": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            _parse_config("converge", None, {"eval_points": "many"})

    def test_kernel_validated(self):
        with pytest.raises(ConfigError):
            _parse_config("forward-demo", None, {"kernel": "matern"})

    def test_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 7\nm_list = 5,10\n# comment\n")
        cfg = _parse_config("converge", str(cfg_file), {})
        assert cfg["seed"] == 7
        assert cfg["m_list"] == [5, 10]

    @pytest.mark.parametrize("experiment,flag,value", [
        ("inverse-1d", "sigma", "1e-3"),
        ("converge", "seed", "-3"),
        ("converge", "m-list", "5,10"),
    ])
    def test_equals_form_matches_space_form(self, experiment, flag, value):
        # only the key's dashes become underscores, never the value's
        joined = _parse_config(experiment, None, _collect_overrides([f"--{flag}={value}"]))
        spaced = _parse_config(experiment, None, _collect_overrides([f"--{flag}", value]))
        assert joined == spaced != _parse_config(experiment, None, {})

    def test_cli_exit_code_on_config_error(self, tmp_path):
        code = main(["converge", "--output-dir", str(tmp_path), "--bogus", "1"])
        assert code == 2

    @pytest.mark.parametrize("experiment,args", [
        ("forward-demo", ["--m_values", "0"]),
        ("forward-demo", ["--m_values", ""]),
        ("converge", ["--m_list", ""]),
        ("converge", ["--m_list", "10,5"]),
        ("converge", ["--m_list", "5,5"]),
        ("inverse-1d", ["--m_list", "8,4"]),
        ("inverse-1d", ["--m_list", "0,4"]),
        ("inverse-1d", ["--grid_n", "10"]),
        ("allen-cahn", ["--grid_n", "8"]),
        ("allen-cahn", ["--data_grid_n", "15"]),
        ("allen-cahn", ["--m_particles", "0"]),
        ("allen-cahn", ["--noise_correlation", "1"]),
        ("allen-cahn", ["--noise_correlation", "-0.1"]),
        ("allen-cahn", ["--interior_per_axis", "0"]),
        ("allen-cahn", ["--per_edge", "0"]),
        ("allen-cahn", ["--data_per_axis", "0"]),
        ("allen-cahn", ["--data_branch", "0"]),
        ("forward-demo", ["--kernel", "greens"]),
        ("forward-demo", ["--eval_points", "0"]),
        ("forward-demo", ["--n_samples", "0"]),
        ("converge", ["--theta", "0"]),
        ("converge", ["--eval_points", "2"]),
        ("inverse-1d", ["--prior_lo", "2", "--prior_hi", "1"]),
        ("inverse-1d", ["--theta0", "-1"]),
        ("inverse-1d", ["--locations", "0.25,1.5"]),
        ("allen-cahn", ["--ell_init", "0"]),
        ("allen-cahn", ["--ell_prior_scale", "0"]),
        ("allen-cahn", ["--n_steps", "0", "--burn_in", "-1"]),
        ("allen-cahn", ["--n_steps", "20", "--burn_in", "-5"]),
        ("forward-demo", ["--m_values", "10,10"]),
    ])
    def test_out_of_range_value_rejected_before_any_solve(self, tmp_path, experiment, args):
        out = tmp_path / "out"
        assert main([experiment, "--output-dir", str(out), *args]) == 2
        assert not out.exists()


class TestForwardDemo:
    def test_outputs(self, tmp_path):
        out = str(tmp_path)
        code = main(["forward-demo", "--output-dir", out, "--eval_points", "64"])
        assert code == 0
        header, rows = read_csv(os.path.join(out, "samples.csv"))
        assert header[0] == "x"
        assert len(header) == 21  # x plus 20 sample columns
        assert len(rows) == 64
        header, rows = read_csv(os.path.join(out, "mean_cov.csv"))
        assert header == ["x", "mean_m10", "var_m10", "mean_m40", "var_m40"]
        # nested designs: pointwise variance shrinks, up to the jitter floor
        var10 = np.array([float(r[2]) for r in rows])
        var40 = np.array([float(r[4]) for r in rows])
        assert np.all(var40 <= var10 + 1e-8)
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["experiment"] == "forward-demo"
        assert manifest["config"]["eval_points"] == 64

    def test_covariance_formed_only_for_sampling(self, tmp_path, monkeypatch):
        # the var_m* columns come from ForwardPosterior.var; only sample_paths
        # needs the eval_points-square matrix
        calls = []
        cov = ForwardPosterior.cov
        monkeypatch.setattr(ForwardPosterior, "cov",
                            lambda self, X: calls.append(len(X)) or cov(self, X))
        assert main(["forward-demo", "--output-dir", str(tmp_path), "--eval_points", "64"]) == 0
        assert calls == [64]

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["forward-demo", "--output-dir", str(out),
                  "--eval_points", "32", "--seed", "3"])
        assert file_bytes(a / "samples.csv") == file_bytes(b / "samples.csv")
        assert file_bytes(a / "mean_cov.csv") == file_bytes(b / "mean_cov.csv")


class TestConverge:
    def test_outputs_and_monotonicity(self, tmp_path):
        out = str(tmp_path)
        code = main(["converge", "--output-dir", out,
                     "--m_list", "5,10,20", "--eval_points", "128"])
        assert code == 0
        header, rows = read_csv(os.path.join(out, "convergence.csv"))
        assert header == ["m", "h", "err_l2_rel", "cov_trace"]
        errs = [float(r[2]) for r in rows]
        traces = [float(r[3]) for r in rows]
        assert errs == sorted(errs, reverse=True)
        assert traces == sorted(traces, reverse=True)

    def test_matern72_defaults_error_non_increasing(self, tmp_path):
        out = str(tmp_path)
        assert main(["converge", "--output-dir", out, "--kernel", "matern72"]) == 0
        _, rows = read_csv(os.path.join(out, "convergence.csv"))
        errs = [float(r[2]) for r in rows]
        assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_uniform_h_column(self, tmp_path):
        out = str(tmp_path)
        main(["converge", "--output-dir", out, "--design", "uniform",
              "--m_list", "5,10", "--eval_points", "64"])
        _, rows = read_csv(os.path.join(out, "convergence.csv"))
        for r in rows:
            m, h = int(r[0]), float(r[1])
            assert h == pytest.approx(0.5 / (m + 1), abs=2e-4)


class TestInverse1D:
    def test_outputs(self, tmp_path):
        out = str(tmp_path)
        code = main(["inverse-1d", "--output-dir", out,
                     "--m_list", "4,8", "--grid_n", "60"])
        assert code == 0
        header, rows = read_csv(os.path.join(out, "posterior_pmm.csv"))
        assert header == ["theta", "density_m4", "density_m8"]
        assert len(rows) == 60
        header, _ = read_csv(os.path.join(out, "posterior_plugin.csv"))
        assert header == ["theta", "density_m4", "density_m8"]
        # densities normalized to unit integral
        grid = np.array([float(r[0]) for r in rows])
        dens = np.array([float(r[1]) for r in rows])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_one_forward_solve_per_design_size(self, tmp_path, monkeypatch):
        solve_forward, calls = pmm.cli.solve_forward, []

        def counting(*args, **kwargs):
            calls.append(None)
            return solve_forward(*args, **kwargs)

        monkeypatch.setattr(pmm.cli, "solve_forward", counting)
        cfg = _parse_config("inverse-1d", None, {"m_list": "4,8,16", "grid_n": "60"})
        run_inverse_1d(cfg, str(tmp_path), {})
        assert len(calls) == len(cfg["m_list"]) == 3

    def test_one_factor_per_design_size_and_likelihood(self, tmp_path, monkeypatch):
        # every likelihood factors its covariance in mvn_logpdf, once for the whole grid
        chol, calls = pmm.linalg.chol_jitter, []

        def counting(m):
            calls.append(len(m))
            return chol(m)

        monkeypatch.setattr(pmm.linalg, "chol_jitter", counting)
        cfg = _parse_config("inverse-1d", None, {"m_list": "4,8,16", "grid_n": "60"})
        run_inverse_1d(cfg, str(tmp_path), {})
        assert calls == [2] * (2 * len(cfg["m_list"]))

    def test_nan_likelihood_names_its_stage(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pmm.cli, "generate_data",
                            lambda theta, x, sigma, rng: np.full(len(x), np.nan))
        out = str(tmp_path)
        assert main(["inverse-1d", "--output-dir", out, "--grid_n", "60"]) == 3
        err = capsys.readouterr().err
        assert "stage 'grid posteriors'" in err and "FloatingPointError" in err
        assert not os.path.exists(os.path.join(out, "posterior_pmm.csv"))


class TestAllenCahn:
    def test_outputs(self, tmp_path):
        out = str(tmp_path)
        code = main(["allen-cahn", "--output-dir", out, *FAST_AC])
        assert code == 0
        for idx in (1, 2, 3):
            header, rows = read_csv(os.path.join(out, f"solutions_{idx}.csv"))
            assert header == ["x1", "x2", "u"]
            assert len(rows) == 31 * 31
        header, rows = read_csv(os.path.join(out, "chain.csv"))
        assert header == ["step", "delta", "ell", "j", "log_estimate", "accepted"]
        assert len(rows) == 40
        deltas = np.array([float(r[1]) for r in rows])
        assert np.all((deltas > 0.02) & (deltas < 0.15))
        header, rows = read_csv(os.path.join(out, "chain_plugin.csv"))
        assert len(rows) == 40
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert "noise_sigma" in manifest["metadata"]

    def test_manifest_times_each_stage(self, tmp_path):
        out = str(tmp_path)
        assert main(["allen-cahn", "--output-dir", out, *FAST_AC]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        stage_s = manifest["diagnostics"]["stage_s"]
        assert sorted(stage_s) == sorted([
            "coarse solution table", "data generation", "pilot initialization",
            "pseudo-marginal chain", "plug-in baseline chain"])
        assert all(t >= 0.0 for t in stage_s.values())
        assert sum(stage_s.values()) <= manifest["wall_time_s"]

    def test_burn_in_changes_no_csv(self, tmp_path):
        # both chain files hold every step; burn_in is only recorded (FAST_AC
        # sets it to 10, and a later --burn_in overrides an earlier one)
        short, long = tmp_path / "burn10", tmp_path / "burn30"
        assert main(["allen-cahn", "--output-dir", str(short), *FAST_AC]) == 0
        assert main(["allen-cahn", "--output-dir", str(long), *FAST_AC, "--burn_in", "30"]) == 0
        csvs = sorted(p for p in os.listdir(short) if p.endswith(".csv"))
        assert csvs == sorted(p for p in os.listdir(long) if p.endswith(".csv"))
        assert "chain.csv" in csvs and "chain_plugin.csv" in csvs
        for name in csvs:
            assert file_bytes(short / name) == file_bytes(long / name), name
        burn_ins = [json.load(open(d / "manifest.json"))["config"]["burn_in"] for d in (short, long)]
        assert burn_ins == [10, 30]

    def test_data_truth_is_seed_free(self, tmp_path):
        # at delta0 = 0.021 a cold deflated solve misses the -1 branch; for
        # every seed, the data minus the seed's noise draw (stream 32) is
        # branch 1 of the table's continuation step to delta0
        sigma = SCHEMAS["allen-cahn"]["sigma"][1]
        truth = CoarseSolutionCache(31, 0.002).solve_at(0.021)[0].interpolate(interior_grid_2d(2))
        for seed in range(5):
            out = tmp_path / str(seed)
            assert main(["allen-cahn", "--output-dir", str(out), "--seed", str(seed),
                         "--delta0", "0.021", *FAST_AC]) == 0
            y = np.array([float(r[2]) for r in read_csv(out / "data.csv")[1]])
            noise = sigma * pmm.linalg.RngStream(seed, 32).generator().standard_normal(len(y))
            np.testing.assert_allclose(y - noise, truth, rtol=0.0, atol=1e-15)

    def test_coarse_data_grid(self, tmp_path):
        out = tmp_path / "out"
        assert main(["allen-cahn", "--output-dir", str(out), "--data_grid_n", "16", *FAST_AC]) == 0
        assert len(read_csv(out / "data.csv")[1]) == 4

    def test_missing_data_branch_is_a_numerical_failure(self, tmp_path, capsys):
        # the data solve finds three branches; a fourth and beyond do not exist
        out = str(tmp_path)
        code = main(["allen-cahn", "--output-dir", out, *FAST_AC, "--data_branch", "7"])
        assert code == 3
        err = capsys.readouterr().err
        assert "stage 'data generation'" in err and "SolutionIndexOutOfRange" in err
        assert not os.path.exists(os.path.join(out, "data.csv"))

    def test_coarse_table_failure_names_its_stage(self, tmp_path, capsys, monkeypatch):
        def fail(delta, *args, **kwargs):
            raise SolveFailed(f"no Allen-Cahn solution converged at delta={delta}")

        monkeypatch.setattr(pmm.inverse, "ac_deflated_solve", fail)
        out = str(tmp_path)
        assert main(["allen-cahn", "--output-dir", out, *FAST_AC]) == 3
        err = capsys.readouterr().err
        assert "stage 'coarse solution table'" in err and "SolveFailed" in err
        assert not os.path.exists(os.path.join(out, "chain.csv"))


class TestManifestRerun:
    @pytest.mark.parametrize("experiment,args", [
        ("forward-demo", ["--eval_points", "32"]),
        ("converge", ["--m_list", "5,10", "--eval_points", "64"]),
        ("inverse-1d", ["--m_list", "4", "--grid_n", "60"]),
        ("allen-cahn", FAST_AC),
    ])
    def test_rerun_byte_identical(self, tmp_path, experiment, args):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main([experiment, "--output-dir", str(first), "--seed", "5", *args]) == 0
        manifest = str(first / "manifest.json")
        assert main([experiment, "--output-dir", str(second),
                     "--from-manifest", manifest]) == 0
        csvs = sorted(p for p in os.listdir(first) if p.endswith(".csv"))
        assert csvs
        for name in csvs:
            assert file_bytes(first / name) == file_bytes(second / name), name

    @pytest.mark.parametrize("text", ["{not json", '{"experiment": "converge"}', "[1, 2]"],
                             ids=["not-json", "no-config", "list"])
    def test_malformed_manifest_is_a_config_error(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["converge", "--output-dir", str(out), "--from-manifest", str(manifest)]) == 2
        assert str(manifest) in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_with_removed_key_is_refused(self, tmp_path, capsys):
        # a forward-demo manifest written while the Green's kernel existed
        first = tmp_path / "first"
        assert main(["forward-demo", "--output-dir", str(first), "--eval_points", "32"]) == 0
        path = first / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["config"]["quadrature_nodes"] = 512
        path.write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["forward-demo", "--output-dir", str(out), "--from-manifest", str(path)]) == 2
        assert "quadrature_nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_experiment_mismatch(self, tmp_path):
        out = tmp_path / "out"
        main(["converge", "--output-dir", str(out), "--m_list", "5,10",
              "--eval_points", "64"])
        code = main(["forward-demo", "--output-dir", str(tmp_path / "x"),
                     "--from-manifest", str(out / "manifest.json")])
        assert code == 2

