"""pmm benchmark: CLI workloads, end-to-end timings and a traced per-layer run.

Usage (from the repository root):

    python3 bench/run.py --workload linear-1d --seed 0 --seconds 30 --trace 0

Each workload is a closed loop of ``pmm`` CLI invocations, one process at a
time, each in a fresh interpreter (``bench/child.py``). A repetition runs
the workload's invocations once; repetitions repeat, with seeds derived
from ``--seed``, until ``--seconds`` have passed. Every invocation's
outputs are checked (``bench/checks.py``); an invocation that exits
non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates untraced and traced repetitions of the same
inputs and reports per-layer metrics from the spans of the traced ones
(``bench/tracer.py``), the import-time breakdown from ``-X importtime``,
and the tracing overhead. The last line of standard output is the result
JSON; the line before it records the environment, the checks and the CSV
fingerprints.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
from checks import check_outputs, fingerprints  # noqa: E402
from tracer import finite, load_spans, summarize  # noqa: E402

# A run must end within 180 s; a child still running at this point is killed.
DEADLINE_S = 170.0
# setup_s is the median of at least this many child imports per run.
MIN_SETUP_SAMPLES = 11
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PMM_THREADS")

_LINEAR_EXPECT = {
    "forward-demo": {"eval_points": 512, "m_values": [10, 40], "n_samples": 20},
    "converge": {"m_list": [5, 10, 20, 40, 80]},
    "inverse-1d": {"grid_n": 240, "m_list": [4, 8, 16]},
}
_AC_EXPECT = {"grid_n": 31, "data_per_axis": 4}
_DENSE_ARGS = ["--interior_per_axis", "8", "--per_edge", "8", "--m_particles", "64",
               "--n_steps", "2000", "--burn_in", "400"]

# workload -> [(experiment, extra CLI args, expected output sizes)]
WORKLOADS = {
    # Import and the linear 1D forward solver; bypasses Allen-Cahn and pm_loglik.
    "linear-1d": [(exp, [], expect) for exp, expect in _LINEAR_EXPECT.items()],
    # The paper's showcase at its default config: pm_loglik and deflated Newton.
    "allen-cahn": [("allen-cahn", [], {**_AC_EXPECT, "n_steps": 5000})],
    # Larger Gram (160 rows) and 64 particles: Cholesky and BLAS outweigh overhead.
    "allen-cahn-dense": [("allen-cahn", _DENSE_ARGS, {**_AC_EXPECT, "n_steps": 2000})],
}

IMPORT_MODULES = {
    "import.pmm_kernels_s": "pmm.kernels",
    "import.scipy_spatial_s": "scipy.spatial",
    "import.pmm_problems_s": "pmm.problems",
    "import.pmm_inverse_s": "pmm.inverse",
}

# traced name -> fields reported for it
LAYERS = {
    "linalg.chol_jitter": ("calls", "s", "p50_us", "p99_us", "jittered", "max_jitter",
                           "n_max", "flops", "gflops"),
    "linalg.psd_solve": ("calls", "s"),
    "linalg.mvn_logpdf": ("calls", "s"),
    "kernels.op_gram": ("calls", "s", "entries"),
    "kernels.fill_distance": ("calls", "s"),
    "forward.solve_forward": ("calls", "s", "self_s"),
    "forward.assemble_gram": ("calls", "s"),
    "forward.ForwardPosterior.mean": ("calls", "s"),
    "forward.ForwardPosterior.cov": ("calls", "s"),
    "forward.ForwardPosterior.cross_cov": ("calls", "s"),
    "forward.ForwardPosterior.weights_for": ("calls", "s"),
    "forward.sample_paths": ("s",),
    "forward.convergence_experiment": ("s",),
    "problems.ac_deflated_solve": ("calls", "s", "p50_ms", "branches_mean", "calls_lt3"),
    "problems.GridSolution.interpolate": ("calls", "s"),
    "inverse.pm_loglik": ("calls", "s", "self_s", "p50_ms", "p99_ms"),
    "inverse.pm_mcmc": ("s", "self_s", "acceptance", "ess_delta"),
    "inverse.ac_plugin_mcmc": ("s", "self_s"),
    "inverse.plugin_delta_scan": ("s",),
    "inverse.CoarseSolutionCache.solutions": ("calls", "hit_ratio"),
    "inverse.grid_posterior": ("calls", "s"),
    "inverse.pn_loglik": ("calls", "s"),
}

# percentile field -> (quantile, scale from seconds, unit)
PERCENTILES = {
    "p50_us": (0.50, 1e6, "us"),
    "p99_us": (0.99, 1e6, "us"),
    "p50_ms": (0.50, 1e3, "ms"),
    "p99_ms": (0.99, 1e3, "ms"),
}


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if values else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _field(field: str, st: dict):
    """(value, unit) of one reported field of a traced name's statistics."""
    d = st["durations"]
    n_rows = finite(st["a0"])
    if field == "calls":
        return st["calls"], "count"
    if field in ("s", "self_s"):
        return st[field], "s"
    if field in PERCENTILES:
        q, scale, unit = PERCENTILES[field]
        return _quantile(d, q) * scale, unit
    if field == "jittered":
        return sum(1 for j in finite(st["a1"]) if j > 0.0), "count"
    if field == "max_jitter":
        return max(finite(st["a1"]), default=0.0), "abs"
    if field == "n_max":
        return max(n_rows, default=0.0), "rows"
    if field == "flops":
        return sum(n**3 / 3.0 for n in n_rows), "flop_computed"
    if field == "gflops":
        flops = sum(n**3 / 3.0 for n in n_rows)
        return (flops / st["s"] / 1e9 if st["s"] > 0.0 else 0.0), "GFLOP/s"
    if field == "entries":
        return sum(n_rows), "count"
    if field == "branches_mean":
        return _mean(n_rows), "count"
    if field == "calls_lt3":
        return sum(1 for n in n_rows if n < 3), "count"
    if field == "acceptance":
        return _mean(n_rows), "ratio"
    if field == "ess_delta":
        return _mean(finite(st["a1"])), "samples"
    if field == "hit_ratio":
        return ((st["calls"] - st["with_solve"]) / st["calls"] if st["calls"] else 0.0), "ratio"
    raise KeyError(field)


def layer_metrics(stats: dict) -> dict:
    """Per-layer metrics of one traced repetition; names never wrapped are absent."""
    out = {}
    for name, fields in LAYERS.items():
        if name in stats:
            for field in fields:
                value, unit = _field(field, stats[name])
                out[f"{name}.{field}"] = (float(value), unit)
    for name, st in stats.items():
        if name.startswith("cli.run_"):
            out[f"cli.run.{name[len('cli.run_'):]}_s"] = (st["s"], "s")
    return out


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

class Runner:
    """Spawns children one at a time within the run's deadline."""

    def __init__(self, work: str, env: dict, start: float):
        self.work = work
        self.env = env
        self.start = start
        self.count = 0
        self._rep_start = None

    def _remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def more(self, seconds: float) -> bool:
        """Whether to start another repetition: always the first, then only
        while that ends the run nearer to ``seconds`` than stopping now."""
        now = time.perf_counter()
        if self._rep_start is None:
            self._rep_start = now
            return True
        last, self._rep_start = now - self._rep_start, now
        return now - self.start + last / 2 < seconds

    def spawn(self, argv: list, tag: str):
        """Run one child to completion: (wall seconds, return code, stderr tail)."""
        self.count += 1
        err_path = os.path.join(self.work, f"{self.count:04d}-{tag}.err")
        with open(err_path, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                rc = proc.wait(timeout=max(self._remaining(), 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = "timeout"
            wall = time.perf_counter() - t0
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        return wall, rc, tail

    def child(self, tag: str, cli_args=(), trace: bool = False) -> dict:
        """Run ``child.py``; returns its report plus wall time and any error."""
        result_path = os.path.join(self.work, f"{self.count + 1:04d}-{tag}.json")
        trace_path = result_path[:-5] + ".npz" if trace else "-"
        argv = [sys.executable, os.path.join(HERE, "child.py"), result_path,
                repr(time.time()), trace_path, *cli_args]
        wall, rc, tail = self.spawn(argv, tag)
        report = {"wall_s": wall, "rc": rc, "trace": trace_path if trace else None}
        try:
            with open(result_path, encoding="utf-8") as fh:
                report.update(json.load(fh))
        except (OSError, ValueError):
            report["error"] = f"exit {rc}, no report: {tail}"
            return report
        if rc != 0:
            report["error"] = f"exit {rc}: {tail}"
        elif not os.path.realpath(report["pmm_file"]).startswith(os.path.realpath(SRC) + os.sep):
            report["error"] = f"imported pmm from {report['pmm_file']}, not from {SRC}"
        return report

    def import_times(self) -> dict:
        """Cumulative import seconds of the tracked modules, from ``-X importtime``."""
        wall, rc, tail = self.spawn([sys.executable, "-X", "importtime", "-c", "import pmm.cli"],
                                    "importtime")
        if rc != 0:
            raise RuntimeError(f"import pmm.cli failed: {tail}")
        with open(os.path.join(self.work, f"{self.count:04d}-importtime.err"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cumulative = {}
        for line in lines:
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        return {key: cumulative.get(mod, 0.0) for key, mod in IMPORT_MODULES.items()}


def run_rep(runner: Runner, workload: str, seed: int, rep: int, log: dict,
            trace: bool = False, reference=None):
    """One repetition: every invocation of the workload, with its checks.

    ``reference`` holds the CSV fingerprints of an untraced repetition of
    the same inputs, which a traced one must reproduce.
    """
    cli_seed = seed + 1000 * rep
    reports = []
    for i, (experiment, extra, expect) in enumerate(WORKLOADS[workload]):
        tag = f"r{rep}-{'t' if trace else 'u'}-{experiment}"
        out_dir = os.path.join(runner.work, tag)
        report = runner.child(tag, [experiment, "--seed", str(cli_seed), "--output-dir", out_dir, *extra],
                              trace=trace)
        errors = [report["error"]] if "error" in report else check_outputs(experiment, out_dir, expect)
        report["fingerprints"] = {"seed": cli_seed, **fingerprints(out_dir)}
        if not errors and reference is not None and report["fingerprints"] != reference[i]:
            errors.append("traced run wrote different CSVs than the untraced run")
        log["attempted"] += 1
        log["failed"] += bool(errors)
        if errors:
            log["errors"][tag] = errors
        log["fingerprints"][tag] = report["fingerprints"]
        shutil.rmtree(out_dir, ignore_errors=True)
        reports.append(report)
    return reports


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_commit():
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pmm")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(child_env: dict) -> dict:
    from importlib import metadata

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas_name,
        "nproc": _nproc(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "child_threads": {k: child_env[k] for k in THREAD_VARS},
    }


def child_environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = env["MKL_NUM_THREADS"] = "1"
    env["PMM_THREADS"] = "1"
    return env


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def _rep_totals(reports):
    return (sum(r["wall_s"] for r in reports),
            sum(r.get("compute_s", 0.0) for r in reports))


def measure(runner: Runner, workload: str, seed: int, seconds: int, log: dict) -> dict:
    """Untraced repetitions until ``seconds`` pass: the end-to-end metrics."""
    walls, computes, setups, rss = [], [], [], []
    rep = 0
    while runner.more(seconds):
        reports = run_rep(runner, workload, seed, rep, log)
        wall, compute = _rep_totals(reports)
        walls.append(wall)
        computes.append(compute)
        setups += [r["setup_s"] for r in reports if "setup_s" in r]
        rss += [r["maxrss_kb"] for r in reports if "maxrss_kb" in r]
        rep += 1
    while len(setups) < MIN_SETUP_SAMPLES:
        probe = runner.child("import")
        if "error" in probe:
            raise RuntimeError(f"import probe failed: {probe['error']}")
        setups.append(probe["setup_s"])
    log["rep_wall_s"] = walls
    log["rep_compute_s"] = computes
    log["setup_samples"] = setups
    return {
        "wall_s": (statistics.median(walls), "s"),
        "compute_s": (statistics.median(computes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rss, default=0) / 1024.0, "MB"),
    }


def measure_traced(runner: Runner, workload: str, seed: int, seconds: int, log: dict) -> dict:
    """Untraced and traced repetitions of the same inputs: the per-layer metrics."""
    imports = [runner.import_times() for _ in range(3)]
    per_rep, untraced, traced = [], [], []
    rep = 0
    while runner.more(seconds):
        plain = run_rep(runner, workload, seed, rep, log)
        reports = run_rep(runner, workload, seed, rep, log, trace=True,
                          reference=[r["fingerprints"] for r in plain])
        untraced.append(_rep_totals(plain)[0])
        traced.append(_rep_totals(reports)[0])
        traces = [load_spans(r["trace"]) for r in reports if "error" not in r]
        per_rep.append(layer_metrics(summarize(traces)))
        log["spans"] = log.get("spans", 0) + sum(len(cols["sid"]) for _, cols in traces)
        rep += 1
    log["rep_wall_s"] = {"untraced": untraced, "traced": traced}
    metrics = {}
    for key in IMPORT_MODULES:
        metrics[key] = (statistics.median(i[key] for i in imports), "s")
    for key in per_rep[0]:
        values = [m[key][0] for m in per_rep if key in m]
        metrics[key] = (statistics.median(values), per_rep[0][key][1])
    metrics["tracing.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not os.path.isfile(os.path.join(SRC, "pmm", "cli.py")):
        print(f"error: no pmm sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    work = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = child_environment()
    runner = Runner(work, env, start)
    log = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "attempted": 0, "failed": 0, "errors": {}, "fingerprints": {}}
    try:
        warm = runner.child("warmup")  # compiles bytecode, so no run pays for it
        if "error" in warm:
            print(f"error: import pmm.cli failed: {warm['error']}", file=sys.stderr)
            return 1
        if args.trace:
            metrics = measure_traced(runner, args.workload, args.seed, args.seconds, log)
        else:
            metrics = measure(runner, args.workload, args.seed, args.seconds, log)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    log["elapsed_s"] = time.perf_counter() - start
    log["environment"] = environment(env)
    for tag, errors in log["errors"].items():
        print(f"check failed: {tag}: {'; '.join(errors)}", file=sys.stderr)
    print(json.dumps(log, sort_keys=True))
    result = {
        "correct": log["failed"] == 0,
        "attempted": log["attempted"],
        "failed": log["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
