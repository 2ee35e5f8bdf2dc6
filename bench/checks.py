"""Output checks and fingerprints for the CLI experiments the benchmark runs.

Each check returns a list of failure messages (empty when the outputs are
right) for one experiment's output directory. Fingerprints are the sha256
of every CSV; they are reported, not gated, so a refactor that changes
results is visible.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _read_csv(path: str):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _table(errors: list, out_dir: str, name: str, rows: int, cols: int, allow_nan=()):
    """Load one CSV and check its shape and finiteness; None if it is unusable."""
    path = os.path.join(out_dir, name)
    if not os.path.isfile(path):
        errors.append(f"{name}: missing")
        return None
    try:
        header, data = _read_csv(path)
    except ValueError as exc:
        errors.append(f"{name}: unreadable ({exc})")
        return None
    if data.shape != (rows, cols) or len(header) != cols:
        errors.append(f"{name}: shape {data.shape}, header {len(header)}, expected ({rows}, {cols})")
        return None
    checked = [i for i, h in enumerate(header) if h not in allow_nan]
    if not np.all(np.isfinite(data[:, checked])):
        errors.append(f"{name}: non-finite values")
    return dict(zip(header, data.T))


def _check_forward_demo(errors, out_dir, cfg):
    _table(errors, out_dir, "mean_cov.csv", cfg["eval_points"], 1 + 2 * len(cfg["m_values"]))
    _table(errors, out_dir, "samples.csv", cfg["eval_points"], 1 + cfg["n_samples"])


def _check_converge(errors, out_dir, cfg):
    t = _table(errors, out_dir, "convergence.csv", len(cfg["m_list"]), 4)
    if t is not None:
        err = t["err_l2_rel"][np.argsort(t["m"])]
        if not np.all(np.diff(err) < 0.0):
            errors.append(f"convergence.csv: err_l2_rel does not fall as m grows: {err.tolist()}")


def _check_inverse_1d(errors, out_dir, cfg):
    for name in ("posterior_pmm.csv", "posterior_plugin.csv"):
        t = _table(errors, out_dir, name, cfg["grid_n"], 1 + len(cfg["m_list"]))
        if t is None:
            continue
        theta = t.pop("theta")
        for col, dens in t.items():
            mass = float(_trapezoid(dens, theta))
            if not abs(mass - 1.0) < 1e-6:
                errors.append(f"{name}: {col} integrates to {mass!r}, not 1")


def _check_allen_cahn(errors, out_dir, cfg):
    sols = sorted(glob.glob(os.path.join(out_dir, "solutions_*.csv")))
    if len(sols) != 3:
        errors.append(f"allen-cahn wrote {len(sols)} solutions_*.csv files, expected 3")
    for path in sols:
        _table(errors, out_dir, os.path.basename(path), cfg["grid_n"] ** 2, 3)
    _table(errors, out_dir, "data.csv", cfg["data_per_axis"] ** 2, 3)
    # the plug-in chain has no lengthscale coordinate and writes NaN for it
    for name, allow in (("chain.csv", ()), ("chain_plugin.csv", ("ell",))):
        t = _table(errors, out_dir, name, cfg["n_steps"], 6, allow_nan=allow)
        if t is None:
            continue
        if not np.all((t["j"] >= 1) & (t["j"] <= 3)):
            errors.append(f"{name}: j leaves 1..3")
        if not np.mean(t["accepted"]) > 0.0:
            errors.append(f"{name}: no proposal accepted")


CHECKS = {
    "forward-demo": _check_forward_demo,
    "converge": _check_converge,
    "inverse-1d": _check_inverse_1d,
    "allen-cahn": _check_allen_cahn,
}


def check_outputs(experiment: str, out_dir: str, expect: dict) -> list:
    """Failure messages for one CLI run, given the sizes its configuration implies."""
    errors: list = []
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"manifest.json: {exc}"]
    if manifest.get("experiment") != experiment:
        return [f"manifest.json is for {manifest.get('experiment')!r}"]
    CHECKS[experiment](errors, out_dir, expect)
    return errors


def fingerprints(out_dir: str) -> dict:
    """sha256 of every CSV in an output directory, keyed by file name."""
    out = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out
