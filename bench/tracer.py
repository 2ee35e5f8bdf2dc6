"""Span recorder for the traced benchmark run.

The tracer wraps, from outside the package, every public function that a
``pmm`` module defines, plus a few public methods named in ``METHODS``.
Each wrapper replaces the original in every ``pmm`` namespace (and every
module-level dict, such as the CLI's runner table) that binds it, so a
call through any import path is recorded. A name that no longer exists is
simply not wrapped: its metrics go missing instead of the run failing.

One span is recorded per call: id, parent id, name, thread, start, end and
two optional attributes read from the return value. The parent is the
enclosing span on the same thread (0 at a thread's root), so work done in a
thread pool is not charged to the span that submitted it. Spans are kept in
memory and written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
import sys
import threading
import time
import types

MODULES = ("linalg", "kernels", "forward", "problems", "inverse", "cli")

METHODS = {
    "forward": {"ForwardPosterior": ("mean", "cov", "cross_cov", "weights_for")},
    "problems": {"GridSolution": ("interpolate",)},
    "inverse": {"CoarseSolutionCache": ("solutions",)},
}

FIELDS = ("sid", "parent", "name", "thread", "t0", "t1", "a0", "a1")

NAN = float("nan")


def ess(x) -> float:
    """Effective sample size of a scalar chain (Geyer's initial monotone sequence)."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    n = x.size
    x = x - x.mean()
    var = float(x @ x) / n if n else 0.0
    if n < 4 or var == 0.0:
        return 0.0
    f = np.fft.rfft(x, 2 * n)
    rho = np.fft.irfft(f * np.conj(f))[:n] / (n * var)
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: stop[0] if stop.size else pairs.size]
    tau = -1.0 + 2.0 * float(np.sum(np.minimum.accumulate(pairs)))
    return n / max(tau, 1.0 / n)


# attribute readers: return value -> (a0, a1)
ATTRS = {
    "linalg.chol_jitter": lambda out: (out.n, out.jitter_used),
    "kernels.op_gram": lambda out: (out.size, NAN),
    "problems.ac_deflated_solve": lambda out: (len(out), NAN),
    "inverse.pm_mcmc": lambda out: (out.acceptance_rate, ess(out.delta)),
}


def _read_attrs(reader, out):
    # a refactor may change a return type; the span stays, the attribute goes
    try:
        a0, a1 = reader(out)
        return float(a0), float(a1)
    except (AttributeError, TypeError, ValueError):
        return NAN, NAN


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._records = array.array("d")
        self._sids = itertools.count(1)
        self._threads = itertools.count(0)
        self._local = threading.local()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        reader = ATTRS.get(name)
        records, local, sids, threads = self._records, self._local, self._sids, self._threads
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = [0]
                local.thread = next(threads)
            sid = next(sids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                records.extend((sid, parent, name_id, local.thread, t0, t1, NAN, NAN))
                raise
            t1 = clock()
            stack.pop()
            a0, a1 = _read_attrs(reader, out) if reader else (NAN, NAN)
            records.extend((sid, parent, name_id, local.thread, t0, t1, a0, a1))
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions and listed methods of the loaded pmm modules."""
        modules = {short: sys.modules.get(f"pmm.{short}") for short in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if isinstance(cls, type) else None
                    if isinstance(fn, types.FunctionType):
                        setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))
        namespaces = [sys.modules.get("pmm")] + list(modules.values())
        for ns in namespaces:
            if ns is None:
                continue
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(ns, attr, wrapped[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in obj.items():
                        if isinstance(val, types.FunctionType) and val in wrapped:
                            obj[key] = wrapped[val]

    def dump(self, path: str) -> None:
        """Write every recorded span, and the wrapped names, to an ``.npz`` file."""
        import numpy as np

        spans = np.frombuffer(self._records, dtype=float).reshape(-1, len(FIELDS))
        np.savez(path, spans=spans, names=np.array(self.names, dtype=str))


def load_spans(path: str):
    """Read a file written by :meth:`Tracer.dump`: (names, {field: column})."""
    import numpy as np

    with np.load(path) as data:
        spans, names = data["spans"], list(data["names"])
    return names, {f: spans[:, i] for i, f in enumerate(FIELDS)}


def summarize(traces) -> dict:
    """Per-name statistics over the spans of one or more processes.

    Returns ``{name: {"calls", "s", "self_s", "durations", "a0", "a1",
    "with_solve"}}`` for every wrapped name, called or not. ``with_solve``
    counts the spans that have an ``ac_deflated_solve`` span below them.
    """
    import numpy as np

    stats: dict = {}
    for names, cols in traces:
        sid = cols["sid"].astype(np.int64)
        parent = cols["parent"].astype(np.int64)
        name = cols["name"].astype(np.int64)
        dur = cols["t1"] - cols["t0"]
        index = np.zeros(int(sid.max(initial=0)) + 1, dtype=np.int64)
        index[sid] = np.arange(sid.size)
        child = np.zeros(sid.size)
        has_parent = parent > 0
        np.add.at(child, index[parent[has_parent]], dur[has_parent])
        self_time = dur - child
        below_solve = np.zeros(sid.size, dtype=bool)
        solve_ids = [i for i, n in enumerate(names) if n.endswith(".ac_deflated_solve")]
        for row in np.flatnonzero(np.isin(name, solve_ids)):
            p = parent[row]
            while p > 0 and not below_solve[index[p]]:
                below_solve[index[p]] = True
                p = parent[index[p]]
        for i, n in enumerate(names):
            rows = name == i
            s = stats.setdefault(n, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [],
                                     "a0": [], "a1": [], "with_solve": 0})
            s["calls"] += int(rows.sum())
            s["s"] += float(dur[rows].sum())
            s["self_s"] += float(self_time[rows].sum())
            s["durations"].extend(dur[rows].tolist())
            s["a0"].extend(cols["a0"][rows].tolist())
            s["a1"].extend(cols["a1"][rows].tolist())
            s["with_solve"] += int(below_solve[rows].sum())
    return stats


def finite(values) -> list:
    return [v for v in values if math.isfinite(v)]
