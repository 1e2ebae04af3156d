"""Per-layer tracing from outside the program.

`Tracer.install` replaces each layer's public boundary function by a timing
wrapper at every place the function is bound: its own module, the package
namespace and every module that did `from .x import name`. Spans nest
through a stack, so a layer's self time is its span time minus the time of
the spans it called. Cache hits are read from the size of the program's
matrix caches before and after each call. Everything is kept in memory and
summarised by `metrics` when the run ends.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (span name, defining module, function); several functions may share a span
SPANS = (
    ("kernels.eval_kernel_batch", "fracldp.kernels", "eval_kernel_batch"),
    ("kernels.operator_matrix", "fracldp.kernels", "operator_matrix"),
    ("paths.stable_cholesky", "fracldp.paths", "_stable_cholesky"),
    ("paths.fbm_covariance", "fracldp.paths", "fbm_covariance"),
    ("model.joint_cholesky", "fracldp.model", "_joint_bm_fbm_cholesky"),
    ("model.simulate", "fracldp.model", "simulate"),
    ("rates.solve", "fracldp.rates", "solve"),
    ("smile.mc_smile", "fracldp.smile", "mc_smile"),
    ("smile.bs_implied_vol", "fracldp.smile", "bs_implied_vol"),
    ("smile.limits", "fracldp.smile", "tail_smile_slope"),
    ("smile.limits", "fracldp.smile", "smalltime_smile"),
    ("smile.limits", "fracldp.smile", "forward_smile"),
    ("cli.run", "fracldp.cli", "run"),
    ("cli.validate_config", "fracldp.cli", "validate_config"),
)

# counted without a span, so their time stays in the caller's self time
COUNTED = (
    ("rates.equality_solve", "fracldp.rates", "_solve_equality"),
    ("rates.objective", "fracldp.rates", "penalized_objective"),
)

# name -> unit, better; the order in which the traced run reports them
PER_LAYER = {
    "kernels.eval_kernel_batch.calls": ("count", "lower"),
    "kernels.eval_kernel_batch.points": ("count", "lower"),
    "kernels.eval_kernel_batch.self_s": ("s", "lower"),
    "kernels.operator_matrix.calls": ("count", "lower"),
    "kernels.operator_matrix.hit_ratio": ("ratio", "higher"),
    "kernels.operator_matrix.self_s": ("s", "lower"),
    "paths.stable_cholesky.calls": ("count", "lower"),
    "paths.stable_cholesky.self_s": ("s", "lower"),
    "paths.fbm_covariance.self_s": ("s", "lower"),
    "model.joint_cholesky.calls": ("count", "lower"),
    "model.joint_cholesky.hit_ratio": ("ratio", "higher"),
    "model.joint_cholesky.self_s": ("s", "lower"),
    "model.simulate.calls": ("count", "lower"),
    "model.simulate.paths": ("count", "lower"),
    "model.simulate.self_s": ("s", "lower"),
    "rates.solve.calls": ("count", "lower"),
    "rates.solve.self_s": ("s", "lower"),
    "rates.equality_solves": ("count", "lower"),
    "rates.lbfgs_iters": ("count", "lower"),
    "rates.objective_evals": ("count", "lower"),
    "rates.converged_ratio": ("ratio", "higher"),
    "rates.kkt_max": ("residual", "lower"),
    "smile.mc_smile.self_s": ("s", "lower"),
    "smile.bs_implied_vol.calls": ("count", "lower"),
    "smile.bs_implied_vol.self_s": ("s", "lower"),
    "smile.censored_ratio": ("ratio", "lower"),
    "smile.limits.self_s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.validate_config.self_s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.count = defaultdict(float)
        self.kkt_max = 0.0
        self._stack = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, before, after):
        def wrapper(*args, **kwargs):
            token = before() if before else None
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.child[name] += self._stack.pop()
                self.total[name] += dt
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1] += dt
            if after:
                after(out, token)
            return out

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, name):
        """(before, after) callbacks that record the counts of one boundary."""
        mods = sys.modules
        if name == "kernels.eval_kernel_batch":
            return None, lambda out, _: self._add("kernels.eval_kernel_batch.points", out.size)
        if name == "kernels.operator_matrix":
            cache = mods["fracldp.kernels"]._matrix_cache
            return (lambda: len(cache),
                    lambda out, n0: self._add("kernels.operator_matrix.hits", len(cache) == n0))
        if name == "model.joint_cholesky":
            cache = mods["fracldp.model"]._joint_chol_cache
            return (lambda: len(cache),
                    lambda out, n0: self._add("model.joint_cholesky.hits", len(cache) == n0))
        if name == "model.simulate":
            return None, lambda out, _: self._add("model.simulate.paths", out[0].n_paths)
        if name == "rates.solve":
            return None, self._solve_done
        if name == "smile.mc_smile":
            return None, self._smile_done
        return None, None

    def _add(self, key, value):
        self.count[key] += value

    def _solve_done(self, res, _):
        self._add("rates.converged", bool(res.converged))
        self._add("rates.lbfgs_iters", res.iterations)
        if math.isfinite(res.kkt_residual):
            self.kkt_max = max(self.kkt_max, res.kkt_residual)

    def _smile_done(self, points, _):
        self._add("smile.points", len(points))
        self._add("smile.censored", sum(bool(p.censored) for p in points))

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every boundary in every loaded fracldp module."""
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "fracldp" or n.startswith("fracldp.")) and m is not None]
        targets = [(n, mod, fn, True) for n, mod, fn in SPANS]
        targets += [(n, mod, fn, False) for n, mod, fn in COUNTED]
        for name, modname, fname, timed in targets:
            if modname not in sys.modules:
                continue
            orig = getattr(sys.modules[modname], fname)
            wrapped = self._span(name, orig, *self._hooks(name)) if timed else self._counted(name, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)

    # -- summary -----------------------------------------------------------

    def self_s(self, name):
        return self.total[name] - self.child[name]

    def metrics(self) -> dict:
        """Every per-layer metric that the traced process itself can see;
        the runner adds `cli.csv_bytes` and `trace.overhead_s`."""

        def ratio(num, den):
            return num / den if den else 0.0

        c, n = self.calls, self.count
        values = {
            "kernels.eval_kernel_batch.calls": c["kernels.eval_kernel_batch"],
            "kernels.eval_kernel_batch.points": n["kernels.eval_kernel_batch.points"],
            "kernels.eval_kernel_batch.self_s": self.self_s("kernels.eval_kernel_batch"),
            "kernels.operator_matrix.calls": c["kernels.operator_matrix"],
            "kernels.operator_matrix.hit_ratio": ratio(n["kernels.operator_matrix.hits"],
                                                       c["kernels.operator_matrix"]),
            "kernels.operator_matrix.self_s": self.self_s("kernels.operator_matrix"),
            "paths.stable_cholesky.calls": c["paths.stable_cholesky"],
            "paths.stable_cholesky.self_s": self.self_s("paths.stable_cholesky"),
            "paths.fbm_covariance.self_s": self.self_s("paths.fbm_covariance"),
            "model.joint_cholesky.calls": c["model.joint_cholesky"],
            "model.joint_cholesky.hit_ratio": ratio(n["model.joint_cholesky.hits"],
                                                    c["model.joint_cholesky"]),
            "model.joint_cholesky.self_s": self.self_s("model.joint_cholesky"),
            "model.simulate.calls": c["model.simulate"],
            "model.simulate.paths": n["model.simulate.paths"],
            "model.simulate.self_s": self.self_s("model.simulate"),
            "rates.solve.calls": c["rates.solve"],
            "rates.solve.self_s": self.self_s("rates.solve"),
            "rates.equality_solves": c["rates.equality_solve"],
            "rates.lbfgs_iters": n["rates.lbfgs_iters"],
            "rates.objective_evals": c["rates.objective"],
            "rates.converged_ratio": ratio(n["rates.converged"], c["rates.solve"]),
            "rates.kkt_max": self.kkt_max,
            "smile.mc_smile.self_s": self.self_s("smile.mc_smile"),
            "smile.bs_implied_vol.calls": c["smile.bs_implied_vol"],
            "smile.bs_implied_vol.self_s": self.self_s("smile.bs_implied_vol"),
            "smile.censored_ratio": ratio(n["smile.censored"], n["smile.points"]),
            "smile.limits.self_s": self.self_s("smile.limits"),
            "cli.run.self_s": self.self_s("cli.run"),
            "cli.validate_config.self_s": self.self_s("cli.validate_config"),
        }
        return {k: float(v) for k, v in values.items()}
