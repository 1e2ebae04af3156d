import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from fracldp import (
    INFEASIBLE,
    ControlVector,
    DomainError,
    HurstParams,
    KernelKind,
    KernelSpec,
    ModelParams,
    TimeGrid,
    VariationalProblem,
    VolFunction,
    affine_abs_vol,
    constant_vol,
    forward_smile,
    l2_energy,
    linear_vol,
    path_from_controls,
    penalized_objective,
    rate_with_random_start,
    smalltime_rate,
    solve,
    tail_rate,
)
from fracldp import rates
from fracldp.kernels import operator_matrix
from rate_oracle import brute_force_rate, terminal_function

H_HALF = HurstParams(0.5)


def identity_problem(n=32, **kw):
    defaults = dict(
        kernel=KernelSpec(KernelKind.IDENTITY, H_HALF),
        vol=constant_vol(1.0),
        grid=TimeGrid.uniform(n),
        rho=0.0,
        include_drift=False,
        level=1.0,
        sense=">=",
    )
    defaults.update(kw)
    return VariationalProblem(**defaults)


class TestPathFromControls:
    def test_zero_controls(self):
        p = identity_problem()
        n = p.grid.n
        y, x = path_from_controls(p, ControlVector(np.zeros(n), np.zeros(n)))
        assert np.all(y == 0.0)
        assert np.all(x == 0.0)

    def test_unit_g_gives_time(self):
        p = identity_problem()
        n = p.grid.n
        _, x = path_from_controls(p, ControlVector(np.zeros(n), np.ones(n)))
        assert np.allclose(x, p.grid.t, atol=1e-12)

    def test_linear_vol_quadratic_x(self):
        # y(t) = t from f == 1 through the Identity operator; x = int y = t^2/2
        p = identity_problem(n=200, vol=linear_vol(), rho=0.999999)
        # rho = 1 exactly is outside the open interval; mimic with g = f/rho_bar trick:
        # use rho close to 1 so the f channel carries the mass
        n = p.grid.n
        y, x = path_from_controls(p, ControlVector(np.ones(n), np.zeros(n)))
        assert np.allclose(y, p.grid.t, atol=1e-10)
        ref = 0.5 * p.grid.t**2
        assert np.max(np.abs(x / p.rho - ref)) <= 5e-3  # quadrature error O(1/n)

    def test_dimension_mismatch(self):
        p = identity_problem(n=16)
        with pytest.raises(DomainError):
            path_from_controls(p, ControlVector(np.ones(8), np.ones(8)))


class TestSolve:
    def test_schilder(self):
        res = solve(identity_problem())
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-6)
        assert np.allclose(res.controls.g, 1.0, atol=1e-4)
        assert np.max(np.abs(res.controls.f)) <= 1e-4

    def test_energy_consistency(self):
        res = solve(identity_problem(level=0.7))
        e = l2_energy(res.controls.f, res.controls.g, TimeGrid.uniform(32))
        assert abs(res.value - e) <= 1e-10

    def test_terminal_feasible(self):
        p = identity_problem(level=0.7)
        res = solve(p)
        assert res.x_path[-1] >= 0.7 - 1e-6

    def test_infeasible_sentinel(self):
        res = solve(identity_problem(vol=constant_vol(0.0)))
        assert res.value == INFEASIBLE
        assert math.isinf(res.value)
        assert not res.converged

    def test_degenerate_tails_drift(self):
        # sigma == 1 with drift: -1/2 + int g >= 1 -> g == 3/2, energy 9/8
        res = solve(identity_problem(include_drift=True))
        assert res.value == pytest.approx(9.0 / 8.0, abs=1e-6)
        assert np.allclose(res.controls.g, 1.5, atol=1e-4)

    def test_zero_level_free(self):
        res = solve(identity_problem(level=0.0))
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_schilder_exact(self):
        # sigma == 1, rho = 0: g* = 1 is reached from f = 0 in closed form
        res = solve(identity_problem(n=32, level=1.0))
        assert res.converged
        assert abs(res.value - 0.5) <= 1e-10

    def test_not_converged_when_cut_off(self, monkeypatch):
        # sigma_tilde = y given as a Tabulated vol, so the solve runs L-BFGS-B
        p = VariationalProblem(
            kernel=KernelSpec(KernelKind.G_ZERO, HurstParams(0.3), xi=1.0),
            vol=TABULATED_LINEAR, grid=TimeGrid.uniform(12), rho=0.3,
            include_drift=True, start=(0.2, 0.2), level=0.8, sense="=",
        )
        assert solve(p).converged
        full = scipy.optimize.minimize

        def one_iteration(*args, **kwargs):
            kwargs["options"] = dict(kwargs.get("options") or {}, maxiter=1)
            return full(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", one_iteration)
        res = solve(p)
        assert math.isfinite(res.value)
        assert not res.converged

    def test_not_converged_on_iteration_limit_status(self, monkeypatch):
        # a run stopped by its iteration limit does not count as converged,
        # however small its KKT residual
        full = scipy.optimize.minimize

        def limit_reported(*args, **kwargs):
            res = full(*args, **kwargs)
            res.status = 1
            return res

        monkeypatch.setattr(scipy.optimize, "minimize", limit_reported)
        res = solve(identity_problem(level=0.7))
        assert res.kkt_residual <= 1e-8
        assert not res.converged


def reduced_case(free_start, drift, node=None):
    """rho != 0 problem whose start factor varies in t (mean-reverting kernel)."""
    return VariationalProblem(
        kernel=KernelSpec(KernelKind.F_FOU, HurstParams(0.3), beta=-1.2, xi=1.0),
        vol=linear_vol(), grid=TimeGrid.uniform(12), rho=0.3,
        include_drift=drift, start=(0.1, 0.4) if free_start else (0.2, 0.2),
        level=0.8, sense="=", constraint_node=node,
    )


def reduced_setup(p):
    A = operator_matrix(p.kernel, p.grid)
    return rates._reduced_objective(p, p.level, A, p.homogeneous_factor())


def random_z(p, rng):
    f = rng.standard_normal(p.grid.n)
    lo, hi = p.start
    return np.append(f, rng.uniform(lo, hi)) if hi > lo else f


REDUCED_CASES = [(fs, d) for fs in (False, True) for d in (False, True)]


class TestReducedObjective:
    """The energy with g eliminated in closed form, which `solve` minimises."""

    @pytest.mark.parametrize("free_start,drift", REDUCED_CASES)
    def test_gradient_matches_central_differences(self, free_start, drift):
        p = reduced_case(free_start, drift)
        J, _ = reduced_setup(p)
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(10):
            z = random_z(p, rng)
            _, grad = J(z)
            num = np.empty_like(grad)
            for i in range(z.size):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                num[i] = (J(zp)[0] - J(zm)[0]) / (2 * h)
            rel = np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12)
            assert rel <= 1e-6

    @pytest.mark.parametrize("node", [None, 7])
    @pytest.mark.parametrize("free_start,drift", REDUCED_CASES)
    def test_optimal_g_meets_the_constraint(self, free_start, drift, node):
        p = reduced_case(free_start, drift, node)
        J, controls = reduced_setup(p)
        rng = np.random.default_rng(32)
        for _ in range(10):
            z = random_z(p, rng)
            f, g, u = controls(z)
            assert np.all(g[p.node_index + 1:] == 0.0)
            _, x = path_from_controls(p, ControlVector(f, g), start=u)
            assert abs(x[p.node_index] - p.level) <= 1e-12
            # J is the energy of (f, g*)
            assert J(z)[0] == pytest.approx(l2_energy(f, g, p.grid), rel=1e-12)

    def test_zero_vol_start_is_not_evaluable(self):
        # sigma_tilde = |y| vanishes on the zero path from start 0
        p = VariationalProblem(
            kernel=KernelSpec(KernelKind.G_ZERO, HurstParams(0.3), xi=1.0),
            vol=affine_abs_vol(0.1, 1.0), grid=TimeGrid.uniform(12), rho=-0.5,
            level=0.3, sense="=",
        )
        J, _ = reduced_setup(p)
        assert J(np.zeros(p.grid.n))[0] == math.inf
        res = solve(p)
        assert res.converged and math.isfinite(res.value)


def binding_cases():
    """Inequality problems whose zero control misses the level: both senses,
    both signs of sgn * level (sgn = +1 for >=, -1 for <=), a tail problem
    with drift, the model of perfbench's rate_sweep, and a free start."""
    fou = KernelSpec(KernelKind.F_FOU, HurstParams(0.3), beta=-1.0, xi=1.0)
    g_zero = KernelSpec(KernelKind.G_ZERO, HurstParams(0.3), xi=1.0)
    return {
        "ge_positive": identity_problem(level=1.0),
        "le_negative": identity_problem(level=-1.0, sense="<="),
        # zero control from u = 1: sigma_tilde = 1, x_T = -1/2 < -0.2.
        # (A "<=" problem with level >= 0 never binds: the zero-control
        # x_T = -1/2 int sigma_tilde^2 <= 0 already meets it.)
        "ge_negative_drift": identity_problem(
            vol=linear_vol(), include_drift=True, start=(1.0, 1.0), level=-0.2),
        "fou_drift": VariationalProblem(
            kernel=fou, vol=linear_vol(b=0.75), grid=TimeGrid.uniform(24), rho=-0.3,
            include_drift=True, level=1.0, sense=">="),
        "sweep_model": VariationalProblem(
            kernel=g_zero, vol=affine_abs_vol(0.1, 1.0, b=0.5), grid=TimeGrid.uniform(32),
            rho=-0.5, level=-0.2, sense="<="),
        "free_start_forward": VariationalProblem(
            kernel=g_zero, vol=affine_abs_vol(0.1, 1.0, b=0.5), grid=TimeGrid.uniform(24),
            rho=-0.5, start=(0.05, 0.35), level=0.3, sense=">="),
    }


class TestInequalityBinds:
    """When the zero control misses the level, the inequality infimum is
    attained on the boundary, so `solve` makes one equality solve there."""

    @pytest.mark.parametrize("case", ["ge_positive", "le_negative", "ge_negative_drift",
                                      "free_start_forward"])
    def test_one_equality_solve_at_the_level(self, case, monkeypatch):
        p = binding_cases()[case]
        _, x0 = rates._unconstrained_terminal(p)
        assert np.all(x0 < p.level) if p.sense == ">=" else np.all(x0 > p.level)
        levels = []
        inner = rates._solve_equality

        def counted(problem, level):
            levels.append(level)
            return inner(problem, level)

        monkeypatch.setattr(rates, "_solve_equality", counted)
        res = solve(p)
        assert levels == [p.level]
        assert res.level_used == p.level
        assert res.converged and res.value > 0.0

    @pytest.mark.parametrize("case", ["ge_positive", "sweep_model", "fou_drift",
                                      "free_start_forward"])
    def test_equality_values_grow_beyond_the_level(self, case):
        p = binding_cases()[case]
        vals = [rates._solve_equality(p, c * p.level).value for c in (1.0, 1.25, 2.0, 4.0)]
        assert all(math.isfinite(v) for v in vals)
        for lower, higher in zip(vals, vals[1:]):
            assert higher >= lower * (1.0 - 1e-9)
        assert solve(p).value == vals[0]


def unit_scale_problem(H=0.3, kernel="g_zero", beta=-1.0, vol="affine", c1=1.0,
                       grid=None, rho=-0.4, drift=False, node=7, level=0.6, start=(0.0, 0.0)):
    """Equality problem that `_solve_equality` solves without L-BFGS-B: an
    eigenvalue problem from the start 0, a secular one from other starts."""
    kernels = {"g_zero": KernelSpec(KernelKind.G_ZERO, HurstParams(H), xi=1.0),
               "f_fou": KernelSpec(KernelKind.F_FOU, HurstParams(H), beta=beta, xi=1.0),
               "k_fbm": KernelSpec(KernelKind.K_FBM, HurstParams(H))}
    vols = {"affine": affine_abs_vol(0.1, c1, b=0.5), "linear": linear_vol()}
    return VariationalProblem(
        kernel=kernels[kernel], vol=vols[vol], grid=grid or TimeGrid.uniform(12),
        rho=rho, include_drift=drift, start=start, level=level, sense="=",
        constraint_node=node)


# sigma_tilde = |y| and = y given as callables: Tabulated vols, which keep `_multistart`
TABULATED_ABS = VolFunction(kind="Tabulated", sigma_fn=np.abs, sigma_tilde_fn=np.abs)
TABULATED_LINEAR = VolFunction(kind="Tabulated", sigma_fn=np.asarray, sigma_tilde_fn=np.asarray)


@pytest.mark.parametrize("vol", ["linear", "affine"])
@pytest.mark.parametrize("node", [-1, 12, 2.5])
def test_constraint_node_outside_the_grid_is_rejected(vol, node):
    # unit_scale_problem has 12 nodes
    with pytest.raises(DomainError, match="constraint_node"):
        unit_scale_problem(vol=vol, node=node, start=(0.5, 1.0))
    for ok in (0, np.int64(11), None):
        unit_scale_problem(vol=vol, node=ok, start=(0.5, 1.0))


def graded_grid(n, q):
    t = (np.arange(1, n + 1) / n) ** q
    return TimeGrid(tuple(t), tuple(np.diff(np.concatenate([[0.0], t]))))


class TestUnitScale:
    """From the start 0 with a Linear or AffineAbs vol, x_T is a quadratic
    form in the whitened controls on each one-signed branch of y, so the
    rate at level l is l / (2 lam) for an extreme eigenvalue lam, and |l|
    times the rate at sign(l). `_solve_equality` solves it that way, with
    no L-BFGS-B run."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(H=st.floats(0.1, 0.9), rho=st.floats(-0.9, 0.9),
           c1=st.one_of(st.floats(0.2, 2.0), st.floats(-2.0, -0.2)),
           vol=st.sampled_from(["affine", "linear"]), drift=st.booleans(),
           kernel=st.sampled_from(["g_zero", "f_fou", "k_fbm"]), node=st.integers(2, 9),
           q=st.sampled_from([1.0, 1.5, 3.0]),
           magnitude=st.floats(0.05, 20.0), sign=st.sampled_from([1.0, -1.0]))
    def test_rescaling_equals_a_direct_solve(self, H, rho, c1, vol, drift, kernel,
                                             node, q, magnitude, sign):
        # q > 1: nodes (k/n)^q, graded towards 0
        grid = TimeGrid.uniform(12) if q == 1.0 else graded_grid(12, q)
        p = unit_scale_problem(H=H, kernel=kernel, vol=vol, c1=c1, rho=rho, drift=drift,
                               grid=grid, node=node, level=sign * magnitude)
        eigen = solve(p)
        direct = rates._multistart(p, p.level)
        assert eigen.converged and direct.converged
        assert eigen.iterations == 0
        assert eigen.value == pytest.approx(direct.value, rel=1e-9)
        assert eigen.x_path[node] == pytest.approx(p.level, abs=1e-6)
        assert eigen.level_used == p.level and eigen.start_used == 0.0

    @pytest.mark.parametrize("field,variant", [
        ("H", dict(H=0.4)),
        ("beta", dict(beta=-2.0)),
        ("c1", dict(c1=0.5)),
        ("vol kind", dict(c1=1.0, vol="linear")),
        ("grid", dict(grid=graded_grid(12, 1.5))),
        ("rho", dict(rho=0.3)),
        ("drift", dict(drift=True)),
        ("node", dict(node=9)),
        # not key fields: one cached form serves every start, and the
        # AffineAbs branch at -rho is the form of the problem at -rho
        ("start", dict(start=(1.0, 2.0))),
        ("rho sign", dict(rho=0.4)),
    ])
    def test_problems_differing_in_one_key_field(self, field, variant):
        base = dict(kernel="f_fou", c1=1.0)
        for p in (unit_scale_problem(**base), unit_scale_problem(**{**base, **variant})):
            res = solve(p)
            direct = rates._multistart(p, p.level)
            assert res.value == pytest.approx(direct.value, rel=1e-9), field
            assert res.converged

    def test_results_do_not_alias_the_memo(self):
        # from the start 0, a fixed nonzero start and a free one around 0
        for start in ((0.0, 0.0), (1.0, 1.0), (-1.0, 2.0)):
            p = unit_scale_problem(start=start)
            first = solve(p)
            assert first.iterations == 0
            cached = [a for form in rates._form_cache.values() for a in form[:3]]
            assert cached and not any(a.flags.writeable for a in cached)
            out = (first.controls.f, first.controls.g, first.y_path, first.x_path)
            assert not any(np.shares_memory(a, b) for a in out for b in cached)
            value, f, g = first.value, first.controls.f.copy(), first.controls.g.copy()
            first.controls.f *= 3.0
            first.controls.g[:] = 0.0
            again = solve(p)
            assert again.value == value
            assert np.array_equal(again.controls.f, f) and np.array_equal(again.controls.g, g)

    def test_shuffled_smalltime_sweep_equals_sorted(self):
        params = ModelParams(rho=-0.5, hurst=HurstParams(0.3), vol=affine_abs_vol(0.1, 1.0, b=0.5))
        grid = TimeGrid.uniform(16)
        ks = sorted(s * 0.1 * i for i in range(1, 6) for s in (1, -1))
        shuffled = list(ks)
        np.random.default_rng(5).shuffle(shuffled)
        sweeps = []
        for order in (ks, shuffled):
            sweeps.append({k: smalltime_rate(params, k, 0.5, grid=grid).value for k in order})
        assert sweeps[0] == sweeps[1]

    def test_sweeps_from_the_start_0_run_no_lbfgsb(self, monkeypatch):
        # and a forward smile, whose start is free over an interval around 0
        def no_lbfgsb(*args, **kwargs):
            raise AssertionError("L-BFGS-B called")

        monkeypatch.setattr(scipy.optimize, "minimize", no_lbfgsb)
        grid = TimeGrid.uniform(16)
        affine = ModelParams(rho=-0.5, hurst=HurstParams(0.3), vol=affine_abs_vol(0.1, 1.0, b=0.5))
        linear = ModelParams(rho=-0.3, hurst=HurstParams(0.3), vol=linear_vol(b=0.75))
        results = [smalltime_rate(affine, k, 0.5, grid=grid) for k in (0.1, -0.2, 0.3, -0.1)]
        results += [tail_rate(linear, y, 0.75, grid=grid) for y in (0.5, 1.0, 2.0)]
        forward = [forward_smile(affine, 0.2, 0.5, k, grid=grid) for k in (0.2, -0.1, 0.4)]
        for smile in forward:
            lo, hi = smile.metadata["support"]
            assert lo < 0.0 < hi and lo <= smile.rate_used.start_used <= hi
        results += [smile.rate_used for smile in forward]
        for res in results:
            assert res.iterations == 0
            assert res.converged and 0.0 < res.value < math.inf
            assert res.x_path[-1] == pytest.approx(res.level_used, abs=1e-12)

    @pytest.mark.parametrize("change", [
        dict(vol=constant_vol(0.7)),
        dict(vol=TABULATED_ABS),
        # an AffineAbs start small against the level: the route declines
        dict(start=(0.0, 0.3)),
        dict(start=(0.2, 0.2)),
        dict(level=0.0),
    ], ids=["constant", "tabulated", "free_start", "nonzero_start", "zero_level"])
    def test_other_problems_take_the_direct_path(self, change):
        p = dataclasses.replace(unit_scale_problem(), **change)
        res = solve(p)
        assert res.value == rates._multistart(p, p.level).value

    def test_vanishing_vol_is_infeasible(self):
        # from the start 0, a fixed nonzero start and a free one
        for start in ((0.0, 0.0), (2.0, 2.0), (-1.0, 3.0)):
            res = solve(unit_scale_problem(c1=0.0, level=-2.5, start=start))
            assert res.value == INFEASIBLE and not res.converged
            assert res.level_used == -2.5


def start_interval(kind, sign, a, b):
    """A fixed start, or an interval on one side of 0, straddling 0 or
    touching 0, from 0 < a <= b. (Starts reach |u| = 3: the route certifies
    an AffineAbs problem when u is large against the level, as in a
    forward smile, and hands the others to `_multistart`.)"""
    return {"fixed": (sign * a, sign * a),
            "one_side": tuple(sorted((sign * a, sign * b))),
            "straddling": (-a, b),
            "touching": tuple(sorted((0.0, sign * b)))}[kind]


def solve_and_route(p):
    """`solve(p)`, and whether it took the secular route (no `_multistart`)."""
    with mock.patch.object(rates, "_multistart", wraps=rates._multistart) as fallback:
        res = solve(p)
    return res, not fallback.called


class TestSecularStart:
    """From a nonzero start, fixed or free, x_T is z^T Q z + u b^T z + u^2 d0
    on each one-signed branch, and `_solve_equality` solves it by the secular
    equation in the multiplier of the constraint, with no L-BFGS-B run."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(H=st.floats(0.1, 0.9), rho=st.floats(-0.9, 0.9),
           c1=st.one_of(st.floats(0.2, 2.0), st.floats(-2.0, -0.2)),
           vol=st.sampled_from(["affine", "linear"]), drift=st.booleans(),
           kernel=st.sampled_from(["g_zero", "f_fou", "k_fbm"]), node=st.integers(2, 11),
           kind=st.sampled_from(["fixed", "one_side", "straddling", "touching"]),
           side=st.sampled_from([1.0, -1.0]), ends=st.lists(st.floats(0.05, 3.0), min_size=2,
                                                              max_size=2),
           magnitude=st.floats(0.05, 2.0), sign=st.sampled_from([1.0, -1.0]))
    def test_secular_route_equals_the_multistart(self, H, rho, c1, vol, drift, kernel, node,
                                                 kind, side, ends, magnitude, sign):
        start = start_interval(kind, side, *sorted(ends))
        p = unit_scale_problem(H=H, kernel=kernel, vol=vol, c1=c1, rho=rho, drift=drift,
                               node=node, start=start, level=sign * magnitude)
        res, secular = solve_and_route(p)
        direct = rates._multistart(p, p.level)
        assert res.converged and direct.converged
        # the zero control meets the level where u^2 d0 = level: both rates are 0
        assert res.value == pytest.approx(direct.value, rel=1e-9, abs=1e-12)
        assert res.x_path[node] == pytest.approx(p.level, abs=1e-6)
        assert start[0] <= res.start_used <= start[1]
        if secular:
            assert res.iterations == 0
        if vol == "linear":
            # x_T is the quadratic form on every path: nothing to decline
            assert secular
        else:
            # c1 |y| is even, so (f, u, rho) -> (-f, -u, -rho) maps the problem
            # onto itself, and the two AffineAbs branches onto each other
            mirror = dataclasses.replace(p, rho=-rho, start=(-start[1], -start[0]))
            res_m, secular_m = solve_and_route(mirror)
            assert secular_m == secular
            if secular:
                assert res_m.value == pytest.approx(res.value, rel=1e-12)
                # at rho = 0 with a start interval symmetric about 0 the mirror
                # is the problem itself, whose starts u and -u tie
                if (rho, start) != (-rho, (-start[1], -start[0])):
                    assert res_m.start_used == -res.start_used

    def test_hard_case_matches_brute_force_or_declines(self):
        # Q = diag(lam), bhat = 0 on the top eigenvector: phi(mu) stays finite
        # at the pole 1 / (2 lam_max), so it reaches no level above phi there
        lam = np.array([-1.0, 0.5, 2.0])
        bhat = np.array([0.8, 0.6, 0.0])
        rng = np.random.default_rng(41)
        # brute force: z = sqrt(E) (unit vector) for E on a fine scan
        dirs = rng.standard_normal((200_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        declined = 0
        for level, u in ((0.05, 1.0), (0.2, 1.0), (3.0, 1.0), (-0.4, 0.5)):
            root = rates._secular_start(lam, bhat, 0.0, level, u, u)
            if root is None:
                declined += 1
                continue
            mu, r, value = root
            assert r == u
            z = mu * u * bhat / (1.0 - 2.0 * mu * lam)
            assert z @ (lam * z) + u * bhat @ z == pytest.approx(level, rel=1e-10)
            assert 0.5 * z @ z == pytest.approx(value, rel=1e-10)
            # least energy on the quadric along each direction
            qa, qb = dirs**2 @ lam, u * dirs @ bhat
            disc = qb * qb + 4.0 * qa * level
            t = np.where(disc >= 0.0, (-qb + np.sign(qa) * np.sqrt(np.abs(disc))) / (2.0 * qa), np.inf)
            t = np.concatenate([t, np.where(disc >= 0.0, (-qb - np.sign(qa) * np.sqrt(np.abs(disc)))
                                            / (2.0 * qa), np.inf)])
            brute = 0.5 * np.min(np.where(t > 0.0, t * t, np.inf))
            assert value <= brute * (1.0 + 1e-12)
            assert value == pytest.approx(brute, rel=1e-3)
        assert declined == 1   # level 3 from u = 1 lies beyond phi at the pole

    def test_a_path_on_which_y_changes_sign_is_not_missed(self):
        # from u = -0.38 the least-energy path has y < 0 at the first three
        # nodes and y > 0 after them; the cheaper one-signed branch costs
        # about 10.27, the multistart finds about 8.26
        p = unit_scale_problem(H=0.85, kernel="f_fou", c1=1.18, rho=-0.59, drift=True,
                               grid=TimeGrid.uniform(32), node=23, start=(-0.38, -0.38),
                               level=-3.55)
        res = solve(p)
        direct = rates._multistart(p, p.level)
        assert direct.value < 9.0 and np.any(direct.y_path[:24] > 0.0)
        assert res.value == pytest.approx(direct.value, rel=1e-9)

    def test_a_failed_linear_candidate_runs_the_multistart(self):
        # the form is exact on every path of a Linear vol, so a candidate that
        # fails its check bounds its arm, on either side of 0; failing the
        # winning arm leaves a bound below the other arm's energy
        for start in ((-3.0, 1.0), (-1.0, 3.0)):
            p = unit_scale_problem(vol="linear", start=start)
            res, secular = solve_and_route(p)
            assert secular
            side = math.copysign(1.0, res.start_used)
            check = rates._check_run

            def fail_on_side(problem, A, hom, f, g, u, level):
                energy, r, kkt, ok = check(problem, A, hom, f, g, u, level)
                return energy, (math.inf if u * side > 0.0 else r), kkt, ok

            with mock.patch.object(rates, "_check_run", fail_on_side):
                assert not solve_and_route(p)[1]

    def test_a_declined_root_runs_the_multistart(self, monkeypatch):
        p = unit_scale_problem(start=(1.0, 1.0))
        assert solve(p).iterations == 0
        monkeypatch.setattr(rates, "_secular_start", lambda *args, **kwargs: None)
        res = solve(p)
        assert res.iterations > 0
        assert res.value == rates._multistart(p, p.level).value

    def test_importing_and_sweeping_loads_no_scipy_optimize(self):
        code = (
            "import sys\n"
            "import fracldp, fracldp.cli\n"
            "assert 'scipy.optimize' not in sys.modules, 'on import'\n"
            "p = fracldp.ModelParams(rho=-0.5, hurst=fracldp.HurstParams(0.3),\n"
            "                        vol=fracldp.affine_abs_vol(0.1, 1.0, b=0.5))\n"
            "grid = fracldp.TimeGrid.uniform(16)\n"
            "for k in (0.1, -0.2):\n"
            "    fracldp.smalltime_smile(p, k, 0.5, grid=grid)\n"
            "    fracldp.forward_smile(p, 0.2, 0.5, k, grid=grid)\n"
            "fracldp.tail_smile_slope(p, 1.0, grid=grid)\n"
            "assert 'scipy.optimize' not in sys.modules, 'after the sweep'\n"
        )
        src = str(Path(rates.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.slow
class TestBruteForceOracle:
    def test_schilder_coarse(self):
        p = identity_problem(n=4)
        assert brute_force_rate(p, coarse_n=4) == pytest.approx(0.5, abs=1e-4)

    def test_linear_equality_agreement(self):
        grid = TimeGrid.uniform(6)
        p = VariationalProblem(
            kernel=KernelSpec(KernelKind.G_ZERO, H_HALF, xi=1.0),
            vol=linear_vol(),
            grid=grid,
            rho=0.0,
            include_drift=False,
            level=1.0,
            sense="=",
        )
        ref = brute_force_rate(p, coarse_n=6)
        res = solve(p)
        assert abs(res.value - ref) <= 1e-3


class TestOracleTerminal:
    @pytest.mark.parametrize("free_start,drift", REDUCED_CASES)
    def test_matches_path_from_controls_bitwise(self, free_start, drift):
        p = reduced_case(free_start, drift, node=9)
        x_terminal = terminal_function(p)
        rng = np.random.default_rng(33)
        n = p.grid.n
        for _ in range(50):
            f, g = rng.standard_normal(n), rng.standard_normal(n)
            u = rng.uniform(*p.start) if free_start else p.start[0]
            _, x = path_from_controls(p, ControlVector(f, g), start=u)
            assert x_terminal(f, g, u) == x[p.node_index]


class TestProperties:
    def test_homogeneity(self):
        grid = TimeGrid.uniform(24)
        vals = []
        for k in (0.5, 1.0):
            p = VariationalProblem(
                kernel=KernelSpec(KernelKind.G_ZERO, H_HALF, xi=1.0),
                vol=linear_vol(), grid=grid, rho=0.0,
                include_drift=False, level=k, sense=">=",
            )
            vals.append(solve(p).value)
        assert 1.98 <= vals[1] / vals[0] <= 2.02

    def test_rho_zero_symmetry(self):
        grid = TimeGrid.uniform(24)
        vals = []
        for k in (0.6, -0.6):
            p = VariationalProblem(
                kernel=KernelSpec(KernelKind.G_ZERO, H_HALF, xi=1.0),
                vol=linear_vol(), grid=grid, rho=0.0,
                include_drift=False, level=k, sense=">=" if k > 0 else "<=",
            )
            vals.append(solve(p).value)
        assert abs(vals[0] - vals[1]) <= 1e-4

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(H=st.floats(0.1, 0.9), rho=st.floats(-0.9, 0.9),
           c1=st.floats(0.2, 2.0), k=st.floats(0.05, 0.6), scale=st.floats(0.25, 4.0))
    def test_smalltime_homogeneity_and_symmetry(self, H, rho, c1, k, scale):
        # sigma_tilde = c1 |y| is even and homogeneous of degree 1, so
        # (f, g) -> lambda (f, g) maps x_T to lambda^2 x_T at lambda^2 times
        # the energy, and (f, g) -> -(f, g) maps x_T to -x_T, for every rho
        params = ModelParams(rho=rho, hurst=HurstParams(H), vol=affine_abs_vol(0.1, c1, b=0.5))
        grid = TimeGrid.uniform(16)
        base = smalltime_rate(params, k, 0.5, grid=grid).value
        assert smalltime_rate(params, scale * k, 0.5, grid=grid).value == \
            pytest.approx(scale * base, rel=1e-9)
        assert smalltime_rate(params, -k, 0.5, grid=grid).value == pytest.approx(base, rel=1e-9)

    def test_gradient_matches_finite_differences(self):
        p = VariationalProblem(
            kernel=KernelSpec(KernelKind.G_ZERO, HurstParams(0.5), xi=1.0),
            vol=linear_vol(), grid=TimeGrid.uniform(12), rho=0.3,
            include_drift=True, level=0.8, sense="=",
        )
        rng = np.random.default_rng(77)
        for _ in range(3):
            z = rng.standard_normal(24)
            _, grad, _ = penalized_objective(p, z, nu=0.4, mu=5.0, level=0.8,
                                             free_start=False)
            num = np.empty_like(grad)
            h = 1e-6
            for i in range(z.size):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                vp, _, _ = penalized_objective(p, zp, 0.4, 5.0, 0.8, False)
                vm, _, _ = penalized_objective(p, zm, 0.4, 5.0, 0.8, False)
                num[i] = (vp - vm) / (2 * h)
            rel = np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12)
            assert rel <= 1e-6

    def test_grid_refinement_cauchy(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol())
        vals = [smalltime_rate(params, 1.0, 1.0, grid=TimeGrid.uniform(n)).value
                for n in (12, 24, 48)]
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 < d1


class TestConvenienceRates:
    def test_tail_degenerate(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0,
                             vol=constant_vol(1.0, b=0.75))
        res = tail_rate(params, 1.0, 0.75, grid=TimeGrid.uniform(24))
        assert res.value == pytest.approx(9.0 / 8.0, abs=1e-6)

    def test_tail_monotone_levels(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol(b=0.75))
        grid = TimeGrid.uniform(16)
        vals = [tail_rate(params, y, 0.75, grid=grid).value for y in (1.0, 2.0, 3.0)]
        assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9

    def test_smalltime_zero_level(self):
        # the zero controls meet k = 0 from every start, fixed or free; the
        # lower end of a free start is used
        params = ModelParams(vol=linear_vol())
        for res, lo in ((smalltime_rate(params, 0.0, 1.0), 0.0),
                        (rate_with_random_start(params, 0.0, (0.1, 0.4)), 0.1)):
            assert res.start_used == lo
            assert res.value == 0.0
            assert res.converged
            assert res.iterations == 0
            assert not np.any(res.controls.f) and not np.any(res.controls.g)

    def test_random_start_degenerate_interval(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol())
        grid = TimeGrid.uniform(24)
        u0 = 0.15
        fixed = solve(VariationalProblem(
            kernel=KernelSpec(KernelKind.G_ZERO, H_HALF, xi=1.0),
            vol=linear_vol(), grid=grid, rho=0.0, include_drift=False,
            start=(u0, u0), level=0.8, sense=">=",
        ))
        free = rate_with_random_start(params, 0.8, (u0, u0), grid=grid)
        assert free.value == pytest.approx(fixed.value, rel=1e-6)
        assert free.start_used == pytest.approx(u0)

    def test_random_start_dominated_by_fixed(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol())
        grid = TimeGrid.uniform(24)
        free = rate_with_random_start(params, 0.8, (0.0, 0.3), grid=grid)
        for u in np.linspace(0.0, 0.3, 5):
            fixed = solve(VariationalProblem(
                kernel=KernelSpec(KernelKind.G_ZERO, H_HALF, xi=1.0),
                vol=linear_vol(), grid=grid, rho=0.0, include_drift=False,
                start=(float(u), float(u)), level=0.8, sense=">=",
            ))
            assert free.value <= fixed.value + 1e-6

    def test_random_start_widening_support(self):
        params = ModelParams(lam=0.0, beta=-1.0, xi=1.0, rho=0.0, vol=linear_vol())
        grid = TimeGrid.uniform(24)
        v1 = rate_with_random_start(params, 0.8, (0.0, 0.1), grid=grid).value
        v2 = rate_with_random_start(params, 0.8, (0.0, 0.2), grid=grid).value
        assert v2 <= v1 + 1e-6

    def test_bad_support(self):
        params = ModelParams(vol=linear_vol())
        with pytest.raises(DomainError):
            rate_with_random_start(params, 0.5, (0.3, 0.1))
