"""JSON-config command line entry point.

One run per process: validate the config, execute one command (kernels,
simulate, rate, smile, verify), write CSV results plus run_manifest.json
into the output directory.

Exit codes: 0 success, 2 config validation error, 3 numerical
non-convergence (results still written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys

import numpy as np
from jsonschema import Draft7Validator

from . import __version__
from .kernels import (
    DomainError,
    HurstParams,
    KernelSpec,
    TimeGrid,
    eval_kernel,
)
from .model import (
    InitialLaw,
    ModelParams,
    RescalingScheme,
    VolFunction,
    VolKind,
    check_scaling_assumption,
    check_theta_assumption,
    tail_ladder,
)
from .rates import (
    KernelKind,
    VariationalProblem,
    rate_with_random_start,
    smalltime_rate,
    solve,
    tail_rate,
)
from .smile import (
    bs_implied_vol,
    forward_smile,
    mc_smile,
    smalltime_smile,
    tail_smile_slope,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOCONV = 3
EXIT_IO = 4

SEED_ENV_VAR = "FRACLDP_SEED"

_NUM = {"type": "number"}
_POSINT = {"type": "integer", "minimum": 1}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["command"],
    "properties": {
        "command": {"enum": ["kernels", "simulate", "rate", "smile", "verify"]},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"n": _POSINT},
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lam": _NUM,
                "beta": _NUM,
                "xi": _NUM,
                "rho": _NUM,
                "H": _NUM,
                "vol": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["Linear", "AffineAbs", "Constant"]},
                        "c0": _NUM,
                        "c1": _NUM,
                        "c": _NUM,
                        "b": _NUM,
                    },
                },
            },
        },
        "law": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {
                    "enum": [
                        "Point",
                        "Uniform",
                        "Gaussian",
                        "TruncGaussian",
                        "ForwardSteinStein",
                    ]
                },
                "y0": _NUM,
                "a": _NUM,
                "b": _NUM,
                "mean": _NUM,
                "var": _NUM,
                "radius": _NUM,
                "sigma0": _NUM,
                "t": _NUM,
            },
        },
        "scheme": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["Tails", "SmallTime", "DiffusiveSmallTime"]},
                "b": _NUM,
            },
        },
        "eps_ladder": {"type": "array", "items": {"type": "number", "minimum": 0},
                       "minItems": 1},
        "level": _NUM,
        "n_paths": _POSINT,
        "kernel": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["K_fbm", "F_fou", "G_eps", "G_zero", "Identity"]},
                "H": _NUM,
                "beta": _NUM,
                "xi": _NUM,
                "eps": _NUM,
            },
        },
        "eval_points": {
            "type": "array",
            "items": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
            "minItems": 1,
        },
        "rate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["tail", "smalltime", "random_start"]},
                "level": _NUM,
                "b": _NUM,
                "include_drift": {"type": "boolean"},
                "support": {
                    "type": "array",
                    "items": _NUM,
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
        },
        "smile": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["tail_slope", "smalltime", "forward", "mc"]},
                "k": _NUM,
                "t": _NUM,
                "b": _NUM,
                "sigma0": _NUM,
                "support_radius": _NUM,
                "strikes": {"type": "array", "items": _NUM, "minItems": 1},
                "n_paths": _POSINT,
                "method": {"enum": ["raw", "conditional"]},
            },
        },
    },
}

DEFAULTS = {
    "seed": 0,
    "output_dir": "out",
    "grid": {"n": 48},
    "model": {
        "lam": 0.0,
        "beta": -1.0,
        "xi": 1.0,
        "rho": 0.0,
        "H": 0.5,
        "vol": {"kind": "Linear", "b": 1.0},
    },
    "law": {"kind": "Point", "y0": 0.0},
    "scheme": {"kind": "Tails", "b": 1.0},
    "eps_ladder": [0.7, 0.6, 0.5, 0.4],
    "level": 1.0,
    "n_paths": 100000,
}


class ConfigError(ValueError):
    pass


def _merge_defaults(cfg: dict) -> dict:
    out = copy.deepcopy(DEFAULTS)

    def merge(dst, src):
        for k, v in src.items():
            if isinstance(v, dict) and isinstance(dst.get(k), dict):
                merge(dst[k], v)
            else:
                dst[k] = copy.deepcopy(v)

    merge(out, cfg)
    return out


def _set_by_path(cfg: dict, dotted: str, raw: str):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {dotted} crosses a non-object value")
    node[keys[-1]] = value


def validate_config(cfg: dict) -> None:
    errors = sorted(Draft7Validator(CONFIG_SCHEMA).iter_errors(cfg), key=str)
    if errors:
        msgs = "; ".join(
            f"{'/'.join(str(p) for p in e.absolute_path) or '<root>'}: {e.message}"
            for e in errors
        )
        raise ConfigError(msgs)


# --------------------------------------------------------------------------
# config block -> domain objects
# --------------------------------------------------------------------------

def _build_vol(d: dict) -> VolFunction:
    kind = VolKind(d.get("kind", "Linear"))
    b = float(d.get("b", 1.0))
    if kind is VolKind.CONSTANT:
        return VolFunction(kind=kind, c0=float(d.get("c", d.get("c0", 1.0))), b=b)
    return VolFunction(kind=kind, c0=float(d.get("c0", 0.0)), c1=float(d.get("c1", 1.0)), b=b)


def _build_model(d: dict) -> ModelParams:
    return ModelParams(
        lam=float(d["lam"]),
        beta=float(d["beta"]),
        xi=float(d["xi"]),
        rho=float(d["rho"]),
        hurst=HurstParams(float(d["H"])),
        vol=_build_vol(d["vol"]),
    )


def _build_law(d: dict) -> InitialLaw:
    return InitialLaw(
        kind=d["kind"],
        y0=float(d.get("y0", 0.0)),
        a=float(d.get("a", 0.0)),
        b=float(d.get("b", 0.0)),
        mean=float(d.get("mean", 0.0)),
        var=float(d.get("var", 1.0)),
        radius=float(d.get("radius", 4.0)),
        sigma0=float(d.get("sigma0", 0.0)),
        t=float(d.get("t", 1.0)),
    )


def _build_scheme(d: dict) -> RescalingScheme:
    return RescalingScheme(kind=d["kind"], b=float(d.get("b", 1.0)))


def _write_csv(path: str, header: list, rows: list):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        # numpy 2 scalars repr as np.float64(...); a Python float reads back
        return repr(float(x))
    return str(x)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _cmd_kernels(cfg: dict, outdir: str) -> int:
    kd = cfg.get("kernel")
    pts = cfg.get("eval_points")
    if kd is None or pts is None:
        raise ConfigError("kernels command needs 'kernel' and 'eval_points'")
    spec = KernelSpec.from_dict(kd)
    rows = []
    for t, s in pts:
        v = eval_kernel(spec, float(t), float(s))
        rows.append([spec.kind.value, spec.hurst.H, spec.beta, spec.xi, spec.eps,
                     _fmt(float(t)), _fmt(float(s)), _fmt(v)])
    _write_csv(os.path.join(outdir, "kernels.csv"),
               ["kind", "H", "beta", "xi", "eps", "t", "s", "value"], rows)
    return EXIT_OK


def _cmd_simulate(cfg: dict, outdir: str) -> int:
    """simulate.csv: one row per eps of the ladder, with p_hat, the
    `tail_ladder` estimate of P(X^eps_T >= level); std_err, its standard
    error (the conditional estimator's sample SE); h_eps log p_hat (empty
    when p_hat = 0); n_paths and seed. The points share the seed's draws, as
    in `ldp_slope`. A Tails ladder with a rescaling (non-Constant) vol is one
    simulation at eps = 1, read at the level level eps^{-2b} for each eps."""
    params = _build_model(cfg["model"])
    law = _build_law(cfg["law"])
    scheme = _build_scheme(cfg["scheme"])
    grid = TimeGrid.uniform(int(cfg["grid"]["n"]))
    level = float(cfg["level"])
    n_paths = int(cfg["n_paths"])
    seed = int(cfg["seed"])
    ladder = [float(e) for e in cfg["eps_ladder"]]
    ests, _ = tail_ladder(params, law, scheme, ladder, grid, n_paths, seed, level)
    rows = []
    for eps, est in zip(ladder, ests):
        h = scheme.speed(eps, params.hurst.H)
        hlp = h * math.log(est.p_hat) if est.p_hat > 0 else None
        rows.append([_fmt(eps), _fmt(level), _fmt(est.p_hat), _fmt(est.std_err),
                     _fmt(hlp), n_paths, seed])
    _write_csv(os.path.join(outdir, "simulate.csv"),
               ["eps", "level", "p_hat", "std_err", "h_eps_log_p", "n_paths", "seed"],
               rows)
    return EXIT_OK


def _cmd_rate(cfg: dict, outdir: str) -> int:
    rd = cfg.get("rate")
    if rd is None or "kind" not in rd:
        raise ConfigError("rate command needs a 'rate' block with 'kind'")
    params = _build_model(cfg["model"])
    grid = TimeGrid.uniform(int(cfg["grid"]["n"]))
    kind = rd["kind"]
    level = float(rd.get("level", cfg.get("level", 1.0)))
    b = float(rd.get("b", cfg["scheme"].get("b", 1.0)))
    if kind == "tail":
        res = tail_rate(params, level, b, include_drift=bool(rd.get("include_drift", True)),
                        grid=grid)
    elif kind == "smalltime":
        res = smalltime_rate(params, level, b, grid=grid)
    else:
        support = rd.get("support")
        if support is None:
            raise ConfigError("random_start rate needs a 'support' interval")
        res = rate_with_random_start(params, level, (float(support[0]), float(support[1])),
                                     grid=grid)
    _write_csv(os.path.join(outdir, "rate.csv"),
               ["problem_id", "level", "value", "converged", "kkt_residual",
                "start_used", "n_grid"],
               [[kind, _fmt(level), _fmt(res.value), res.converged,
                 _fmt(res.kkt_residual), _fmt(res.start_used), grid.n]])
    print(f"rate[{kind}] level={level} value={res.value:.10g} converged={res.converged}")
    return EXIT_OK if res.converged else EXIT_NOCONV


def _cmd_smile(cfg: dict, outdir: str) -> int:
    sd = cfg.get("smile")
    if sd is None or "kind" not in sd:
        raise ConfigError("smile command needs a 'smile' block with 'kind'")
    params = _build_model(cfg["model"])
    grid = TimeGrid.uniform(int(cfg["grid"]["n"]))
    kind = sd["kind"]
    H = params.hurst.H
    header = ["kind", "k", "t", "b", "H", "rate", "limit_value", "error_bar"]
    rows = []
    code = EXIT_OK
    if kind == "tail_slope":
        b = float(sd.get("b", 1.0))
        t = float(sd.get("t", 1.0))
        res = tail_smile_slope(params, b, t, grid=grid)
        rows.append([kind, "", _fmt(t), _fmt(b), _fmt(H),
                     _fmt(res.rate_used.value), _fmt(res.limit_value), ""])
        code = EXIT_OK if res.rate_used.converged else EXIT_NOCONV
    elif kind == "smalltime":
        b = float(sd.get("b", 1.0))
        k = float(sd.get("k", 0.2))
        res = smalltime_smile(params, k, b, grid=grid)
        rows.append([kind, _fmt(k), "", _fmt(b), _fmt(H),
                     _fmt(res.rate_used.value), _fmt(res.limit_value), ""])
        code = EXIT_OK if res.rate_used.converged else EXIT_NOCONV
    elif kind == "forward":
        k = float(sd.get("k", 0.2))
        t = float(sd.get("t", 1.0))
        sigma0 = float(sd.get("sigma0", 0.2))
        radius = float(sd.get("support_radius", 4.0))
        res = forward_smile(params, sigma0, t, k, support_radius=radius, grid=grid)
        rows.append([kind, _fmt(k), _fmt(t), "", _fmt(H),
                     _fmt(res.rate_used.value), _fmt(res.limit_value), ""])
        code = EXIT_OK if res.rate_used.converged else EXIT_NOCONV
    else:  # mc
        law = _build_law(cfg["law"])
        t = float(sd.get("t", 0.04))
        strikes = [float(k) for k in sd.get("strikes", [0.1])]
        n_paths = int(sd.get("n_paths", cfg["n_paths"]))
        method = sd.get("method", "raw")
        b = sd.get("b")
        pts = mc_smile(params, law, t, strikes, n_paths, int(cfg["seed"]),
                       b=None if b is None else float(b),
                       n_grid=int(cfg["grid"]["n"]), method=method)
        bb = params.vol.b if b is None else float(b)
        for p in pts:
            rows.append([kind, _fmt(p.k), _fmt(t), _fmt(bb), _fmt(H), "",
                         _fmt(p.implied_vol), _fmt(p.std_err)])
    _write_csv(os.path.join(outdir, "smile.csv"), header, rows)
    return code


def _cmd_verify(cfg: dict, outdir: str) -> int:
    """Fast orchestration subset of the acceptance checks."""
    from .model import linear_vol, point_law, uniform_law
    from .rates import KernelKind as KK

    checks = []

    def record(name, ok, detail):
        checks.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    h = HurstParams(0.5)
    err = max(
        abs(eval_kernel(KernelSpec(KernelKind.K_FBM, h), 0.7, 0.3) - 1.0),
        abs(eval_kernel(KernelSpec(KernelKind.F_FOU, h, beta=-2.0, xi=1.5), 0.7, 0.3)
            - 1.5 * math.exp(-2.0 * 0.4)),
        abs(eval_kernel(KernelSpec(KernelKind.G_ZERO, h, xi=1.5), 0.7, 0.3) - 1.5),
    )
    record("kernel_reductions_H_half", err <= 1e-12, f"max abs error {err:.2e}")

    grid = TimeGrid.uniform(32)
    prob = VariationalProblem(
        kernel=KernelSpec(KK.IDENTITY, h),
        vol=VolFunction(kind=VolKind.CONSTANT, c0=1.0),
        grid=grid, rho=0.0, include_drift=False, level=1.0, sense=">=",
    )
    res = solve(prob)
    record("schilder_value", abs(res.value - 0.5) <= 1e-6,
           f"value {res.value:.10f} vs 0.5")

    rep = check_scaling_assumption(linear_vol(b=0.5), [0.5, 0.25], np.linspace(-3, 3, 13))
    record("scaling_assumption_linear", rep.verdict == "PASS",
           f"max deviation {max(rep.deviations):.2e}")

    rep2 = check_theta_assumption(_build_law({"kind": "Uniform", "a": 0.0, "b": 0.2}),
                                  RescalingScheme(kind="Tails", b=1.0), [0.5, 0.25])
    record("theta_assumption_bounded", rep2.verdict == "DIVERGES_TO_MINUS_INFINITY",
           rep2.verdict)

    vol = bs_implied_vol(0.07965567455405798, 1.0, 1.0, 1.0)
    record("bs_roundtrip_atm", abs(vol - 0.2) <= 1e-8, f"implied {vol:.10f} vs 0.2")

    _write_csv(os.path.join(outdir, "verify.csv"),
               ["check", "passed", "detail"],
               [[n, p, d] for n, p, d in checks])
    return EXIT_OK if all(p for _, p, _ in checks) else EXIT_NOCONV


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def run(config_path: str, overrides=(), seed=None, out=None) -> int:
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as e:
        print(f"error: config is not valid JSON: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        for ov in overrides:
            if "=" not in ov:
                raise ConfigError(f"override '{ov}' is not key=value")
            key, _, val = ov.partition("=")
            _set_by_path(raw, key, val)
        if seed is None and SEED_ENV_VAR in os.environ:
            seed = int(os.environ[SEED_ENV_VAR])
        if seed is not None:
            raw["seed"] = int(seed)
        if out is not None:
            raw["output_dir"] = out
        validate_config(raw)
        cfg = _merge_defaults(raw)
    except (ConfigError, ValueError) as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = cfg["output_dir"]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output dir: {e}", file=sys.stderr)
        return EXIT_IO

    command = cfg["command"]
    try:
        if command == "kernels":
            code = _cmd_kernels(cfg, outdir)
        elif command == "simulate":
            code = _cmd_simulate(cfg, outdir)
        elif command == "rate":
            code = _cmd_rate(cfg, outdir)
        elif command == "smile":
            code = _cmd_smile(cfg, outdir)
        else:
            code = _cmd_verify(cfg, outdir)
    except (ConfigError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"error: I/O failure: {e}", file=sys.stderr)
        return EXIT_IO

    manifest = {
        "version": __version__,
        "config": cfg,
        "overrides": list(overrides),
        "exit_code": code,
    }
    try:
        with open(os.path.join(outdir, "run_manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        print(f"error: cannot write manifest: {e}", file=sys.stderr)
        return EXIT_IO
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="fracldp",
        description="Rate functions, rescaled simulation and implied-vol limits "
                    "for the randomised fractional Stein-Stein model.",
    )
    ap.add_argument("--config", required=True, help="path to JSON run config")
    ap.add_argument("--seed", type=int, default=None,
                    help=f"seed override (beats ${SEED_ENV_VAR})")
    ap.add_argument("--out", default=None, help="output directory override")
    ap.add_argument("--override", action="append", default=[],
                    metavar="KEY=VALUE", help="dotted-path config override, repeatable")
    args = ap.parse_args(argv)
    return run(args.config, overrides=args.override, seed=args.seed, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
