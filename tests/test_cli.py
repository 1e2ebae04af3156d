import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fracldp
from fracldp import (
    DomainError,
    HurstParams,
    ModelParams,
    RescalingScheme,
    TimeGrid,
    ldp_slope,
    linear_vol,
    point_law,
    simulate,
    tail_ladder,
)
from fracldp.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NOCONV,
    EXIT_OK,
    _fmt,
    main,
    run,
)


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestValidation:
    def test_unknown_key_rejected(self, tmp_path):
        p = write_config(tmp_path, {"command": "simulate", "bogus": 1})
        assert run(p, out=str(tmp_path / "o")) == EXIT_CONFIG

    def test_unknown_nested_key_rejected(self, tmp_path):
        p = write_config(tmp_path, {"command": "simulate", "model": {"gamma": 2.0}})
        assert run(p, out=str(tmp_path / "o")) == EXIT_CONFIG

    def test_solver_block_rejected(self, tmp_path):
        # the schema once accepted solver tuning that nothing read
        p = write_config(tmp_path, {
            "command": "rate", "rate": {"kind": "smalltime", "level": 1.0, "b": 1.0},
            "solver": {"feas_tol": 1e-6, "max_outer": 25},
        })
        out = tmp_path / "o"
        assert run(p, out=str(out)) == EXIT_CONFIG
        assert not (out / "rate.csv").exists()

    def test_threads_key_rejected(self, tmp_path):
        # the schema once accepted a BLAS thread count it could not apply
        p = write_config(tmp_path, {
            "command": "rate", "rate": {"kind": "smalltime", "level": 1.0, "b": 1.0},
            "threads": 1,
        })
        out = tmp_path / "o"
        assert run(p, out=str(out)) == EXIT_CONFIG
        assert not (out / "rate.csv").exists()

    def test_threads_flag_removed(self, tmp_path):
        p = write_config(tmp_path, {"command": "verify"})
        with pytest.raises(SystemExit) as exc:
            main(["--config", p, "--out", str(tmp_path / "o"), "--threads", "1"])
        assert exc.value.code == 2

    def test_bad_command(self, tmp_path):
        p = write_config(tmp_path, {"command": "frobnicate"})
        assert run(p, out=str(tmp_path / "o")) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run(str(p)) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert run(str(tmp_path / "nope.json")) == EXIT_IO

    def test_domain_error_in_params(self, tmp_path):
        # schema-valid numbers that violate model invariants (beta >= 0)
        p = write_config(tmp_path, {
            "command": "rate", "rate": {"kind": "smalltime", "level": 1.0, "b": 1.0},
            "model": {"beta": 1.0},
        })
        assert run(p, out=str(tmp_path / "o")) == EXIT_CONFIG


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds about 0.6 s and 20 MB to start-up; the package uses
    # only scipy.special's normal distribution functions
    src = os.path.dirname(os.path.dirname(fracldp.__file__))
    code = "import sys, fracldp, fracldp.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fmt_writes_numpy_scalars_as_python_floats():
    assert _fmt(np.float64(0.1)) == "0.1"
    assert _fmt(np.float32(0.5)) == "0.5"
    assert _fmt(np.float64("nan")) == "nan"
    assert (_fmt(None), _fmt(3), _fmt(True)) == ("", "3", "True")


class TestKernelsCommand:
    def test_values(self, tmp_path):
        p = write_config(tmp_path, {
            "command": "kernels",
            "kernel": {"kind": "F_fou", "H": 0.5, "beta": -2.0, "xi": 1.5},
            "eval_points": [[0.7, 0.3]],
        })
        out = tmp_path / "o"
        assert run(p, out=str(out)) == EXIT_OK
        rows = read_csv(out / "kernels.csv")
        assert rows[0] == ["kind", "H", "beta", "xi", "eps", "t", "s", "value"]
        assert float(rows[1][-1]) == pytest.approx(1.5 * math.exp(-0.8), rel=1e-12)


class TestSimulateCommand:
    CFG = {
        "command": "simulate",
        "model": {"H": 0.5, "vol": {"kind": "Linear", "b": 0.75}},
        "law": {"kind": "Point", "y0": 0.1},
        "scheme": {"kind": "Tails", "b": 0.75},
        "grid": {"n": 16},
        "eps_ladder": [0.7, 0.5],
        "level": 0.5,
        "n_paths": 5000,
        "seed": 3,
    }

    def test_csv_columns(self, tmp_path):
        p = write_config(tmp_path, self.CFG)
        out = tmp_path / "o"
        assert run(p, out=str(out)) == EXIT_OK
        rows = read_csv(out / "simulate.csv")
        assert rows[0] == ["eps", "level", "p_hat", "std_err", "h_eps_log_p",
                           "n_paths", "seed"]
        assert len(rows) == 3

    @pytest.mark.parametrize("H", [0.3, 0.5])
    def test_negative_eps_is_rejected(self, tmp_path, H):
        # eps^(-2b) of a negative eps is complex: it once gave a p_hat in the
        # thousands and exit 0 at H = 0.3, and a casting error (exit 1) at
        # H = 1/2
        cfg = dict(self.CFG, model={"H": H, "vol": {"kind": "Linear", "b": 0.75}},
                   eps_ladder=[0.7, -0.5, 0.4], n_paths=1000)
        out = tmp_path / "o"
        assert run(write_config(tmp_path, cfg), out=str(out)) == EXIT_CONFIG
        assert not (out / "simulate.csv").exists()
        params = ModelParams(hurst=HurstParams(H), vol=linear_vol(b=0.75))
        args = (params, point_law(0.1), RescalingScheme("Tails", b=0.75))
        grid = TimeGrid.uniform(16)
        for eps in (-0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                simulate(*args, eps, grid, 100, 3)
            with pytest.raises(DomainError):
                tail_ladder(*args, [0.7, eps, 0.4], grid, 100, 3, 0.5)
            with pytest.raises(DomainError):
                ldp_slope(*args, [0.7, eps, 0.4], 0.5, 100, 3, grid=grid)

    def test_reproducible_bytes(self, tmp_path):
        p = write_config(tmp_path, self.CFG)
        run(p, out=str(tmp_path / "a"))
        run(p, out=str(tmp_path / "b"))
        assert (tmp_path / "a" / "simulate.csv").read_bytes() == \
               (tmp_path / "b" / "simulate.csv").read_bytes()

    def test_seed_precedence(self, tmp_path, monkeypatch):
        p = write_config(tmp_path, self.CFG)
        monkeypatch.setenv("FRACLDP_SEED", "99")
        run(p, out=str(tmp_path / "env"))
        m = json.loads((tmp_path / "env" / "run_manifest.json").read_text())
        assert m["config"]["seed"] == 99
        run(p, out=str(tmp_path / "flag"), seed=7)
        m = json.loads((tmp_path / "flag" / "run_manifest.json").read_text())
        assert m["config"]["seed"] == 7

    def test_manifest_resolves_defaults(self, tmp_path):
        p = write_config(tmp_path, self.CFG)
        out = tmp_path / "o"
        run(p, out=str(out))
        m = json.loads((out / "run_manifest.json").read_text())
        # defaults filled in; rerunning from the manifest reproduces the run
        assert m["config"]["model"]["beta"] == -1.0
        assert "threads" not in m["config"]
        p2 = write_config(tmp_path, m["config"], name="from_manifest.json")
        run(p2, out=str(tmp_path / "o2"))
        assert (out / "simulate.csv").read_bytes() == \
               (tmp_path / "o2" / "simulate.csv").read_bytes()

    @pytest.mark.parametrize("H", [0.5, 0.3])
    def test_p_hat_matches_ldp_slope(self, tmp_path, H):
        # both run one tail_ladder, one pass over the seed's own draws
        cfg = dict(self.CFG, model={"H": H, "vol": {"kind": "Linear", "b": 0.75}},
                   eps_ladder=[0.7, 0.6, 0.5])
        out = tmp_path / "o"
        assert run(write_config(tmp_path, cfg), out=str(out)) == EXIT_OK
        p_cli = [float(r[2]) for r in read_csv(out / "simulate.csv")[1:]]
        params = ModelParams(hurst=HurstParams(H), vol=linear_vol(b=0.75))
        fit = ldp_slope(params, point_law(0.1), RescalingScheme("Tails", b=0.75),
                        cfg["eps_ladder"], cfg["level"], cfg["n_paths"], cfg["seed"],
                        grid=TimeGrid.uniform(16))
        assert p_cli == fit.p_hats
        assert all(p > 0 for p in p_cli)


    def test_p_hat_matches_ldp_slope_past_200k_paths(self, tmp_path):
        # 123 blocks, the last of 144 rows, on worker threads, at both H
        for H in (0.3, 0.5):
            cfg = dict(self.CFG, model={"H": H, "vol": {"kind": "Linear", "b": 0.75}},
                       eps_ladder=[0.7, 0.6, 0.5], n_paths=250_000)
            out = tmp_path / f"o{H}"
            assert run(write_config(tmp_path, cfg), out=str(out)) == EXIT_OK
            p_cli = [float(r[2]) for r in read_csv(out / "simulate.csv")[1:]]
            params = ModelParams(hurst=HurstParams(H), vol=linear_vol(b=0.75))
            fit = ldp_slope(params, point_law(0.1), RescalingScheme("Tails", b=0.75),
                            cfg["eps_ladder"], cfg["level"], cfg["n_paths"], cfg["seed"],
                            grid=TimeGrid.uniform(16))
            assert p_cli == fit.p_hats
            assert all(p > 0 for p in p_cli)


class TestRateCommand:
    def test_schilder_like(self, tmp_path):
        p = write_config(tmp_path, {
            "command": "rate",
            "rate": {"kind": "smalltime", "level": 1.0, "b": 1.0},
            "grid": {"n": 24},
            "model": {"vol": {"kind": "Constant", "c": 1.0, "b": 1.0}},
        })
        out = tmp_path / "o"
        assert run(p, out=str(out)) == EXIT_OK
        rows = read_csv(out / "rate.csv")
        assert rows[0][0] == "problem_id"
        assert float(rows[1][2]) == pytest.approx(0.5, abs=1e-6)

    def test_nonconvergence_exit_code(self, tmp_path):
        # sigma == 0 makes the level unreachable; results still written
        p = write_config(tmp_path, {
            "command": "rate",
            "rate": {"kind": "smalltime", "level": 1.0, "b": 1.0},
            "grid": {"n": 16},
            "model": {"vol": {"kind": "Constant", "c": 0.0, "b": 1.0}},
        })
        out = tmp_path / "o"
        assert run(p, out=str(out)) == EXIT_NOCONV
        rows = read_csv(out / "rate.csv")
        assert rows[1][3] == "False"
        assert float(rows[1][2]) == math.inf

    def test_override_flag(self, tmp_path):
        p = write_config(tmp_path, {
            "command": "rate",
            "rate": {"kind": "smalltime", "level": 1.0, "b": 1.0},
            "grid": {"n": 16},
        })
        out = tmp_path / "o"
        assert run(p, overrides=["rate.level=2.0"], out=str(out)) == EXIT_OK
        m = json.loads((out / "run_manifest.json").read_text())
        assert m["config"]["rate"]["level"] == 2.0
        assert m["overrides"] == ["rate.level=2.0"]

    def test_bad_override(self, tmp_path):
        p = write_config(tmp_path, {"command": "verify"})
        assert run(p, overrides=["noequalsign"], out=str(tmp_path / "o")) == EXIT_CONFIG


class TestSmileCommand:
    def test_tail_slope(self, tmp_path):
        p = write_config(tmp_path, {
            "command": "smile",
            "smile": {"kind": "tail_slope", "b": 0.75, "t": 1.0},
            "grid": {"n": 24},
            "model": {"vol": {"kind": "Constant", "c": 1.0, "b": 0.75}},
        })
        out = tmp_path / "o"
        assert run(p, out=str(out)) == EXIT_OK
        rows = read_csv(out / "smile.csv")
        assert rows[0] == ["kind", "k", "t", "b", "H", "rate", "limit_value",
                           "error_bar"]
        assert float(rows[1][6]) == pytest.approx(4.0 / 9.0, rel=1e-6)

    def test_mc(self, tmp_path):
        p = write_config(tmp_path, {
            "command": "smile",
            "smile": {"kind": "mc", "t": 0.25, "strikes": [0.0, 0.1],
                      "n_paths": 5000, "method": "conditional"},
            "grid": {"n": 32},
            "model": {"vol": {"kind": "Linear", "b": 0.5}},
            "law": {"kind": "Point", "y0": 0.0},
            "seed": 4,
        })
        out = tmp_path / "o"
        assert run(p, out=str(out)) == EXIT_OK
        rows = read_csv(out / "smile.csv")
        assert len(rows) == 3
        assert [r[1] for r in rows[1:]] == ["0.0", "0.1"]


class TestVerifyCommand:
    def test_passes_and_prints(self, tmp_path, capsys):
        p = write_config(tmp_path, {"command": "verify"})
        out = tmp_path / "o"
        assert run(p, out=str(out)) == EXIT_OK
        text = capsys.readouterr().out
        assert "PASS schilder_value" in text
        rows = read_csv(out / "verify.csv")
        assert all(r[1] == "True" for r in rows[1:])
