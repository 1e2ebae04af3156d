"""Tests of the benchmark itself: each correctness gate fires on a corrupted
result, the workload generator is reproducible, BENCHMARK.json matches what
the runner prints, and the runner refuses a checkout without the program.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import run  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import BENCHMARKED, WORKLOADS, generate  # noqa: E402

ROOT = HERE.parent
REF = json.loads((HERE / "reference.json").read_text())


def to_csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# -- ladder_rough ------------------------------------------------------------

LADDER_CFG = generate("ladder_rough", 1, ROOT)["config"]
LADDER_REF = REF["ladder_rough"]


def ladder_csv(p_hats=None, n=LADDER_CFG["n_paths"]):
    p_hats = LADDER_REF["p"] if p_hats is None else p_hats
    rows = [[repr(e), "0.5", repr(p), repr(math.sqrt(p * (1 - p) / n)), "", n, 1]
            for e, p in zip(LADDER_CFG["eps_ladder"], p_hats)]
    return to_csv(["eps", "level", "p_hat", "std_err", "h_eps_log_p", "n_paths", "seed"], rows)


def test_ladder_accepts_reference_values():
    rep = gates.check_ladder(ladder_csv(), 0, LADDER_CFG, LADDER_REF)
    assert rep.ok and rep.attempted == 4 and rep.failed == 0


def test_ladder_rejects_censored_point():
    p = list(LADDER_REF["p"])
    p[-1] = 0.0
    rep = gates.check_ladder(ladder_csv(p), 0, LADDER_CFG, LADDER_REF)
    assert rep.failed_items == {3} and "censored" in rep.errors[0]


def test_ladder_rejects_p_hat_off_by_six_se():
    p = list(LADDER_REF["p"])
    n, n_ref = LADDER_CFG["n_paths"], LADDER_REF["n_paths"]
    se = math.sqrt(p[1] * (1 - p[1]) * (1 / n + 1 / n_ref))
    p[1] += 6 * se
    assert gates.check_ladder(ladder_csv(p), 0, LADDER_CFG, LADDER_REF).failed_items == {1}
    p[1] -= 2 * se  # 4 SE: within the gate
    assert gates.check_ladder(ladder_csv(p), 0, LADDER_CFG, LADDER_REF).ok


def test_ladder_rejects_nonzero_exit_and_missing_rows():
    assert gates.check_ladder(ladder_csv(), 3, LADDER_CFG, LADDER_REF).failed == 4
    short = "\n".join(ladder_csv().splitlines()[:-1]) + "\n"
    assert gates.check_ladder(short, 0, LADDER_CFG, LADDER_REF).failed == 4


def test_ladder_rejects_wrong_path_count():
    rep = gates.check_ladder(ladder_csv(n=1000), 0, LADDER_CFG, LADDER_REF)
    assert rep.failed == 4


def test_time_to_10pct_uses_reference_probability_and_reported_variance():
    n = LADDER_CFG["n_paths"]
    p_ref = LADDER_REF["p"][-1]
    expected = 2.0 * (1 - p_ref) / (p_ref * n) / 0.01
    # crude Monte Carlo: any p_hat gives the same value
    for scale in (0.8, 1.0, 1.25):
        p = [q * scale for q in LADDER_REF["p"]]
        assert gates.time_to_10pct(2.0, ladder_csv(p), LADDER_REF) == pytest.approx(expected, rel=1e-12)
    # an estimator reporting half the binomial variance halves the time
    text = ladder_csv()
    rows = list(csv.reader(io.StringIO(text)))
    rows[-1][3] = repr(float(rows[-1][3]) / math.sqrt(2))
    assert gates.time_to_10pct(2.0, to_csv(rows[0], rows[1:]), LADDER_REF) == pytest.approx(expected / 2)


# -- smile_mc_h_half -----------------------------------------------------------

SMILE_CFG = generate("smile_mc_h_half", 1, ROOT)["config"]
SMILE_REF = REF["smile_mc_h_half"]


def smile_csv(ivs=None, errs=None):
    ivs = SMILE_REF["iv"] if ivs is None else ivs
    errs = SMILE_REF["se_per_run"] if errs is None else errs
    rows = [["mc", repr(k), "0.25", "0.5", "0.5", "", repr(v), repr(e)]
            for k, v, e in zip(SMILE_CFG["smile"]["strikes"], ivs, errs)]
    return to_csv(["kind", "k", "t", "b", "H", "rate", "limit_value", "error_bar"], rows)


def test_smile_accepts_reference_values():
    rep = gates.check_smile(smile_csv(), 0, SMILE_CFG, SMILE_REF)
    assert rep.ok and rep.attempted == 5


def test_smile_rejects_censored_strike():
    ivs, errs = list(SMILE_REF["iv"]), list(SMILE_REF["se_per_run"])
    ivs[0], errs[0] = 0.0, math.nan
    assert gates.check_smile(smile_csv(ivs, errs), 0, SMILE_CFG, SMILE_REF).failed_items == {0}


def test_smile_rejects_implied_vol_off_by_six_se():
    ivs = list(SMILE_REF["iv"])
    ivs[2] += 6 * math.hypot(SMILE_REF["se_per_run"][2], SMILE_REF["se_ref"][2])
    assert gates.check_smile(smile_csv(ivs), 0, SMILE_CFG, SMILE_REF).failed_items == {2}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-4])
def test_smile_rejects_error_bar_not_finite_positive(bad):
    errs = list(SMILE_REF["se_per_run"])
    errs[4] = bad
    assert gates.check_smile(smile_csv(errs=errs), 0, SMILE_CFG, SMILE_REF).failed_items == {4}


@pytest.mark.parametrize("factor", [0.1, 10.0])
def test_smile_rejects_error_bar_of_wrong_size(factor):
    errs = [e * factor for e in SMILE_REF["se_per_run"]]
    assert gates.check_smile(smile_csv(errs=errs), 0, SMILE_CFG, SMILE_REF).failed == 5


def test_smile_rejects_nonzero_exit():
    assert gates.check_smile(smile_csv(), 2, SMILE_CFG, SMILE_REF).failed == 5


# -- rate_sweep ----------------------------------------------------------------

RATE_IN = generate("rate_sweep", 1, ROOT)
RATE_REF = REF["rate_sweep"]


def rate_results():
    out = []
    for prob in RATE_IN["problems"]:
        if prob["fn"] == "tail_smile_slope":
            rate = RATE_REF["tail_rate"]
        elif prob["fn"] == "forward_smile":
            rate = RATE_REF["forward_rate"][repr(prob["k"])]
        else:
            rate = RATE_REF["smalltime_rate_per_abs_k"] * abs(prob["k"])
        out.append({"fn": prob["fn"], "k": prob["k"], "rate": rate, "limit": 1.0,
                    "converged": True, "kkt": 1e-9})
    return out


def index_of(fn, k=None):
    return next(i for i, p in enumerate(RATE_IN["problems"])
                if p["fn"] == fn and (k is None or p["k"] == k))


def test_rate_sweep_accepts_reference_values():
    rep = gates.check_rate_sweep(rate_results(), RATE_IN["problems"], RATE_REF)
    assert rep.ok and rep.attempted == 25


@pytest.mark.parametrize("field,value", [("converged", False), ("kkt", 1e-5), ("rate", math.inf)])
def test_rate_sweep_rejects_unconverged_result(field, value):
    res = rate_results()
    i = index_of("forward_smile", -0.3)
    res[i][field] = value
    assert gates.check_rate_sweep(res, RATE_IN["problems"], RATE_REF).failed_items == {i}


def test_rate_sweep_rejects_broken_homogeneity():
    res = rate_results()
    i = index_of("smalltime_smile", 0.25)
    res[i]["rate"] *= 1 + 1e-5
    assert gates.check_rate_sweep(res, RATE_IN["problems"], RATE_REF).failed_items == {i}


def test_rate_sweep_rejects_uniformly_wrong_smalltime_rate():
    res = rate_results()
    for r in res:
        if r["fn"] == "smalltime_smile":
            r["rate"] *= 1.001
    assert gates.check_rate_sweep(res, RATE_IN["problems"], RATE_REF).failed == 16


@pytest.mark.parametrize("fn,k", [("tail_smile_slope", None), ("forward_smile", 0.1)])
def test_rate_sweep_rejects_values_off_reference(fn, k):
    res = rate_results()
    i = index_of(fn, k)
    res[i]["rate"] *= 1 + 1e-4
    assert gates.check_rate_sweep(res, RATE_IN["problems"], RATE_REF).failed_items == {i}


def test_rate_sweep_rejects_missing_result():
    res = rate_results()
    del res[0]
    assert gates.check_rate_sweep(res, RATE_IN["problems"], RATE_REF).failed == 1


# -- generator, contract, refusal ------------------------------------------------

def test_generator_is_reproducible_and_seeded():
    for name in WORKLOADS:
        assert generate(name, 5, ROOT) == generate(name, 5, ROOT)
    assert generate("ladder_rough", 5, ROOT)["config"]["seed"] == 5
    a, b = generate("rate_sweep", 5, ROOT)["problems"], generate("rate_sweep", 6, ROOT)["problems"]
    assert a != b and sorted(map(json.dumps, a)) == sorted(map(json.dumps, b))


def test_benchmark_json_matches_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(BENCHMARKED)
    assert set(BENCHMARKED) <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER


def test_refuses_checkout_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rate_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
