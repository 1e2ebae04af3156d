"""Correctness gates: each checks one run's written result against frozen
references (`reference.json`) and counts the items that fail.

Items are ladder points (`ladder_rough`), strikes (`smile_mc_h_half`) and
rate problems (`rate_sweep`). A failure of the whole run, such as a non-zero
exit code or a missing row, fails every item.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass, field

N_SE = 5.0             # Monte Carlo gates: |estimate - reference| <= 5 combined SE
KKT_MAX = 1e-6         # rate_sweep: largest accepted KKT residual
HOMOGENEITY_RTOL = 1e-6
# rate values vs frozen references: quadrature error at H = 0.3 is ~1e-9
# relative, so a more accurate quadrature still passes
RATE_RTOL = 1e-5
ERROR_BAR_FACTOR = 3.0  # smile error bar within this factor of the frozen per-run SE
TARGET_REL_SE = 0.10


@dataclass
class Report:
    attempted: int
    failed_items: set = field(default_factory=set)
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_items)

    @property
    def ok(self) -> bool:
        return not self.failed_items and not self.errors

    def fail(self, item, why: str):
        self.failed_items.add(item)
        self.errors.append(f"{item}: {why}")

    def fail_all(self, why: str):
        self.failed_items.update(range(self.attempted))
        self.errors.append(why)


def _rows(csv_text: str) -> list:
    return list(csv.DictReader(io.StringIO(csv_text)))


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def check_ladder(csv_text: str, exit_code: int, config: dict, ref: dict) -> Report:
    """Exit code 0, no censored ladder point, and each p_hat within 5
    combined binomial SE of the frozen high-path reference at the same eps."""
    ladder = config["eps_ladder"]
    rep = Report(len(ladder))
    if exit_code != 0:
        rep.fail_all(f"CLI exit code {exit_code}")
        return rep
    rows = _rows(csv_text)
    if len(rows) != len(ladder):
        rep.fail_all(f"{len(rows)} ladder rows, expected {len(ladder)}")
        return rep
    for i, (row, eps) in enumerate(zip(rows, ladder)):
        try:
            e, p, n = float(row["eps"]), float(row["p_hat"]), int(row["n_paths"])
        except (KeyError, ValueError) as exc:
            rep.fail(i, f"unreadable row {row}: {exc}")
            continue
        if e != eps or n != config["n_paths"]:
            rep.fail(i, f"row is eps={e}, n_paths={n}; expected eps={eps}, n_paths={config['n_paths']}")
            continue
        if not p > 0.0:
            rep.fail(i, f"censored at eps={eps}: p_hat={p}")
            continue
        p_ref = ref["p"][ref["eps"].index(eps)]
        se = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / n + 1.0 / ref["n_paths"]))
        if not abs(p - p_ref) <= N_SE * se:
            rep.fail(i, f"p_hat={p} vs reference {p_ref} at eps={eps}: "
                        f"{abs(p - p_ref) / se:.1f} SE > {N_SE}")
    return rep


def check_smile(csv_text: str, exit_code: int, config: dict, ref: dict) -> Report:
    """No censored strike, each implied vol within 5 combined SE of the
    frozen reference, and each error bar finite, positive and of the size
    of the frozen per-run SE."""
    strikes = config["smile"]["strikes"]
    rep = Report(len(strikes))
    if exit_code != 0:
        rep.fail_all(f"CLI exit code {exit_code}")
        return rep
    rows = _rows(csv_text)
    if len(rows) != len(strikes):
        rep.fail_all(f"{len(rows)} smile rows, expected {len(strikes)}")
        return rep
    for i, (row, k) in enumerate(zip(rows, strikes)):
        try:
            kk, iv, err = float(row["k"]), float(row["limit_value"]), float(row["error_bar"])
        except (KeyError, ValueError) as exc:
            rep.fail(i, f"unreadable row {row}: {exc}")
            continue
        if kk != k:
            rep.fail(i, f"row has k={kk}, expected {k}")
            continue
        if not (math.isfinite(iv) and iv > 0.0):
            rep.fail(i, f"censored strike k={k}: implied vol {iv}")
            continue
        j = ref["strikes"].index(k)
        se_run, se_ref = ref["se_per_run"][j], ref["se_ref"][j]
        if not (math.isfinite(err) and err > 0.0):
            rep.fail(i, f"error bar {err} at k={k} is not finite and positive")
            continue
        if not se_run / ERROR_BAR_FACTOR <= err <= se_run * ERROR_BAR_FACTOR:
            rep.fail(i, f"error bar {err} at k={k} is off the per-run SE {se_run} "
                        f"by more than a factor {ERROR_BAR_FACTOR}")
            continue
        se = math.hypot(se_run, se_ref)
        if not abs(iv - ref["iv"][j]) <= N_SE * se:
            rep.fail(i, f"implied vol {iv} vs reference {ref['iv'][j]} at k={k}: "
                        f"{abs(iv - ref['iv'][j]) / se:.1f} SE > {N_SE}")
    return rep


def check_rate_sweep(results: list, problems: list, ref: dict) -> Report:
    """Every problem converged with KKT residual <= 1e-6; the small-time rate
    is homogeneous of degree 1 in k; tail, small-time and forward values
    match the frozen references."""
    rep = Report(len(problems))
    got = {(r["fn"], r["k"]): r for r in results}
    smalltime = []
    for i, prob in enumerate(problems):
        r = got.get((prob["fn"], prob["k"]))
        if r is None:
            rep.fail(i, f"no result for {prob['fn']}(k={prob['k']})")
            continue
        rate = r["rate"]
        if not (r["converged"] and math.isfinite(rate) and rate > 0.0):
            rep.fail(i, f"{prob['fn']}(k={prob['k']}) did not converge: rate={rate}")
        elif not r["kkt"] <= KKT_MAX:
            rep.fail(i, f"{prob['fn']}(k={prob['k']}) KKT residual {r['kkt']} > {KKT_MAX}")
        elif prob["fn"] == "smalltime_smile":
            smalltime.append((i, rate / abs(prob["k"])))
        elif prob["fn"] == "tail_smile_slope":
            if not _close(rate, ref["tail_rate"], RATE_RTOL):
                rep.fail(i, f"tail rate {rate} vs reference {ref['tail_rate']}")
        else:
            want = ref["forward_rate"][repr(prob["k"])]
            if not _close(rate, want, RATE_RTOL):
                rep.fail(i, f"forward rate {rate} at k={prob['k']} vs reference {want}")
    if smalltime:
        mid = statistics.median(v for _, v in smalltime)
        want = ref["smalltime_rate_per_abs_k"]
        for i, v in smalltime:
            if abs(v - mid) > HOMOGENEITY_RTOL * mid:
                rep.fail(i, f"small-time rate/|k| = {v} breaks homogeneity (median {mid})")
            elif not _close(v, want, RATE_RTOL):
                rep.fail(i, f"small-time rate/|k| = {v} vs reference {want}")
    return rep


def time_to_10pct(wall_s: float, csv_text: str, ref: dict) -> float:
    """wall_s * (rel_se / 0.10)^2 at the smallest eps of the ladder.

    rel_se^2 = VR * (1 - p_ref) / (p_ref * n): the binomial relative variance
    at the frozen reference probability, times VR, the reported variance
    over the crude binomial variance at p_hat. VR is 1 for crude Monte Carlo
    and drops below 1 for a variance-reduced estimator. Evaluating at p_ref
    rather than p_hat keeps the seed noise of the ~85 hits at the smallest
    eps (about 11% per run) out of the metric.
    """
    row = min(_rows(csv_text), key=lambda r: float(r["eps"]))
    eps, p, se, n = float(row["eps"]), float(row["p_hat"]), float(row["std_err"]), int(row["n_paths"])
    p_ref = ref["p"][ref["eps"].index(eps)]
    vr = se * se * n / (p * (1.0 - p)) if 0.0 < p < 1.0 else 1.0
    rel_var = vr * (1.0 - p_ref) / (p_ref * n)
    return wall_s * rel_var / TARGET_REL_SE ** 2
