"""Recompute the frozen references in perfbench/reference.json.

    python3 perfbench/make_reference.py

Takes about five minutes on two cores. The Monte Carlo references use many
more paths than a benchmark run, on seeds of their own, through the public
library API with the same inputs as the workloads in workloads.py:

- ladder_rough: P(X_1 >= level) at each eps from 20 batches of 100k paths;
- smile_mc_h_half: the mean implied vol over 20 independent 200k-path
  conditional smiles, and their spread, which is the per-run SE;
- rate_sweep: the deterministic rate values of one sweep.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import fracldp  # noqa: E402
from workloads import generate  # noqa: E402

BATCHES = 20
REF_ENTROPY = 20261017  # disjoint from the benchmark's seeds, which seed the CLI directly


def ladder_reference() -> dict:
    cfg = generate("ladder_rough", 0, ROOT)["config"]
    params = fracldp.ModelParams(hurst=fracldp.HurstParams(cfg["model"]["H"]),
                                 vol=fracldp.linear_vol(cfg["model"]["vol"]["b"]))
    law = fracldp.point_law(cfg["law"]["y0"])
    scheme = fracldp.RescalingScheme(fracldp.SchemeKind.TAILS, b=cfg["scheme"]["b"])
    grid = fracldp.TimeGrid.uniform(cfg["grid"]["n"])
    ladder, n = cfg["eps_ladder"], cfg["n_paths"]
    hits = [0] * len(ladder)
    for batch in np.random.SeedSequence(REF_ENTROPY).spawn(BATCHES):
        for i, (eps, ss) in enumerate(zip(ladder, batch.spawn(len(ladder)))):
            xb, _ = fracldp.simulate(params, law, scheme, eps, grid, n, np.random.default_rng(ss))
            hits[i] += int(np.sum(xb.values[:, -1] >= cfg["level"]))
    total = BATCHES * n
    return {"eps": ladder, "p": [h / total for h in hits], "n_paths": total}


def smile_reference() -> dict:
    cfg = generate("smile_mc_h_half", 0, ROOT)["config"]
    sd = cfg["smile"]
    params = fracldp.ModelParams(hurst=fracldp.HurstParams(cfg["model"]["H"]),
                                 vol=fracldp.linear_vol(cfg["model"]["vol"]["b"]))
    law = fracldp.point_law(cfg["law"]["y0"])
    ivs = []
    for b in range(BATCHES):
        pts = fracldp.mc_smile(params, law, sd["t"], sd["strikes"], sd["n_paths"],
                               REF_ENTROPY + b, n_grid=cfg["grid"]["n"], n_boot=2,
                               method=sd["method"])
        ivs.append([p.implied_vol for p in pts])
    cols = list(zip(*ivs))
    se_run = [statistics.stdev(c) for c in cols]
    return {"strikes": sd["strikes"], "iv": [statistics.fmean(c) for c in cols],
            "se_per_run": se_run, "se_ref": [s / math.sqrt(BATCHES) for s in se_run],
            "n_paths_per_run": sd["n_paths"], "runs": BATCHES}


def rate_reference() -> dict:
    inputs = generate("rate_sweep", 0, ROOT)
    m = inputs["model"]
    params = fracldp.ModelParams(
        rho=m["rho"], hurst=fracldp.HurstParams(m["H"]),
        vol=fracldp.affine_abs_vol(m["vol"]["c0"], m["vol"]["c1"], b=m["vol"]["b"]),
    )
    grid = fracldp.TimeGrid.uniform(inputs["grid_n"])
    out = {"forward_rate": {}}
    per_k = []
    for prob in inputs["problems"]:
        rate = getattr(fracldp, prob["fn"])(params, **prob["args"], grid=grid).rate_used.value
        if prob["fn"] == "tail_smile_slope":
            out["tail_rate"] = rate
        elif prob["fn"] == "forward_smile":
            out["forward_rate"][repr(prob["k"])] = rate
        else:
            per_k.append(rate / abs(prob["k"]))
    out["smalltime_rate_per_abs_k"] = statistics.median(per_k)
    return out


def main() -> int:
    ref = {
        "ladder_rough": ladder_reference(),
        "smile_mc_h_half": smile_reference(),
        "rate_sweep": rate_reference(),
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
