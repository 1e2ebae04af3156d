"""Workload generator: turns (workload name, seed) into the inputs of one run.

The program under test only ever sees what `generate` returns: a CLI config
for the two CLI workloads, or the list of library calls for `rate_sweep`.
The same seed always gives the same inputs.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

WORKLOADS = ("ladder_rough", "smile_mc_h_half", "rate_sweep")
# The workloads BENCHMARK.json lists. smile_mc_h_half stays runnable by hand
# but is left out of the timed set: see README.md, "Run-to-run noise".
BENCHMARKED = ("ladder_rough", "rate_sweep")

# rate_sweep: model and problems of one asymptotic smile curve at H = 0.3
RATE_MODEL = {"H": 0.3, "rho": -0.5, "vol": {"c0": 0.1, "c1": 1.0, "b": 0.5}}
RATE_GRID_N = 64
SMALLTIME_KS = [round(s * 0.05 * i, 2) for i in range(1, 9) for s in (1, -1)]
FORWARD_KS = [round(s * 0.1 * i, 1) for i in range(1, 5) for s in (1, -1)]


def _rate_problems() -> list:
    problems = [{"fn": "tail_smile_slope", "k": None, "args": {"b": 1.0, "t": 1.0}}]
    problems += [{"fn": "smalltime_smile", "k": k, "args": {"k": k, "b": 0.5}} for k in SMALLTIME_KS]
    problems += [{"fn": "forward_smile", "k": k, "args": {"sigma0": 0.2, "t": 0.5, "k": k}}
                 for k in FORWARD_KS]
    return problems


def generate(name: str, seed: int, root: Path) -> dict:
    """Inputs of one run of workload `name` at `seed`.

    The CLI workloads take the shipped config and set its seed; the seed is
    the only thing that varies between runs. `rate_sweep` is deterministic,
    so the seed sets the order in which its problems are solved.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if name == "ladder_rough":
        cfg = json.loads((root / "configs" / "simulate_tails.json").read_text())
        cfg["model"]["H"] = 0.3
        cfg["seed"] = seed
        return {"workload": name, "seed": seed, "kind": "cli", "config": cfg,
                "items": len(cfg["eps_ladder"])}
    if name == "smile_mc_h_half":
        cfg = json.loads((root / "configs" / "smile_mc.json").read_text())
        cfg["seed"] = seed
        return {"workload": name, "seed": seed, "kind": "cli", "config": cfg,
                "items": len(cfg["smile"]["strikes"])}
    if name == "rate_sweep":
        problems = _rate_problems()
        random.Random(seed).shuffle(problems)
        return {"workload": name, "seed": seed, "kind": "library",
                "model": copy.deepcopy(RATE_MODEL), "grid_n": RATE_GRID_N,
                "problems": problems, "items": len(problems)}
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
