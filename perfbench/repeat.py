"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py [--seeds 1-10] [--workloads NAME ...]
                                [--seconds 12] [--out FILE]

For each workload (by default those BENCHMARK.json lists), runs
`run.py --trace 0` once per seed, then prints each
end-to-end metric's median, quartiles and spread ((q3 - q1) / median, the
measure the bounds in BENCHMARK.json are set against). With --out it also
makes one traced run per workload at the first seed and writes everything,
with the machine and library versions, to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import BLAS_THREADS  # noqa: E402
from workloads import BENCHMARKED, WORKLOADS  # noqa: E402


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: benchmark failed")
    return result


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def context(seeds, seconds) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "cores": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": sha,
        "seeds": seeds,
        "run_seconds": seconds,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(BENCHMARKED))
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    report = {"context": context(args.seeds, args.seconds), "workloads": {}}
    for w in args.workloads:
        runs = [bench(w, s, args.seconds, 0) for s in args.seeds]
        metrics = {k: summary([r["metrics"][k]["value"] for r in runs]) for k in runs[0]["metrics"]}
        entry = {"end_to_end": metrics}
        print(f"{w}: {len(runs)} runs")
        for k, m in metrics.items():
            print(f"  {k:18s} median {m['median']:.6g}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  "
                  f"spread {m['spread']:.4f}  values {' '.join(f'{v:.4g}' for v in m['values'])}")
        if args.out:
            traced = bench(w, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][w] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
