"""fracldp benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each measured run of the workload is a
fresh Python process (perfbench/child.py), as a CLI user gets one run per
process, so the program's matrix caches start cold every time. Runs follow
one another (a closed loop with one client). The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

--trace 0: one set-up-only process, then result processes while the next one
is expected to end within S seconds of the start (at least two); reports the
medians of the end-to-end metrics. --trace 1: one untraced and one traced
result process; reports the per-layer metrics of the traced one, and the
tracing overhead as the difference of their wall times.

Exit code 0 when every correctness gate passes, 1 when one fails, 2 when
the checkout has no fracldp source to run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

BLAS_THREADS = 1       # fixed before numpy loads; 1 keeps runs steady on a shared host
SETUP_PROBES = 1       # set-up-only processes per untraced run, for the setup_s median
MIN_RESULTS = 2        # result processes per untraced run, however long they take
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "time_to_10pct_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def spawn(inputs_path: Path, run_dir: Path, mode: str) -> dict:
    run_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(inputs_path), str(run_dir)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(t0), mode], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process exceeded {CHILD_TIMEOUT_S} s")
    record = run_dir / "child.json"
    if proc.returncode != 0 or not record.is_file():
        raise ChildFailed(f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(record.read_text())


def check(inputs: dict, run_dir: Path, record: dict, ref: dict):
    """Gate report for one result process, and its time_to_10pct_s."""
    name = inputs["workload"]
    wall = record["wall_s"]
    if name == "rate_sweep":
        path = run_dir / "rate_sweep.json"
        results = json.loads(path.read_text()) if path.is_file() else []
        return gates.check_rate_sweep(results, inputs["problems"], ref[name]), wall
    csv_name = "simulate.csv" if name == "ladder_rough" else "smile.csv"
    path = run_dir / "out" / csv_name
    text = path.read_text() if path.is_file() else ""
    if name == "ladder_rough":
        rep = gates.check_ladder(text, record["exit_code"], inputs["config"], ref[name])
        return rep, gates.time_to_10pct(wall, text, ref[name]) if rep.ok else wall
    rep = gates.check_smile(text, record["exit_code"], inputs["config"], ref[name])
    return rep, wall


def csv_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in (run_dir / "out").glob("*.csv"))


def measure(inputs: dict, inputs_path: Path, work: Path, ref: dict, seconds: float, trace: bool):
    """Run the processes of one benchmark run; returns (reports, metrics, notes)."""
    reports, n = [], itertools.count()

    def result(mode):
        run_dir = work / f"{mode}-{next(n)}"
        record = spawn(inputs_path, run_dir, mode)
        rep, t10 = check(inputs, run_dir, record, ref)
        reports.append(rep)
        return run_dir, record, t10

    if trace:
        _, plain, _ = result("run")
        run_dir, traced, _ = result("trace")
        metrics = dict(traced["trace"])
        metrics["cli.csv_bytes"] = csv_bytes(run_dir)
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return reports, metrics, f"traced wall_s {traced['wall_s']:.3f} s, untraced {plain['wall_s']:.3f} s"

    start = time.monotonic()
    setups = [spawn(inputs_path, work / f"setup-{next(n)}", "setup")["setup_s"]
              for _ in range(SETUP_PROBES)]
    records, t10s, spans = [], [], []
    # Start another result process only while it is expected to end within
    # the run's time, so that a run lasts about `seconds` whatever the workload.
    while len(records) < MIN_RESULTS or (
            time.monotonic() - start + statistics.median(spans) <= seconds):
        t0 = time.monotonic()
        _, record, t10 = result("run")
        spans.append(time.monotonic() - t0)
        records.append(record)
        t10s.append(t10)
    setups += [r["setup_s"] for r in records]
    walls = [r["wall_s"] for r in records]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "time_to_10pct_s": statistics.median(t10s),
    }
    note = (f"medians of {len(records)} results and {len(setups)} set-ups; "
            f"wall_s samples {' '.join(f'{w:.3f}' for w in walls)}")
    return reports, metrics, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fracldp benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fracldp" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no fracldp source (src/fracldp, configs/) under {ROOT}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    ref = json.loads((HERE / "reference.json").read_text())
    inputs = generate(args.workload, args.seed, ROOT)
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_out"))
    inputs_path = work / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))

    try:
        reports, metrics, note = measure(inputs, inputs_path, work, ref, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}\n(run files kept in {work})", file=sys.stderr)
        reports, metrics, note = [gates.Report(inputs["items"])], {}, "a process failed"
        reports[0].fail_all(str(exc))

    attempted = sum(r.attempted for r in reports)
    failed = sum(r.failed for r in reports)
    correct = bool(metrics) and all(r.ok for r in reports)
    units = {k: u for k, (u, _) in PER_LAYER.items()} if args.trace else END_TO_END
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} ({note})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted} items failed)")
    for rep in reports:
        for err in rep.errors:
            print(f"  FAILED {err}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
