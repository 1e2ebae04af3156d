"""One run of one workload, in a fresh process.

    python3 perfbench/child.py INPUTS_JSON RUN_DIR T0 MODE

MODE is `setup` (set up, then stop), `run` or `trace` (run under the
per-layer tracer). T0 is the parent's `time.monotonic()` just before it
started this process, so `setup_s` includes interpreter start-up. The
result goes to RUN_DIR (the CLI's CSV, or `rate_sweep.json`) and the
measurements to RUN_DIR/child.json; checking is left to the parent.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _setup(inputs: dict, run_dir: Path):
    """Import fracldp from this checkout and build and validate the inputs.
    Returns the call that computes and writes the result."""
    sys.path.insert(0, str(ROOT / "src"))
    import fracldp

    if Path(fracldp.__file__).resolve().parent != ROOT / "src" / "fracldp":
        raise SystemExit(f"fracldp was imported from {fracldp.__file__}, not from {ROOT / 'src'}")
    if inputs["kind"] == "cli":
        import fracldp.cli

        fracldp.cli.validate_config(inputs["config"])
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(inputs["config"]))
        argv = ["--config", str(cfg_path), "--out", str(run_dir / "out")]
        return lambda: fracldp.cli.main(argv)

    m = inputs["model"]
    params = fracldp.ModelParams(
        rho=m["rho"], hurst=fracldp.HurstParams(m["H"]),
        vol=fracldp.affine_abs_vol(m["vol"]["c0"], m["vol"]["c1"], b=m["vol"]["b"]),
    )
    grid = fracldp.TimeGrid.uniform(inputs["grid_n"])

    def sweep():
        out = []
        for prob in inputs["problems"]:
            # looked up at call time, so the tracer's wrappers are used
            res = getattr(fracldp, prob["fn"])(params, **prob["args"], grid=grid)
            r = res.rate_used
            out.append({"fn": prob["fn"], "k": prob["k"], "rate": r.value,
                        "limit": res.limit_value, "converged": bool(r.converged),
                        "kkt": r.kkt_residual})
        (run_dir / "rate_sweep.json").write_text(json.dumps(out))
        return 0

    return sweep


def main(argv) -> int:
    inputs_path, run_dir, t0, mode = argv[1], Path(argv[2]), float(argv[3]), argv[4]
    inputs = json.loads(Path(inputs_path).read_text())
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
    compute = _setup(inputs, run_dir)
    if tracer is not None:
        tracer.install()
    setup_s = time.monotonic() - t0
    record = {"setup_s": setup_s}
    if mode != "setup":
        t1 = time.monotonic()
        record["exit_code"] = compute()
        record["wall_s"] = time.monotonic() - t1
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            record["trace"] = tracer.metrics()
    (run_dir / "child.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
