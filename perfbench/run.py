"""Outside-in benchmark of the omnitft pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 36 --trace 0

The program is imported from the checkout's `src/` and driven through its
`omnitft` CLI, one command at a time, in this one process. `--trace 0`
reports the end-to-end metrics; `--trace 1` wraps the program's public
functions and reports per-layer metrics instead, and writes every span to
`.perfbench/trace-<workload>-seed<seed>.json`. The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

# End-to-end metrics in the result line, which every workload has. windows_per_s
# is the train rate on a training workload, and the cohort's windows per second
# of a dry-run, eval and label session on cohort-eval.
# The run prints the other command rates, session_s and val_pinball too; the
# traced run records them as cli.* and trainer.val_pinball.
GATED = ("setup_s", "windows_per_s", "peak_rss_mb")
# BLAS and ingest threads, capped at nproc; one keeps runs on a shared host steady.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OMNITFT_THREADS")


def pin_threads(nproc: int):
    """Set every thread count explicitly; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(min(THREADS, nproc))


def fingerprint(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": nproc,
        "cpu": cpu,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    if not (src / "omnitft" / "__init__.py").is_file():
        print(f"error: no omnitft package under {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    pin_threads(nproc)
    sys.path.insert(0, str(src))
    import omnitft

    if Path(omnitft.__file__).resolve().parent != src / "omnitft":
        print(f"error: imported omnitft from {omnitft.__file__}, not {src}", file=sys.stderr)
        return 2
    from bench import RATES, WORKLOADS, Bench, CommandFailed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    machine = fingerprint(nproc)
    print(json.dumps({"fingerprint": machine}))

    bench = Bench(root, args.workload, args.seed)
    try:
        bench.setup({**os.environ, "PYTHONPATH": str(src)})
        if args.trace:
            metrics, spans = bench.run_traced(args.seconds, nproc)
            trace_path = root / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(
                {"fingerprint": machine, "metrics": metrics, "spans": spans}))
        else:
            metrics = bench.run(args.seconds)
            for command, (name, _) in RATES.items():
                if command not in bench.spec.commands:
                    del metrics[name]
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            metrics["setup_s"] = (statistics.median(bench.setup_samples), "s")
    except CommandFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    if not args.trace and bench.val_pinball is not None:
        metrics["val_pinball"] = (bench.val_pinball, "pinball")
    metrics["ops_failed_frac"] = (bench.failed / max(bench.attempted, 1), "fraction")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{args.workload:16s} {name:40s} {value:16.6g} {unit}")
    print(f"{args.workload:16s} {bench.failed} of {bench.attempted} commands failed")
    reported = GATED if not args.trace else [n for n in metrics if n != "ops_failed_frac"]
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in sorted(reported)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
