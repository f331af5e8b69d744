"""Workloads, the closed-loop session that drives the omnitft CLI, and the
output checks.

One client issues one command at a time. A session of a training workload
is one `train`; a session of `cohort-eval` is `train --dry-run`, `eval` of a
checkpoint trained once during set-up, and `label --method hmm`. The workloads
differ in cohort size, model config and commands, which decides the layer
each one stresses.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from omnitft import cli, ingest
from omnitft.schema import load_schema

from tracer import GRN_SPANS, NODE_COUNTED, SPANS, Tracer

DESK_MODEL = {"hidden": 16, "heads": 2, "blocks": 2, "dropout": 0.1}
REFERENCE_MODEL = {"hidden": 128, "heads": 6, "blocks": 4, "dropout": 0.3}
# One epoch with patience >= max_epochs, so early stopping never shortens a run.
EPOCHS = {"max_epochs": 1, "patience": 1, "seed": 0}


@dataclass(frozen=True)
class Workload:
    patients: int
    config: dict
    commands: tuple  # what one session issues, in order


WORKLOADS = {
    # Python overhead per tape node dominates a batch-32 train step at desk
    # width; GEMMs are tiny and ingest is a small share of train.
    "desk-train": Workload(
        64, {"lr": 3e-3, "batch": 32, "model": DESK_MODEL, **EPOCHS}, ("train",)
    ),
    # GEMMs in the matmul VJP dominate at reference width and tape memory sets
    # peak RSS; per-node overhead and ingest are small shares.
    "reference-train": Workload(
        12, {"lr": 1e-5, "batch": 64, "model": REFERENCE_MODEL, **EPOCHS}, ("train",)
    ),
    # Forward-only batch-256 passes over the 70-patient train split, ingest,
    # sampler and the HMM labeler; set-up trains the checkpoint, so no backward
    # pass runs in the timed sessions.
    "cohort-eval": Workload(
        100, {"lr": 3e-3, "batch": 256, "model": DESK_MODEL, **EPOCHS},
        ("dryrun", "eval", "label"),
    ),
}

COMMANDS = ("dryrun", "train", "eval", "label")
# Rate of each command: its name and unit.
RATES = {
    "dryrun": ("dryrun_events_per_s", "events/s"),
    "train": ("train_windows_per_s", "windows/s"),
    "eval": ("eval_windows_per_s", "windows/s"),
    "label": ("label_windows_per_s", "windows/s"),
}
EVAL_SPLIT = "train"  # the largest split, so forward passes outweigh ingest
# Every synthetic patient gets the same length, so split sizes and window counts
# do not vary with the seed; only the values and regime paths do.
SERIES_STEPS = 72
MIN_SESSIONS = 2  # two train runs per process, so history.csv can be compared


class CommandFailed(Exception):
    pass


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _tail(samples: list):
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - pct / 100.0) >= 10:
            return float(np.percentile(samples, pct)), pct
    return float(max(samples)), 100.0


class Bench:
    """One workload in one process: set-up, sessions, checks and metrics."""

    def __init__(self, root: Path, name: str, seed: int):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = root / ".perfbench" / f"work-{name}-{seed}-{os.getpid()}"
        self.cohort = self.work / "cohort0"
        self.schema = self.cohort / "schema.json"
        self.config = self.work / "config.json"
        self.env = None  # environment of the `synth` subprocesses
        self.digest = None  # sha256 of the set-up cohort's data.csv
        self.attempted = 0
        self.failed = 0
        self.samples = {c: [] for c in COMMANDS}  # (seconds, units) per command
        self.setup_samples = []  # seconds of each `omnitft synth`
        self.window_counts = None
        self.history = None
        self.val_pinball = None
        self.optimiser_windows = None
        self.events = None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    # -- commands --------------------------------------------------------------

    def _cli(self, label: str, argv: list, tracer=None) -> tuple:
        """Run one CLI command in-process; returns (stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        scope = tracer.command("cli." + label) if tracer else nullcontext()
        excluded = tracer.excluded_total if tracer else 0.0
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err), scope:
                rc = cli.main([str(a) for a in argv])
        except (Exception, SystemExit):
            raise CommandFailed(f"{label} raised\n{traceback.format_exc()}{err.getvalue()}")
        seconds = time.perf_counter() - t0
        if tracer:
            seconds -= tracer.excluded_total - excluded
        if rc != 0:
            raise CommandFailed(f"{label} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue(), seconds

    def _attempt(self, fn, *args):
        """Count one attempted command; a failed command or check is counted."""
        self.attempted += 1
        try:
            return fn(*args)
        except (CommandFailed, OSError, ValueError, KeyError) as e:
            self.failed += 1
            print(f"[{self.name}] FAILED {type(e).__name__}: {e}", file=sys.stderr)
            return None

    # -- set-up ------------------------------------------------------------------

    def setup(self, env: dict):
        """Generate the cohort with `omnitft synth`. A workload that evaluates
        then trains its checkpoint once, untimed."""
        self.work.mkdir(parents=True)
        self.env = env
        self.attempted += 1
        self._synth(self.cohort)
        self.digest = hashlib.sha256((self.cohort / "data.csv").read_bytes()).hexdigest()
        self.config.write_text(json.dumps(self.spec.config))
        with open(self.cohort / "data.csv") as fh:
            self.events = sum(1 for _ in fh) - 1
        if "eval" in self.spec.commands:
            self.attempted += 1
            self._train(self._train_argv(self.work / "setup-train"))

    def _synth(self, out: Path):
        """Run `omnitft synth` in a fresh interpreter and record its seconds,
        from process start to exit."""
        argv = [sys.executable, "-m", "omnitft.cli", "synth",
                "--patients", str(self.spec.patients), "--shock-rate", "0.3",
                "--min-steps", str(SERIES_STEPS), "--max-steps", str(SERIES_STEPS),
                "--seed", str(self.seed), "--out", str(out)]
        t0 = time.perf_counter()
        done = subprocess.run(argv, env=self.env, capture_output=True, text=True)
        seconds = time.perf_counter() - t0
        if done.returncode != 0:
            raise CommandFailed(f"synth exited {done.returncode}: {done.stderr.strip()}")
        self.setup_samples.append(seconds)

    def _resynth(self, out: Path):
        """Set-up again, so that set-up time is sampled across the whole run; the
        cohort must come out byte-identical."""
        self._synth(out)
        if hashlib.sha256((out / "data.csv").read_bytes()).hexdigest() != self.digest:
            raise CommandFailed("synth wrote another cohort for the same seed")

    # -- one session -------------------------------------------------------------

    def _train_argv(self, out: Path) -> list:
        return ["train", "--data", self.cohort, "--schema", self.schema,
                "--config", self.config, "--out", out]

    def session(self, k: int, tracer=None):
        """Set-up again, then each of the workload's commands once."""
        out = self.work / f"s{k}"
        self._attempt(self._resynth, out / "cohort")
        calls = {
            "dryrun": (self._dryrun, self._train_argv(out / "dry") + ["--dry-run"]),
            "train": (self._timed_train, self._train_argv(out / "train")),
            "eval": (self._eval, [
                "eval", "--checkpoint", self.work / "setup-train" / "checkpoint.bin",
                "--data", self.cohort, "--out", out / "eval", "--split", EVAL_SPLIT]),
            "label": (self._label, [
                "label", "--data", self.cohort, "--schema", self.schema, "--method", "hmm",
                "--out", out / "label"]),
        }
        for command in self.spec.commands:
            fn, argv = calls[command]
            self._attempt(fn, argv, tracer)
        shutil.rmtree(out, ignore_errors=True)

    def _counts(self) -> dict:
        if self.window_counts is None:
            raise CommandFailed("no dry run has enumerated the windows")
        return self.window_counts

    def _record(self, label: str, seconds: float, units: float):
        self.samples[label].append((seconds, units))

    def _dryrun(self, argv, tracer):
        stdout, seconds = self._cli("dryrun", argv, tracer)
        found = re.search(r"windows per split (\{[^}]*\})", stdout)
        if not found:
            raise CommandFailed(f"dry run printed no window counts: {stdout!r}")
        counts = ast.literal_eval(found.group(1))
        if self.window_counts is None:
            self.window_counts = counts
        elif counts != self.window_counts:
            raise CommandFailed(f"window counts changed: {counts} != {self.window_counts}")
        self._record("dryrun", seconds, self.events)

    def _train(self, argv, tracer=None) -> tuple:
        """Run and check `train`; returns its seconds."""
        _, seconds = self._cli("train", argv, tracer)
        run_dir = Path(argv[argv.index("--out") + 1])
        history = (run_dir / "history.csv").read_bytes()
        rows = [line.split(",") for line in history.decode().splitlines()[1:]]
        values = [float(v) for row in rows for v in row]
        if len(rows) != self.spec.config["max_epochs"] + 1 or not _finite(values):
            raise CommandFailed(f"history.csv has {len(rows)} rows or a non-finite value")
        if self.history is None:
            self.history = history
            # The last epoch's loss, not the best: the best can be the
            # untrained epoch-0 baseline, which no change to training moves.
            self.val_pinball = float(rows[-1][-1])
        elif history != self.history:
            raise CommandFailed("history.csv differs between two runs with one seed")
        return seconds

    def _timed_train(self, argv, tracer):
        seconds = self._train(argv, tracer)
        if self.optimiser_windows is None:
            run_dir = Path(argv[argv.index("--out") + 1])
            self.optimiser_windows = self._count_optimiser_windows(run_dir)
        self._record("train", seconds, self.optimiser_windows)

    def _count_optimiser_windows(self, run_dir: Path) -> int:
        """Sum of the balanced epoch sizes, recomputed from the run's own grids."""
        schema = load_schema(self.schema)
        train_split = {"train": ingest.read_split_grids(run_dir, schema)["train"]}
        deltas = json.loads((run_dir / "resolved_config.json").read_text())["deltas"]
        pools, _ = cli.build_window_pools(train_split, schema, deltas)
        per_epoch = 0
        for windows in pools["train"].values():
            volatile = sum(w.is_volatile for w in windows)
            stable = len(windows) - volatile
            per_epoch += 2 * min(stable, volatile) if stable and volatile else len(windows)
        return per_epoch * self.spec.config["max_epochs"]

    def _eval(self, argv, tracer):
        _, seconds = self._cli("eval", argv, tracer)
        run_dir = Path(argv[argv.index("--out") + 1])
        reports = json.loads((run_dir / "metrics.json").read_text())
        numbers = [r[k] for r in reports for k in
                   ("mae", "rmse", "p10_coverage", "p10_pinball", "p90_coverage", "p90_pinball")]
        coverages = [r[k] for r in reports for k in ("p10_coverage", "p90_coverage")]
        if not reports or not _finite(numbers) or not all(0.0 <= c <= 1.0 for c in coverages):
            raise CommandFailed(f"metrics.json not finite or coverage outside [0, 1]: {reports}")
        windows = self._counts()[EVAL_SPLIT]
        horizon = load_schema(self.schema).horizon_len
        if sum(r["n_points"] for r in reports) != windows * horizon:
            raise CommandFailed(f"eval did not score {windows} windows x {horizon} steps")
        self._record("eval", seconds, windows)

    def _label(self, argv, tracer):
        _, seconds = self._cli("label", argv, tracer)
        run_dir = Path(argv[argv.index("--out") + 1])
        summary = json.loads((run_dir / "label_summary.json").read_text())
        total = sum(self._counts().values())
        if sum(summary["counts"].values()) != total or summary["total_windows"] != total:
            raise CommandFailed(f"label counts {summary['counts']} do not sum to {total} windows")
        self._record("label", seconds, total)

    # -- runs ----------------------------------------------------------------------

    def _loop(self, seconds: float, minimum: int, step) -> int:
        """Closed loop: start another round while its expected end is inside the run."""
        start, last, k = time.perf_counter(), 0.0, 0
        while k < minimum or time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            step(k)
            last = time.perf_counter() - t0
            k += 1
        return k

    def run_rates(self, samples: dict) -> dict:
        """Each command's rate over the run: its units over its seconds, summed
        over every repetition. Also `session_s`, the sum of the commands' mean
        seconds. All as (value, unit); a command the workload does not issue
        has rate 0.

        `windows_per_s` is the rate of what a session does: optimiser windows
        per second of `train` on a training workload; otherwise the cohort's
        windows (every split) per second of a whole session, so a slower dry
        run, eval or label each shows in it.

        The host's cores switch between a fast and a slow speed every few
        seconds. A ratio of sums weighs the run's fast and slow stretches by
        their length. The median repetition instead jumps from one speed to
        the other when their shares of the run are close.
        """
        missing = [c for c in self.spec.commands if not samples[c]]
        if missing:
            raise CommandFailed(f"no successful {missing} command to measure")
        seconds = {c: sum(s for s, _ in samples[c]) for c in self.spec.commands}
        metrics = {
            name: (sum(u for _, u in samples[c]) / seconds[c] if c in seconds else 0.0, unit)
            for c, (name, unit) in RATES.items()
        }
        session_s = sum(seconds[c] / len(samples[c]) for c in seconds)
        metrics["session_s"] = (session_s, "s")
        if "train" in seconds:
            metrics["windows_per_s"] = metrics[RATES["train"][0]]
        else:
            metrics["windows_per_s"] = (sum(self._counts().values()) / session_s, "windows/s")
        return metrics

    def run(self, seconds: float) -> dict:
        """Untraced run; rates over the run and session seconds."""
        self._loop(seconds, MIN_SESSIONS, self.session)
        return self.run_rates(self.samples)

    def run_traced(self, seconds: float, nproc: int) -> tuple:
        """Untraced and traced sessions in turn; per-layer metrics and spans.

        A first untraced session warms the process up (its first ingest is
        slower), then traced and untraced sessions alternate. Tracing overhead
        per command is its median traced time over its median untraced time,
        minus one. The untraced sessions also give each command's rate.
        """
        start = time.perf_counter()
        self.session(0)
        tracer = Tracer()
        untraced = {c: [] for c in COMMANDS}

        def pair(k: int):
            with tracer.installed():
                self.session(2 * k + 1, tracer)
            before = {c: len(self.samples[c]) for c in COMMANDS}
            self.session(2 * k + 2)
            for c in COMMANDS:
                untraced[c].extend(self.samples[c][before[c]:])

        pairs = self._loop(seconds - (time.perf_counter() - start), 1, pair)
        metrics = layer_metrics(tracer, pairs)
        for name, value in self.run_rates(untraced).items():
            if name != "windows_per_s":  # end to end; the rest are per command
                metrics["cli." + name] = value
        metrics["trainer.val_pinball"] = (self.val_pinball, "pinball")
        records = tracer.span_records()
        for c in COMMANDS:
            traced = [r["inclusive_s"] for r in records if r["name"] == "cli." + c]
            self_s = [r["self_s"] for r in records if r["name"] == "cli." + c]
            overhead = uncovered = 0.0
            if traced:
                untraced_s = statistics.median(s for s, _ in untraced[c])
                overhead = statistics.median(traced) / untraced_s - 1.0
                uncovered = sum(self_s) / sum(traced)
            metrics[f"trace.{c}.overhead_frac"] = (overhead, "fraction")
            metrics[f"trace.{c}.uncovered_frac"] = (uncovered, "fraction")
        metrics.update(self._resample_threads(nproc))
        return metrics, records

    def _resample_threads(self, nproc: int) -> dict:
        """Wall time of ingest.resample in a dry run at 1 and at nproc threads."""
        saved = os.environ["OMNITFT_THREADS"]
        found = {}
        try:
            for threads, key in ((1, "threads1"), (nproc, "nproc")):
                os.environ["OMNITFT_THREADS"] = str(threads)
                tracer = Tracer()
                with tracer.installed():
                    argv = self._train_argv(self.work / "dry") + ["--dry-run"]
                    self._attempt(self._dryrun, argv, tracer)
                found[f"ingest.resample_wall_s_{key}"] = (tracer.wall("ingest.resample"), "s")
        finally:
            os.environ["OMNITFT_THREADS"] = saved
        return found


def layer_metrics(tracer: Tracer, sessions: int) -> dict:
    """Per-layer metrics: times and counts per session, nodes per step.

    A layer the workload never reaches reports 0.
    """
    totals = tracer.inclusive()
    names = sorted({name for _, _, name in SPANS} | {name for _, name in GRN_SPANS})
    metrics = {f"{n}_s": (totals.get(n, 0.0) / sessions, "s") for n in names}
    for n in NODE_COUNTED:
        metrics[f"{n}_nodes"] = (tracer.step_nodes.get(n, 0), "nodes")
    for n, unit in (("ingest.events", "events"), ("sampler.windows", "windows"),
                    ("labeler.hmm_iters", "iterations"), ("diffcore.matmul_calls", "calls"),
                    ("diffcore.matmul_flops", "flop")):
        metrics[n] = (tracer.counts.get(n, 0.0) / sessions, unit)
    nodes = tracer.tape_nodes
    metrics["diffcore.tape_nodes"] = (statistics.median(nodes) if nodes else 0, "nodes")
    calls = tracer.counts.get("trainer.clip_calls", 0)
    metrics["trainer.clip_frac"] = (
        tracer.counts.get("trainer.clipped", 0) / calls if calls else 0.0, "fraction")
    steps = tracer.step_ms
    metrics["trainer.steps"] = (len(steps) / sessions, "steps")
    tail, pct = _tail(steps) if steps else (0.0, 0.0)
    metrics["trainer.step_ms_p50"] = (statistics.median(steps) if steps else 0.0, "ms")
    metrics["trainer.step_ms_tail"] = (tail, "ms")
    metrics["trainer.step_tail_pct"] = (pct, "percentile")
    return metrics
