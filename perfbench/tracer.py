"""In-memory span tracer that wraps omnitft's public functions from outside.

`Tracer.installed()` replaces module functions and class methods by
attribute, so no source file of the program changes, and restores the
originals on exit. Each wrapped call records a span (name, start, end,
parent); spans stay in memory until `span_records()` writes them out with
their self time (duration minus the part of it that child spans cover).

Tape-node counts per layer are taken during the first optimiser step of each
`train` command: the nodes reachable from a layer's outputs (via
`Tape.from_root`) minus those reachable from its inputs. The time spent
counting is excluded from every span that was open at the time.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
import threading
import time
from collections import defaultdict

from omnitft import cli, evalkit, ingest, labeler, penalties, sampler, trainer
from omnitft import diffcore as dc
from omnitft.model import ForwardPass, Model, WindowBatch

# Layers whose per-step tape-node counts are reported as `<span>_nodes`.
NODE_COUNTED = (
    "model.embed", "model.vsn", "model.static_ctx", "model.lstm", "model.enrich",
    "model.attention", "model.head", "penalties.embed", "penalties.group",
    "penalties.shock", "trainer.quantile_loss",
)

# (owner, attribute, span name) for every wrapped call. Names imported into
# another module (trainer.balanced_epoch, cli.save_checkpoint) are wrapped
# where the caller looks them up.
SPANS = (
    (ingest, "parse_events", "ingest.parse"),
    (ingest, "resample_to_grid", "ingest.resample"),
    (ingest, "impute", "ingest.impute"),
    (ingest, "write_split_grids", "ingest.write_grids"),
    (sampler, "enumerate_windows", "sampler.enumerate"),
    (labeler, "hmm_fit", "labeler.hmm_fit"),
    (labeler, "hmm_decode", "labeler.hmm_decode"),
    (Model, "forward", "model.forward"),
    (Model, "embed_inputs", "model.embed"),
    (Model, "_embed_feature", "model.embed"),
    (Model, "variable_select", "model.vsn"),
    (Model, "encode_decode", "model.lstm"),
    (Model, "causal_attention", "model.attention"),
    (Model, "quantile_head", "model.head"),
    (ForwardPass, "bundle", "model.bundle"),
    (dc.Tape, "from_root", "diffcore.tape_build"),
    (dc.Tape, "run_backward", "diffcore.vjp"),
    (penalties, "c_embed", "penalties.embed"),
    (penalties, "group_distribution_past", "penalties.group"),
    (penalties, "group_distribution_future", "penalties.group"),
    (penalties, "c_group", "penalties.group"),
    (penalties, "retro_mass", "penalties.shock"),
    (penalties, "rep_first_diff", "penalties.shock"),
    (penalties, "standardize", "penalties.shock"),
    (penalties, "c_shock", "penalties.shock"),
    (trainer, "quantile_loss", "trainer.quantile_loss"),
    (trainer, "balanced_epoch", "trainer.data_wait"),
    (WindowBatch, "from_windows", "trainer.data_wait"),
    (trainer, "clip_gradients", "trainer.clip"),
    (trainer, "adam_step", "trainer.adam"),
    (trainer, "evaluate_quantile_loss", "trainer.validate"),
    (evalkit, "compute_report", "evalkit.report"),
    (evalkit, "aggregate_importance", "evalkit.importance"),
    (cli, "build_window_pools", "cli.window_pools"),
    (cli, "save_checkpoint", "cli.checkpoint_save"),
    (cli, "load_checkpoint", "cli.checkpoint_load"),
)

# Model.grn serves several layers; only these prefixes are spans of their own.
GRN_SPANS = (("static_ctx/", "model.static_ctx"), ("enrich", "model.enrich"))


def _tensors(obj):
    if isinstance(obj, dc.Tensor):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _tensors(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _tensors(item)


def interval_union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


class Tracer:
    """Spans and counters of one traced phase; install with `installed()`."""

    def __init__(self):
        # One column per span field. Flat arrays keep thousands of spans out of
        # the cyclic garbage collector's way, which would otherwise slow every
        # command that runs after them.
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # -1: no parent
        self.excluded = array("d")  # node-counting time inside the span
        self.excluded_self = array("d")  # ... while it was the innermost span
        self.counts: dict = defaultdict(float)
        self.tape_nodes: list = []
        self.step_ms: list = []
        self.step_nodes: dict = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()  # ingest resamples on a thread pool
        self._command = -1
        self._counting = False
        self._counted_step = False
        self._step_start = None
        self.excluded_total = 0.0
        self._originals: list = []
        self._from_root = dc.Tape.from_root

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else self._command)
            for column in (self.start, self.end, self.excluded, self.excluded_self):
                column.append(0.0)
        stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def _exclude(self, dt: float):
        stack = self._stack()
        for idx in stack:
            self.excluded[idx] += dt
        if stack:
            self.excluded_self[stack[-1]] += dt
        self.excluded_total += dt

    @contextlib.contextmanager
    def command(self, name: str):
        """One CLI command; its span is the root of the command's other spans."""
        self._command = self._open(name)
        self._counted_step = False
        try:
            yield
        finally:
            self._close(self._command)
            self._command = -1

    # -- node counts -----------------------------------------------------------

    def _reach(self, tensors) -> set:
        seen: set = set()
        for t in tensors:
            if id(t) not in seen:
                seen.update(id(n) for n in self._from_root(t).nodes)
        return seen

    def _count_nodes(self, name, args, kwargs, out):
        t0 = time.perf_counter()
        produced = self._reach(_tensors(out))
        consumed = self._reach(_tensors((args, kwargs)))
        self.step_nodes[name] += len(produced - consumed)
        self._exclude(time.perf_counter() - t0)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        counted = name in NODE_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and tracer.names[tracer.name_id[stack[-1]]] == name:
                return fn(*args, **kwargs)  # same layer re-entered: one span
            if name == "model.forward":
                tracer._before_forward(args, kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counted and tracer._counting:
                tracer._count_nodes(name, args, kwargs, out)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return traced

    def _wrap_grn(self, fn):
        wrapped = {name: self._wrap(fn, name) for _, name in GRN_SPANS}

        @functools.wraps(fn)
        def grn(model, prefix, *args, **kwargs):
            for start, name in GRN_SPANS:
                if prefix.startswith(start):
                    return wrapped[name](model, prefix, *args, **kwargs)
            return fn(model, prefix, *args, **kwargs)

        return grn

    def _wrap_matmul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def matmul(a, b):
            out = fn(a, b)
            counts["diffcore.matmul_calls"] += 1
            inner = getattr(a, "data", a).shape[-1]
            counts["diffcore.matmul_flops"] += 2 * out.data.size * inner
            return out

        return matmul

    def _before_forward(self, args, kwargs):
        rng = kwargs.get("rng", args[2] if len(args) > 2 else None)
        if rng is None:
            return  # evaluation-only pass, not an optimiser step
        self._step_start = (time.perf_counter(), self.excluded_total)
        if not self._counted_step:
            self._counting = True
            self.step_nodes.clear()

    def _after_ingest_parse(self, args, kwargs, out):
        self.counts["ingest.events"] += len(out)

    def _after_sampler_enumerate(self, args, kwargs, out):
        self.counts["sampler.windows"] += len(out)

    def _after_labeler_hmm_fit(self, args, kwargs, out):
        self.counts["labeler.hmm_iters"] += len(out.log_likelihoods)

    def _after_diffcore_tape_build(self, args, kwargs, out):
        self.tape_nodes.append(len(out.nodes))

    def _after_trainer_clip(self, args, kwargs, out):
        max_norm = kwargs.get("max_norm", args[1] if len(args) > 1 else 1.0)
        self.counts["trainer.clip_calls"] += 1
        self.counts["trainer.clipped"] += int(out[1] > max_norm)

    def _after_trainer_adam(self, args, kwargs, out):
        if self._step_start is not None:
            start, excluded = self._step_start
            wall = time.perf_counter() - start - (self.excluded_total - excluded)
            self.step_ms.append(1000.0 * wall)
            self._step_start = None
        if self._counting:
            self._counting = False
            self._counted_step = True

    # -- install ---------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced attribute; restore the originals on exit."""
        try:
            for owner, attr, name in SPANS:
                self._patch(owner, attr, lambda fn, n=name: self._wrap(fn, n))
            self._patch(Model, "grn", self._wrap_grn)
            self._patch(dc, "matmul", self._wrap_matmul)
            yield self
        finally:
            for owner, attr, original in reversed(self._originals):
                setattr(owner, attr, original)
            self._originals.clear()

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- results ---------------------------------------------------------------

    def span_records(self) -> list:
        """Every span with its inclusive and self time, in seconds."""
        children = defaultdict(list)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append(idx)
        records = []
        for idx, (start, end) in enumerate(zip(self.start, self.end)):
            covered = interval_union(
                (max(self.start[c], start), min(self.end[c], end)) for c in children[idx]
            )
            records.append({
                "id": idx,
                "name": self.names[self.name_id[idx]],
                "parent": self.parent[idx] if self.parent[idx] >= 0 else None,
                "start": start,
                "end": end,
                "inclusive_s": end - start - self.excluded[idx],
                "self_s": end - start - self.excluded_self[idx] - covered,
            })
        return records

    def inclusive(self) -> dict:
        """Total inclusive seconds per span name."""
        totals: dict = defaultdict(float)
        for idx, name_id in enumerate(self.name_id):
            totals[self.names[name_id]] += self.end[idx] - self.start[idx] - self.excluded[idx]
        return totals

    def wall(self, name: str) -> float:
        """Wall time covered by spans of one name, counting overlap once."""
        name_id = self._name_ids.get(name)
        return interval_union(
            (self.start[i], self.end[i]) for i, n in enumerate(self.name_id) if n == name_id
        )
