"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of the splitflow modules from
outside the package. Each wrapped call records a span (name, start, end,
parent) while an operation is open; spans stay in memory until the run
writes them out. A few wrappers only count calls (tensor construction) or
add a byte count (checkpoint writes).

A function imported elsewhere with ``from .x import y`` is bound under
several names, so `install` patches every binding of the same object in
every loaded splitflow module and class, and `restore` puts each one back.
"""

import collections
import contextlib
import functools
import importlib
import json
import os
import sys
import time

# (span name, module, attribute or "Class.attribute"). Several targets may
# share a span name; the per-layer metric `<span name>.ms` sums them.
SPAN_TARGETS = [
    ("autodiff.matmul", "autodiff", "Tensor.__matmul__"),
    ("autodiff.elementwise", "autodiff", "Tensor.__add__"),
    ("autodiff.elementwise", "autodiff", "Tensor.__neg__"),
    ("autodiff.elementwise", "autodiff", "Tensor.__sub__"),
    ("autodiff.elementwise", "autodiff", "Tensor.__rsub__"),
    ("autodiff.elementwise", "autodiff", "Tensor.__mul__"),
    ("autodiff.elementwise", "autodiff", "Tensor.__truediv__"),
    ("autodiff.elementwise", "autodiff", "Tensor.relu"),
    ("autodiff.elementwise", "autodiff", "Tensor.square"),
    ("autodiff.sigmoid", "autodiff", "Tensor.sigmoid"),
    ("autodiff.sigmoid", "autodiff", "Tensor.silu"),
    ("autodiff.concat", "autodiff", "concat"),
    ("autodiff.reduce", "autodiff", "Tensor.sum"),
    ("autodiff.reduce", "autodiff", "Tensor.mean"),
    ("autodiff.reduce", "autodiff", "Tensor.reshape"),
    ("autodiff.backward", "autodiff", "Tensor.backward"),
    ("autodiff.backward", "autodiff", "backward_multi"),
    ("nn.mlp_forward", "nn", "Mlp.forward"),
    ("nn.adamw_step", "nn", "AdamW.step"),
    ("flow.time_embedding", "flow", "time_embedding"),
    ("flow.fm_loss", "flow", "fm_loss"),
    ("flow.ode_sample", "flow", "ode_sample"),
    ("flow.train_teacher", "flow", "train_teacher"),
    ("distill.isc_loss", "distill", "isc_loss"),
    ("distill.boundary_loss", "distill", "boundary_loss"),
    ("distill.one_step_sample", "distill", "one_step_sample"),
    ("distill.multi_step_sample", "distill", "multi_step_sample"),
    ("distill.train_student", "distill", "train_student"),
    ("refine.trainer_step", "refine", "Stage2Trainer.step"),
    ("refine.vsd_gradient", "refine", "vsd_gradient"),
    ("refine.reconstruction_loss", "refine", "reconstruction_loss"),
    ("refine.gan_loss", "refine", "gan_generator_loss"),
    ("refine.gan_loss", "refine", "gan_discriminator_loss"),
    ("refine.regularizer_loss", "refine", "regularizer_loss"),
    ("data.generate_dataset", "data", "generate_dataset"),
    ("metrics.sliced_wasserstein", "metrics", "sliced_wasserstein"),
    ("metrics.psnr", "metrics", "psnr"),
    ("metrics.feature_distance", "metrics", "feature_distance"),
    ("checkpoint.save", "checkpoint", "save_checkpoint"),
    ("checkpoint.load", "checkpoint", "load_checkpoint"),
    ("pipeline.emit_report", "pipeline", "emit_report"),
    ("pipeline.evaluate_student", "pipeline", "evaluate_student"),
    ("cli.main", "cli", "main"),
]

# Calls that are counted but get no span: a span per tensor would cost more
# than the tensor.
COUNT_TARGETS = [
    ("autodiff.nodes", "autodiff", "Tensor.__init__"),
]

# Spans whose inclusive time is the training or evaluation work of a stage;
# the rest of a stage's wall time is pipeline orchestration.
STAGE_WORK_SPANS = ("flow.train_teacher", "distill.train_student",
                    "refine.trainer_step", "pipeline.evaluate_student")

# Per-layer time metrics: `<name>.ms` is the self time of these spans.
TIMED_LAYERS = [
    "autodiff.sigmoid", "autodiff.matmul", "autodiff.elementwise",
    "autodiff.concat", "autodiff.reduce", "autodiff.backward",
    "nn.adamw_step",
    "flow.time_embedding", "flow.fm_loss", "flow.ode_sample",
    "distill.isc_loss", "distill.boundary_loss", "distill.one_step_sample",
    "distill.multi_step_sample",
    "refine.trainer_step", "refine.vsd_gradient", "refine.reconstruction_loss",
    "refine.gan_loss", "refine.regularizer_loss",
    "data.generate_dataset",
    "metrics.sliced_wasserstein", "metrics.psnr", "metrics.feature_distance",
    "checkpoint.save", "checkpoint.load",
    "pipeline.emit_report",
]


class Op:
    """One benchmark operation (a pipeline stage call or a request): the
    root of a span tree. `steps` is the training iterations or requests it
    performs; counts per step are taken over operations with steps > 0."""

    def __init__(self, kind, steps, first_span):
        self.kind = kind
        self.steps = steps
        self.first_span = first_span
        self.last_span = first_span
        self.counts = collections.Counter()


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []        # [name, start, end, parent index]
        self.ops = []
        self._stack = []
        self._op = None
        self._patched = []     # (owner, attribute, original value)

    # ---- patching -----------------------------------------------------------

    def install(self):
        """Wrap every target, under every name it is bound to."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for span, module, attr in SPAN_TARGETS:
            self._patch(module, attr, lambda fn, span=span: self._span_wrapper(span, fn))
        for key, module, attr in COUNT_TARGETS:
            self._patch(module, attr, lambda fn, key=key: self._count_wrapper(key, fn))

    def restore(self):
        """Put back every attribute `install` replaced, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, module, attr, make_wrapper):
        owner = importlib.import_module(f"splitflow.{module}")
        for part in attr.split(".")[:-1]:
            owner = getattr(owner, part)
        original = vars(owner)[attr.split(".")[-1]]
        wrapper = make_wrapper(original)
        for holder in _bindings_holders():
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, name, original))
                    setattr(holder, name, wrapper)

    def _span_wrapper(self, span, fn):
        tracer = self
        is_save = span == "checkpoint.save"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._op.counts[span] += 1
            record = tracer._open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(record)
                if is_save:
                    path = kwargs.get("path", args[2] if len(args) > 2 else None)
                    if path is not None and os.path.exists(path):
                        tracer._op.counts["checkpoint.save.bytes"] += os.path.getsize(path)

        return wrapper

    def _count_wrapper(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer._op.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- recording ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, kind, steps):
        """Record one operation as a root span; tracing is on only inside."""
        if self._op is not None:
            raise RuntimeError("operations do not nest")
        self._op = Op(kind, steps, len(self.spans))
        self.ops.append(self._op)
        record = self._open(f"op.{kind}")
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self._close(record)
            self._op.last_span = len(self.spans)
            self._op = None

    def clear(self):
        self.spans = []
        self.ops = []

    def write(self, path):
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _bindings_holders():
    """Every loaded splitflow module and every class defined in one."""
    holders = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "splitflow" or name.startswith("splitflow.")):
            continue
        holders.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                holders.append(value)
    return holders


def self_times(spans):
    """Self time of each span: its duration minus its children's durations."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer):
    """Per-layer metrics of the operations recorded since the last `clear`.

    Times are milliseconds summed over the recorded operations; counts per
    step are summed over operations that perform steps and divided by their
    step total.
    """
    spans = tracer.spans
    own = self_times(spans)
    self_ms = collections.Counter()
    for (name, _, _, _), t in zip(spans, own):
        self_ms[name] += 1000.0 * t

    totals = collections.Counter()
    step_counts = collections.Counter()
    steps = 0
    stage_overhead = 0.0
    cli_overhead = 0.0
    for op in tracer.ops:
        totals.update(op.counts)
        if op.steps:
            steps += op.steps
            step_counts.update(op.counts)
        root = spans[op.first_span]
        window = range(op.first_span + 1, op.last_span)
        if op.kind.startswith("stage."):
            work = sum(spans[i][2] - spans[i][1] for i in window
                       if spans[i][0] in STAGE_WORK_SPANS)
            stage_overhead += 1000.0 * (root[2] - root[1] - work)
        cli_overhead += sum(1000.0 * own[i] for i in window if spans[i][0] == "cli.main")

    def per_step(key):
        return step_counts[key] / steps if steps else 0.0

    losses = totals["distill.isc_loss"] + totals["distill.boundary_loss"]
    metrics = {
        "autodiff.nodes_per_step": (per_step("autodiff.nodes"), "count"),
        "nn.mlp_forward.calls_per_step": (per_step("nn.mlp_forward"), "count"),
        "nn.adamw_step.calls_per_step": (per_step("nn.adamw_step"), "count"),
        "flow.time_embedding.calls_per_step": (per_step("flow.time_embedding"), "count"),
        "distill.splitting_fraction": (
            totals["distill.isc_loss"] / losses if losses else 0.0, "ratio"),
        "data.generate_dataset.calls": (float(totals["data.generate_dataset"]), "count"),
        "checkpoint.save.bytes": (float(totals["checkpoint.save.bytes"]), "bytes"),
        "pipeline.stage_overhead.ms": (stage_overhead, "ms"),
        "cli.sample.overhead_ms": (cli_overhead, "ms"),
    }
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.ms"] = (float(self_ms[layer]), "ms")
    return metrics
