"""Spans around calls into filtershare's public functions, from outside src/.

The benchmark never edits the program. It replaces module attributes with
wrappers that time each call, so every caller that looks the function up
through its module (``kernels.stack_cols``, ``traineval.evaluate``, ...) is
traced. A span's self time is its duration minus the time of the spans it
encloses. Spans are aggregated by name as they close (self seconds, call
count), which keeps memory flat over long runs.

Two instrumentation levels exist:

* ``Clock`` (always installed): step boundaries at ``traineval.optimizer_step``,
  the duration and result of every ``traineval.evaluate`` call, and
  ``getrusage`` deltas over training steps. A handful of calls per second.
* ``Tracer.install_layers`` (``--trace 1`` only): spans around the kernels,
  autodiff backward, the network forward, filter expansion, regularizers,
  losses, checkpoints and data generation.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    """Aggregated span self-times plus plain counters, keyed by name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self._stack = []  # open spans: [start, child_seconds, name]
        self._patched = []

    # -- spans ----------------------------------------------------------------

    def wrap(self, fn, name, after=None):
        """Return fn wrapped in a span. ``name`` may be a callable of the
        call's arguments; ``after(result, args, kwargs)`` may add counters."""
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            key = name(args, kwargs) if callable(name) else name
            frame = [perf(), 0.0, key]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - frame[0]
                stack.pop()
                self_s[key] += dur - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def replace(self, owner, attr, new):
        """Set owner.attr to new until ``restore``."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr, name, after=None):
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def snapshot(self):
        return dict(self.self_s), dict(self.count)

    # -- layer spans ----------------------------------------------------------

    def install_layers(self, fs):
        """Spans around the public functions of every filtershare module.

        ``fs`` is a namespace holding the imported modules (data, kernels,
        autodiff, sharedconv, nets, traineval)."""
        k, ad, sc, nets, te, data = (fs.kernels, fs.autodiff, fs.sharedconv,
                                     fs.nets, fs.traineval, fs.data)

        def im2col_bytes(result, args, kwargs):
            self.count["kernels.im2col_bytes"] += result[0].nbytes

        def expand_count(result, args, kwargs):
            if any(f[2] == "nets.forward_train" for f in self._stack):
                self.count["sharedconv.expand_calls_train"] += 1

        self.patch(k, "stack_cols", "kernels.stack_cols", im2col_bytes)
        self.patch(k, "conv_stack", "kernels.conv_stack")
        self.patch(k, "conv_stack_grad_input", "kernels.conv_grad_input")
        self.patch(k, "conv_stack_grad_filters", "kernels.conv_grad_filters")
        for fn in ("max_pool_stack", "max_pool_scatter", "upsample_stack",
                   "upsample_stack_vjp"):
            self.patch(k, fn, "kernels.pool_upsample")
        self.patch(ad, "backward", "autodiff.backward")
        self.patch(nets.Network, "forward_var", _forward_name)
        self.patch(sc, "expand_filters", "sharedconv.expand", expand_count)
        self.patch(nets, "make_dropout_mask", "regularizers.dropout_mask")
        self.patch(te, "penalty_term", "regularizers.penalty")
        for fn in ("softmax_cross_entropy", "soft_dice_loss", "dice_overlap"):
            self.patch(te, fn, "traineval.loss")
        self.patch(te, "save_checkpoint", "traineval.checkpoint_save")
        self.patch(te, "load_checkpoint", "traineval.checkpoint_load")
        for fn in ("synth_nodule_dataset", "toy_image_dataset", "split",
                   "subset"):
            self.patch(data, fn, "data.generate")


def _forward_name(args, kwargs):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return "nets.forward_train" if training else "nets.forward_infer"


class Clock:
    """Phase timing that both the plain and the traced run install.

    Training steps are the intervals between ``start()`` (called before each
    ``traineval.train`` call) and successive ``optimizer_step`` returns, so
    the per-epoch validation pass and checkpoint, which ``train`` runs after
    its last step, fall outside every step. ``evaluate`` calls are timed
    whole, and their (loss, metric, dataset size) results kept.
    """

    def __init__(self, tracer: Tracer, traineval):
        self.steps = []       # seconds per optimizer step
        self.evals = []       # (seconds, n, loss, metric) per evaluate call
        self.sys_s = 0.0      # getrusage deltas over step intervals
        self.minflt = 0
        self.timing = False   # only record inside the timed phases
        self._mark = perf()
        self._ru = resource.getrusage(resource.RUSAGE_SELF)
        opt_step = tracer.wrap(traineval.optimizer_step,
                               "traineval.optimizer_step")
        evaluate = traineval.evaluate

        def optimizer_step(*args, **kwargs):
            result = opt_step(*args, **kwargs)
            if self.timing:
                now = perf()
                ru = resource.getrusage(resource.RUSAGE_SELF)
                self.steps.append(now - self._mark)
                self.sys_s += ru.ru_stime - self._ru.ru_stime
                self.minflt += ru.ru_minflt - self._ru.ru_minflt
                self._mark, self._ru = now, ru
            return result

        def timed_evaluate(net, dataset):
            t0 = perf()
            loss, metric = evaluate(net, dataset)
            if self.timing:
                self.evals.append((perf() - t0, len(dataset), loss, metric))
            return loss, metric

        tracer.replace(traineval, "optimizer_step", optimizer_step)
        tracer.replace(traineval, "evaluate",
                       tracer.wrap(timed_evaluate, "traineval.evaluate"))

    def start(self):
        """Open a training step interval (call right before ``train``)."""
        self._mark = perf()
        self._ru = resource.getrusage(resource.RUSAGE_SELF)
