"""The three benchmark workloads.

Each workload builds its inputs from the seed with ``filtershare.data``'s
generators, runs a timed training phase and a timed inference phase through
``traineval.train`` and ``traineval.evaluate``, and then, untimed, checks the
program's outputs (see ``checks.py``). Phases run in whole rounds (epochs,
evaluation chunks) until the time budget is spent, so a run never stops in
the middle of an operation. One untimed round of each phase runs first, as
warm-up inside the set-up: the first U-Net steps fault in the tape's memory
and run up to twice as long as later ones.

Rates are medians over rounds, not whole-phase totals: on a 2-core machine
single sub-second phases vary by 10-15 %, and a median over many rounds is
what repeats from run to run.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field

import numpy as np

import checks
from tracing import perf

UNET = dict(levels=3, base_channels=8, shared=True, p=15, input_extent=40)
LEARNING_RATE = 1e-3   # Adam, every net
# A small L1 weight keeps the coefficient penalty on the U-Net's training
# path (10 shared layers), so every traced layer is exercised by every
# workload; it costs under 0.1 % of a training step.
UNET_L1 = 1e-6
CIF_P = 15
CIF_REG = dict(unit_norm_seeds=True, l1_alpha=1e-4, nuclear_alpha=1e-4)
SEGMENT_TRAIN_SHARE = 0.5    # of --seconds spent fine-tuning on unet3d_segment
SEGMENT_CHUNK = 2            # volumes per evaluate call on unet3d_segment


@dataclass
class Outcome:
    """What a workload measured; filled in as it goes."""

    setup_s: float = 0.0
    train_rates: list = field(default_factory=list)   # samples/s per round
    infer_rates: list = field(default_factory=list)
    train_samples: int = 0
    infer_samples: int = 0
    train_steps: int = 0
    peak_rss_mb: float = 0.0
    window: tuple = ()      # tracer snapshots at the start / end of timing
    probe: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def attempted(self):
        return self.train_samples + self.infer_samples


class Context:
    """Modules, options and instrumentation shared by the workloads."""

    def __init__(self, fs, seed, seconds, trace, tracer, clock, work,
                 process_age):
        self.fs, self.seed, self.seconds = fs, seed, seconds
        self.trace, self.tracer, self.clock = trace, tracer, clock
        self.work, self.process_age = work, process_age

    def begin_timing(self, out: Outcome):
        out.setup_s = self.process_age()
        out.window = (self.tracer.snapshot(),)
        self.clock.timing = True
        return perf()

    def end_timing(self, out: Outcome):
        self.clock.timing = False
        out.window += (self.tracer.snapshot(),)
        out.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def train_epoch(self, net, train_set, val_set, epoch, batch, optimizer,
                    reg, checkpoint_dir=None):
        """One epoch of ``traineval.train``, resumed at ``epoch``: the same
        shuffle and dropout streams as one long call."""
        te = self.fs.traineval
        config = te.TrainConfig(optimizer="adam", learning_rate=LEARNING_RATE,
                                batch_size=batch, epochs=epoch + 1,
                                seed=self.seed, eval_every=1)
        self.clock.start()
        te.train(net, train_set, val_set, config, reg,
                 checkpoint_dir=checkpoint_dir, start_epoch=epoch,
                 optimizer=optimizer)


def _xy(item):
    if hasattr(item, "volume"):
        return item.volume, item.mask
    return item.image, item.label


def _unet_net(fs, seed):
    return fs.nets.Network.initialize(fs.nets.build_unet3d(**UNET), seed=seed)


def _step_rounds(ctx, out, batch, train_samples):
    """Counts and per-round rates of the U-Net workloads, where a training
    round is one optimizer step and an inference round one evaluate call."""
    clock = ctx.clock
    out.train_steps = len(clock.steps)
    out.train_samples = train_samples
    out.infer_samples = sum(n for _, n, _, _ in clock.evals)
    out.train_rates = [batch / s for s in clock.steps]
    out.infer_rates = [n / s for s, n, _, _ in clock.evals]
    return clock


def _probe(ctx, out, net, item, reg):
    """Traced run only: tape size after one training-mode forward, and the
    im2col bytes that forward plus its backward build."""
    fs, tr = ctx.fs, ctx.tracer
    ad = fs.autodiff
    x, y = _xy(item)
    before = tr.count["kernels.im2col_bytes"]
    tape = ad.Tape()
    with ad.recording(tape):
        out_var = net.forward_var(x, training=True, dropout_p=reg.dropout_p,
                                  rng=np.random.default_rng(ctx.seed))
        if hasattr(item, "volume"):
            fs.traineval.soft_dice_loss(out_var, y)
        else:
            fs.traineval.softmax_cross_entropy(out_var, y)
    out.probe["autodiff.tape_entries"] = len(tape.entries)
    out.probe["autodiff.tape_retained_mb"] = tape_bytes(fs, tape) / 2**20
    ad.backward(tape, fs.tensor.Tensor([1.0]))
    ad.zero_grads(net.parameters())
    out.probe["kernels.im2col_mb"] = (
        tr.count["kernels.im2col_bytes"] - before) / 2**20


def tape_bytes(fs, tape):
    """Bytes of the distinct array buffers reachable from a tape's entries:
    outputs, inputs and everything the backward closures captured."""
    Tensor, Var = fs.tensor.Tensor, fs.autodiff.Var
    seen, total = set(), 0
    todo = []
    for e in tape.entries:
        todo.append(e.out)
        todo.extend(e.inputs)
        todo.append(e.vjp)
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            root = obj
            while isinstance(root.base, np.ndarray):
                root = root.base
            if id(root) not in seen:
                seen.add(id(root))
                total += root.nbytes
        elif isinstance(obj, Tensor):
            todo.append(obj.array)
        elif isinstance(obj, Var):
            todo.append(obj.value)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    todo.append(cell.cell_contents)
                except ValueError:  # empty cell
                    pass
    return total


# ---------------------------------------------------------------------------
# unet3d_train
# ---------------------------------------------------------------------------

def unet3d_train(ctx: Context) -> Outcome:
    """Few-shot training of the shared 3-level U-Net (P=15, base 8, 40^3):
    4 training volumes at batch 2 with Adam and dropout 0.1, a validation
    pass over 2 volumes and a checkpoint after every epoch. Epoch 0 is the
    warm-up."""
    fs, out = ctx.fs, Outcome()
    te = fs.traineval
    samples = fs.data.synth_nodule_dataset(6, seed=ctx.seed)
    train_set, val_set = fs.data.split(samples, (2 / 3, 1 / 3), seed=ctx.seed)
    net = _unet_net(fs, ctx.seed)
    reg = fs.regularizers.RegularizerConfig(l1_alpha=UNET_L1)
    optimizer = te.make_optimizer("adam", LEARNING_RATE)
    ckpt_dir = ctx.work / "checkpoints"
    ctx.train_epoch(net, train_set, val_set, 0, 2, optimizer, reg,
                    checkpoint_dir=ckpt_dir)

    t0 = ctx.begin_timing(out)
    epoch = 1
    while perf() - t0 < ctx.seconds:
        ctx.train_epoch(net, train_set, val_set, epoch, 2, optimizer, reg,
                        checkpoint_dir=ckpt_dir)
        epoch += 1
    ctx.end_timing(out)
    clock = _step_rounds(ctx, out, 2, (epoch - 1) * len(train_set))
    if ctx.trace:
        _probe(ctx, out, net, train_set[0], reg)

    # checks
    label = "unet3d_train"
    reloaded, _, last = te.load_checkpoint(te.latest_checkpoint(ckpt_dir))
    checks.require(last == epoch - 1, f"{label}: latest checkpoint is epoch "
                                      f"{last}, expected {epoch - 1}")
    checks.check_same_params(net, reloaded, label)
    checks.check_finite(net, label)
    checks.check_weight_count(net, label)
    _, _, loss, metric = clock.evals[-1]
    checks.check_against_reference(net, [_xy(v) for v in val_set],
                                   (loss, metric), label)
    rel = checks.check_directional_fd(fs, net, *_xy(train_set[0]), reg,
                                      ctx.seed, label)
    out.notes.append(f"epochs={epoch} fd_rel={rel:.2e}")
    return out


# ---------------------------------------------------------------------------
# unet3d_segment
# ---------------------------------------------------------------------------

def unet3d_segment(ctx: Context) -> Outcome:
    """Start from a saved checkpoint of the shared U-Net, fine-tune it at
    batch 1 on 2 volumes for half of the time, then segment 12
    held-out volumes, in rounds, with ``traineval.evaluate``. Fine-tune
    epoch 0 and one evaluate call are the warm-up."""
    fs, out = ctx.fs, Outcome()
    te = fs.traineval
    samples = fs.data.synth_nodule_dataset(14, seed=ctx.seed)
    tune_set, held_out = fs.data.split(samples, (1 / 7, 6 / 7), seed=ctx.seed)
    ckpt = ctx.work / "start"
    te.save_checkpoint(ckpt, _unet_net(fs, ctx.seed),
                       te.make_optimizer("adam", LEARNING_RATE), 0)
    net, optimizer, _ = te.load_checkpoint(ckpt)
    reg = fs.regularizers.RegularizerConfig(l1_alpha=UNET_L1)
    chunks = [held_out[i:i + SEGMENT_CHUNK]
              for i in range(0, len(held_out), SEGMENT_CHUNK)]
    ctx.train_epoch(net, tune_set, None, 0, 1, optimizer, reg)
    te.evaluate(net, chunks[-1])

    t0 = ctx.begin_timing(out)
    epoch = 1
    while perf() - t0 < SEGMENT_TRAIN_SHARE * ctx.seconds:
        ctx.train_epoch(net, tune_set, None, epoch, 1, optimizer, reg)
        epoch += 1
    evaluated = 0
    while perf() - t0 < ctx.seconds:
        te.evaluate(net, chunks[evaluated % len(chunks)])
        evaluated += 1
    ctx.end_timing(out)
    clock = _step_rounds(ctx, out, 1, (epoch - 1) * len(tune_set))
    if ctx.trace:
        _probe(ctx, out, net, tune_set[0], reg)

    # checks
    label = "unet3d_segment"
    last_chunk = chunks[(evaluated - 1) % len(chunks)]
    _, _, loss, metric = clock.evals[-1]
    checks.check_against_reference(net, [_xy(v) for v in last_chunk],
                                   (loss, metric), label)
    saved = ctx.work / "tuned"
    te.save_checkpoint(saved, net, optimizer, epoch)
    reloaded, _, _ = te.load_checkpoint(saved)
    checks.check_same_params(net, reloaded, label)
    in_memory = te.evaluate(net, chunks[0])
    from_disk = te.evaluate(reloaded, chunks[0])
    checks.require(in_memory == from_disk,
                   f"{label}: evaluate on the reloaded checkpoint gave "
                   f"{from_disk!r}, in memory {in_memory!r}")
    checks.check_finite(net, label)
    checks.check_weight_count(net, label)
    rel = checks.check_directional_fd(fs, net, *_xy(tune_set[0]), reg,
                                      ctx.seed, label)
    out.notes.append(f"tune_epochs={epoch} chunks={evaluated} "
                     f"fd_rel={rel:.2e}")
    return out


# ---------------------------------------------------------------------------
# cifcnn_subset
# ---------------------------------------------------------------------------

def cifcnn_subset(ctx: Context) -> Outcome:
    """The subset experiment's shared and unshared CIF-CNN on the toy
    3x32x32 task at batch 16: each round trains both nets one epoch on a
    64-image stratified subset and evaluates both on 128 validation images.
    The shared net (P=15) runs the L1 and nuclear-norm penalties and the
    unit-norm seed projection. Round 0 is the warm-up."""
    fs, out = ctx.fs, Outcome()
    te, nets = fs.traineval, fs.nets
    pool = fs.data.toy_image_dataset(256, seed=ctx.seed)
    train_pool, val_set = fs.data.split(pool, (0.5, 0.5), seed=ctx.seed)
    train_set = fs.data.subset(train_pool, 0.5, ctx.seed)
    reg = fs.regularizers.RegularizerConfig(**CIF_REG)
    runs = []
    for shared in (True, False):
        net = nets.Network.initialize(
            nets.build_cifcnn(shared=shared, p=CIF_P), seed=ctx.seed)
        runs.append((net, te.make_optimizer("adam", LEARNING_RATE)))

    clock = ctx.clock

    def round_(epoch):
        steps_before = len(clock.steps)
        for net, optimizer in runs:
            ctx.train_epoch(net, train_set, None, epoch, 16, optimizer, reg)
        evals_before = len(clock.evals)
        for net, _ in runs:
            te.evaluate(net, val_set)
        if clock.timing:
            out.train_rates.append(2 * len(train_set)
                                   / sum(clock.steps[steps_before:]))
            out.infer_rates.append(2 * len(val_set) / sum(
                s for s, _, _, _ in clock.evals[evals_before:]))

    round_(0)
    t0 = ctx.begin_timing(out)
    epoch = 1
    while perf() - t0 < ctx.seconds:
        round_(epoch)
        epoch += 1
    ctx.end_timing(out)
    out.train_steps = len(clock.steps)
    out.train_samples = (epoch - 1) * 2 * len(train_set)
    out.infer_samples = sum(n for _, n, _, _ in clock.evals)
    if ctx.trace:
        _probe(ctx, out, runs[0][0], train_set[0], reg)

    # checks
    for (net, _), (_, _, loss, metric), label in zip(
            runs, clock.evals[-2:], ("cifcnn_subset shared",
                                     "cifcnn_subset unshared")):
        checks.check_against_reference(net, [_xy(v) for v in val_set],
                                        (loss, metric), label)
        checks.check_finite(net, label)
        checks.check_weight_count(net, label)
    shared_net, optimizer = runs[0]
    saved = ctx.work / "shared"
    te.save_checkpoint(saved, shared_net, optimizer, epoch - 1)
    reloaded, _, _ = te.load_checkpoint(saved)
    checks.check_same_params(shared_net, reloaded, "cifcnn_subset shared")
    rel = checks.check_directional_fd(fs, shared_net, *_xy(train_set[0]), reg,
                                      ctx.seed, "cifcnn_subset shared")
    out.notes.append(f"rounds={epoch} fd_rel={rel:.2e}")
    return out


WORKLOADS = {
    "unet3d_train": unet3d_train,
    "unet3d_segment": unet3d_segment,
    "cifcnn_subset": cifcnn_subset,
}
