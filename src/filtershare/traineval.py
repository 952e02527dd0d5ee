"""Losses, metrics, optimizers, and the training/evaluation loops.

Classification uses softmax cross-entropy and accuracy; segmentation trains
on soft Dice (epsilon = 1) and reports hard Dice overlap at a 0.5 threshold.
Runs are bitwise-reproducible for a fixed config and seed: shuffling and
dropout draw from per-(epoch, step) seeded streams, and the wall-time column
of the metrics CSV can be disabled where byte-identical output matters.
"""

from __future__ import annotations

import csv
import json
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nets
from .data import child_rng
from .errors import (ConfigError, ContractError, FormatError, NumericError,
                     ShapeError, TrainingAbort)
from .regularizers import RegularizerConfig, penalty_term, project_unit_norm_array
from .tensor import Tensor, dump_tensor, load_tensor

_TAG_SHUFFLE = 1
_TAG_DROPOUT = 2


# ---------------------------------------------------------------------------
# losses and metrics
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits, true_class: int) -> ad.Var:
    """-log softmax(logits)[true_class], computed with max subtraction."""
    lv = ad.as_var(logits)
    arr = lv.array
    if arr.ndim != 1:
        raise ShapeError(f"logits must be a vector, got shape {arr.shape}")
    true_class = int(true_class)
    if not 0 <= true_class < arr.shape[0]:
        raise ContractError(
            f"class {true_class} out of range for {arr.shape[0]} logits"
        )
    m = arr.max()
    exps = np.exp(arr - m)
    z = exps.sum()
    loss = float(np.log(z) + m - arr[true_class])
    probs = exps / z

    def vjp(g):
        grad = probs.copy()
        grad[true_class] -= 1.0
        return (g[0] * grad,)

    return ad.custom_op(Tensor._wrap(np.array([loss])), (lv,), vjp)


def soft_dice_loss(pred, target, epsilon: float = 1.0) -> ad.Var:
    """1 - (2*sum(p*t) + eps) / (sum(p) + sum(t) + eps); differentiable in p."""
    pv = ad.as_var(pred)
    t = target.array if isinstance(target, Tensor) else np.asarray(target, float)
    p = pv.array
    if p.shape != t.shape:
        raise ShapeError(
            f"prediction shape {p.shape} does not match target shape {t.shape}"
        )
    inter = float((p * t).sum())
    denom = float(p.sum() + t.sum() + epsilon)
    loss = 1.0 - (2.0 * inter + epsilon) / denom

    def vjp(g):
        # d/dp of -(2*inter+eps)/denom, via quotient rule
        grad = -(2.0 * t * denom - (2.0 * inter + epsilon)) / (denom * denom)
        return (g[0] * grad,)

    return ad.custom_op(Tensor._wrap(np.array([loss])), (pv,), vjp)


def dice_overlap(pred: Tensor, target: Tensor) -> float:
    """2|A^B| / (|A|+|B|) on binary masks; predictions threshold at 0.5.

    Both masks empty counts as perfect agreement (returns 1.0)."""
    p = pred.array if isinstance(pred, Tensor) else np.asarray(pred, float)
    t = target.array if isinstance(target, Tensor) else np.asarray(target, float)
    if p.shape != t.shape:
        raise ShapeError(
            f"prediction shape {p.shape} does not match target shape {t.shape}"
        )
    a = p >= 0.5
    b = t >= 0.5
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / total


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class SGD:
    kind = "sgd"

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ConfigError(f"learning rate must be > 0, got {learning_rate}")
        self.learning_rate = learning_rate

    def step(self, params) -> None:
        for p in params:
            p.assign(Tensor._wrap(p.value.array - self.learning_rate * p.grad))

    def state(self) -> dict:
        return {}

    def load_state(self, state: dict) -> None:
        pass


class Adam:
    kind = "adam"
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ConfigError(f"learning rate must be > 0, got {learning_rate}")
        self.learning_rate = learning_rate
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correct1 = 1.0 - b1 ** self.t
        correct2 = 1.0 - b2 ** self.t
        for p in params:
            m = self.m.get(p.id)
            if m is None:
                m = np.zeros(p.value.shape)
                v = np.zeros(p.value.shape)
            else:
                v = self.v[p.id]
            m = b1 * m + (1.0 - b1) * p.grad
            v = b2 * v + (1.0 - b2) * (p.grad * p.grad)
            self.m[p.id], self.v[p.id] = m, v
            update = (m / correct1) / (np.sqrt(v / correct2) + self.eps)
            p.assign(Tensor._wrap(p.value.array - self.learning_rate * update))

    def state(self) -> dict:
        return {"t": self.t}

    def load_state(self, state: dict) -> None:
        self.t = int(state.get("t", 0))


def make_optimizer(kind: str, learning_rate: float):
    if kind == "sgd":
        return SGD(learning_rate)
    if kind == "adam":
        return Adam(learning_rate)
    raise ConfigError(f"unknown optimizer {kind!r}")


def optimizer_step(optimizer, params, reg: RegularizerConfig | None = None,
                   banks=()) -> None:
    """One update: NaN guard, optimizer update, then, when that scheme is
    enabled, unit-norm projection of each (seeds, alpha) bank. Alpha takes
    up the seed norms, so the expanded filters are unchanged."""
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise TrainingAbort(f"non-finite gradient in parameter {p.id}")
    optimizer.step(params)
    if reg is not None and reg.unit_norm_seeds:
        for seeds, alpha in banks:
            unit, norms = project_unit_norm_array(seeds.value.array)
            seeds.assign(Tensor._wrap(unit))
            alpha.assign(Tensor._wrap(alpha.value.array * norms))


# ---------------------------------------------------------------------------
# metrics stream
# ---------------------------------------------------------------------------

METRICS_HEADER = ("epoch", "split", "loss", "metric", "seconds")


@dataclass(frozen=True)
class MetricsRow:
    epoch: int
    split: str
    loss: float
    metric: float
    seconds: float


@dataclass
class Metrics:
    rows: list[MetricsRow] = field(default_factory=list)

    def append(self, row: MetricsRow) -> None:
        self.rows.append(row)

    def extend(self, other: "Metrics") -> None:
        self.rows.extend(other.rows)

    def final(self, split: str) -> MetricsRow | None:
        picked = [r for r in self.rows if r.split == split]
        return picked[-1] if picked else None

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(METRICS_HEADER)
            for r in self.rows:
                w.writerow([r.epoch, r.split, f"{r.loss:.12g}",
                            f"{r.metric:.12g}", f"{r.seconds:.6f}"])

    @classmethod
    def read_csv(cls, path, last_epoch: int) -> "Metrics":
        """Rows written by a run whose last checkpoint is at last_epoch.
        Raises FormatError naming the file and line on a malformed row, a
        non-finite number or an epoch past last_epoch."""
        out = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if tuple(header) != METRICS_HEADER:
                raise FormatError(f"{path}: unexpected metrics header {header}")
            for row in reader:
                where = f"{path}: line {reader.line_num}"
                try:
                    epoch, split, loss, metric, seconds = row
                    r = MetricsRow(int(epoch), split, float(loss),
                                   float(metric), float(seconds))
                except ValueError:
                    raise FormatError(f"{where}: malformed metrics row "
                                      f"{row}") from None
                if not np.all(np.isfinite([r.loss, r.metric, r.seconds])):
                    raise FormatError(f"{where}: non-finite value in {row}")
                if r.epoch > last_epoch:
                    raise FormatError(f"{where}: epoch {r.epoch} is past the "
                                      f"checkpoint's epoch {last_epoch}")
                out.append(r)
        return out


# ---------------------------------------------------------------------------
# dataset plumbing
# ---------------------------------------------------------------------------

def _as_xy(item):
    if hasattr(item, "image"):
        return item.image, int(item.label)
    if hasattr(item, "volume"):
        return item.volume, item.mask
    x, y = item
    return x, (int(y) if isinstance(y, (int, np.integer)) else y)


def _sample_loss(net: nets.Network, x, y, training: bool,
                 dropout_p: float, rng) -> tuple[ad.Var, float]:
    """Loss Var plus the reporting metric for one sample."""
    out = net.forward_var(x, training=training, dropout_p=dropout_p, rng=rng)
    if net.spec.head == nets.HEAD_LOGITS:
        loss = softmax_cross_entropy(out, y)
        metric = 1.0 if int(np.argmax(out.array)) == int(y) else 0.0
    else:
        loss = soft_dice_loss(out, y)
        metric = dice_overlap(out.value, y)
    return loss, metric


# ---------------------------------------------------------------------------
# training configuration and loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    batch_size: int = 4
    epochs: int = 10
    seed: int = 0
    eval_every: int = 1
    record_seconds: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")


def evaluate(net: nets.Network, dataset) -> tuple[float, float]:
    """Mean loss and mean metric over a dataset; pure (dropout disabled).
    Raises NumericError when the loss is not finite."""
    if len(dataset) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    loss_sum = 0.0
    metric_sum = 0.0
    for item in dataset:
        x, y = _as_xy(item)
        loss, metric = _sample_loss(net, x, y, training=False,
                                    dropout_p=0.0, rng=None)
        loss_sum += float(loss.array[0])
        metric_sum += metric
    n = len(dataset)
    if not np.isfinite(loss_sum):
        raise NumericError(f"evaluation loss is {loss_sum} over {n} samples")
    return loss_sum / n, metric_sum / n


def train(net: nets.Network, train_set, val_set, config: TrainConfig,
          reg: RegularizerConfig | None = None,
          checkpoint_dir=None, start_epoch: int = 0,
          optimizer=None) -> tuple[nets.Network, Metrics]:
    """Mini-batch training with seeded shuffling.

    Total loss per step is the batch-mean task loss plus any active
    coefficient penalties; gradients from per-sample tapes merge in fixed
    order. Checkpoints (last two kept) land in checkpoint_dir per epoch.
    """
    if len(train_set) == 0:
        raise ConfigError("training set is empty")
    reg = reg or RegularizerConfig()
    params = net.parameters()
    alphas = net.alpha_params()
    banks = net.bank_params()
    optimizer = optimizer or make_optimizer(config.optimizer, config.learning_rate)
    metrics = Metrics()
    n = len(train_set)
    penalties_active = bool(alphas) and (reg.l1_alpha > 0 or reg.nuclear_alpha > 0)

    for epoch in range(start_epoch, config.epochs):
        t_start = time.perf_counter()
        order = child_rng(config.seed, _TAG_SHUFFLE, epoch).permutation(n)
        loss_sum = 0.0
        metric_sum = 0.0
        for step_idx, lo in enumerate(range(0, n, config.batch_size)):
            batch = order[lo:lo + config.batch_size]
            ad.zero_grads(params)
            batch_loss = 0.0
            drop_rng = child_rng(config.seed, _TAG_DROPOUT, epoch, step_idx)
            for item_idx in batch:
                x, y = _as_xy(train_set[int(item_idx)])
                tape = ad.Tape()
                with ad.recording(tape):
                    loss, metric = _sample_loss(net, x, y, training=True,
                                                dropout_p=reg.dropout_p,
                                                rng=drop_rng)
                sample_loss = float(loss.array[0])
                if not np.isfinite(sample_loss):
                    _abort(checkpoint_dir, f"non-finite loss at epoch {epoch} "
                                           f"step {step_idx}")
                ad.backward(tape, Tensor([1.0 / len(batch)]))
                batch_loss += sample_loss / len(batch)
                metric_sum += metric
            if penalties_active:
                ptape = ad.Tape()
                with ad.recording(ptape):
                    pvar = penalty_term(alphas, reg)
                ad.backward(ptape, Tensor([1.0]))
                batch_loss += float(pvar.array[0])
            loss_sum += batch_loss * len(batch)
            optimizer_step(optimizer, params, reg, banks)
        train_seconds = time.perf_counter() - t_start
        metrics.append(MetricsRow(
            epoch, "train", loss_sum / n, metric_sum / n,
            train_seconds if config.record_seconds else 0.0))

        if val_set and config.eval_every and (epoch + 1) % config.eval_every == 0:
            t_eval = time.perf_counter()
            val_loss, val_metric = evaluate(net, val_set)
            metrics.append(MetricsRow(
                epoch, "val", val_loss, val_metric,
                (time.perf_counter() - t_eval) if config.record_seconds else 0.0))

        if checkpoint_dir is not None:
            save_checkpoint(Path(checkpoint_dir) / f"epoch_{epoch:04d}",
                            net, optimizer, epoch)
            _prune_checkpoints(checkpoint_dir)
    return net, metrics


def _abort(checkpoint_dir, why: str):
    hint = (f"; last-good checkpoint retained under {checkpoint_dir}"
            if checkpoint_dir else "")
    raise TrainingAbort(why + hint)


# ---------------------------------------------------------------------------
# checkpoints: one tensor dump per array plus a JSON manifest
# ---------------------------------------------------------------------------

def save_checkpoint(directory, net: nets.Network, optimizer, epoch: int) -> None:
    """Write into a sibling ``.tmp`` directory, then swap it into place.

    An existing checkpoint is renamed aside (``.old``) before the swap and
    deleted after it, so at every instant one complete copy is on disk."""
    directory = Path(directory)
    tmp = directory.with_name(directory.name + ".tmp")
    aside = directory.with_name(directory.name + ".old")
    for stale in (tmp, aside):
        if stale.exists():
            shutil.rmtree(stale)
    tmp.mkdir(parents=True)
    manifest = {
        "format": 1,
        "epoch": epoch,
        "net": net.spec.to_json(),
        "optimizer": {"kind": optimizer.kind,
                      "learning_rate": optimizer.learning_rate,
                      **optimizer.state()},
        "params": sorted(net.params),
    }
    for key, p in net.params.items():
        dump_tensor(p.value, tmp / f"{key}.bin")
    if isinstance(optimizer, Adam):
        for key in net.params:
            if key in optimizer.m:
                dump_tensor(Tensor._wrap(optimizer.m[key].copy()),
                            tmp / f"{key}.adam_m.bin")
                dump_tensor(Tensor._wrap(optimizer.v[key].copy()),
                            tmp / f"{key}.adam_v.bin")
    (tmp / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True))
    if directory.exists():
        directory.rename(aside)
    tmp.rename(directory)
    if aside.exists():
        shutil.rmtree(aside)


def load_checkpoint(directory) -> tuple[nets.Network, object, int]:
    """Load a save_checkpoint directory. Raises FormatError naming the file
    when the manifest is malformed or of another format, or when a parameter
    or Adam state file is missing or shaped unlike ``Network.initialize``
    of the manifest's net spec."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
        if manifest["format"] != 1:
            raise ValueError(f"format {manifest['format']!r}, expected 1")
        spec = nets.NetSpec.from_json(manifest["net"])
        shapes = {k: p.value.shape
                  for k, p in nets.Network.initialize(spec).params.items()}
        if sorted(manifest["params"]) != sorted(shapes):
            raise ValueError(f"parameters {manifest['params']} do not match "
                             f"the net spec's {sorted(shapes)}")
        opt_info = manifest["optimizer"]
        optimizer = make_optimizer(opt_info["kind"], opt_info["learning_rate"])
        optimizer.load_state(opt_info)
        epoch = int(manifest["epoch"])
    except (KeyError, TypeError, ValueError) as e:  # JSONDecodeError too
        raise FormatError(f"{manifest_path}: {type(e).__name__}: {e}") from None
    net = nets.Network(spec, {
        key: ad.Parameter(key, _load_shaped(directory / f"{key}.bin", shape))
        for key, shape in shapes.items()})
    if isinstance(optimizer, Adam):
        for key, shape in shapes.items():
            m_path = directory / f"{key}.adam_m.bin"
            v_path = directory / f"{key}.adam_v.bin"
            if m_path.exists() or v_path.exists():
                optimizer.m[key] = _load_shaped(m_path, shape).array.copy()
                optimizer.v[key] = _load_shaped(v_path, shape).array.copy()
    return net, optimizer, epoch


def _load_shaped(path, shape) -> Tensor:
    if not path.is_file():
        raise FormatError(f"{path}: missing from the checkpoint")
    t = load_tensor(path)
    if tuple(t.shape) != tuple(shape):
        raise FormatError(
            f"{path}: shape {tuple(t.shape)}, expected {tuple(shape)}")
    return t


def _epoch_dirs(directory) -> list[Path]:
    """Complete checkpoints under directory, oldest first; the ``.tmp`` and
    ``.old`` siblings of an interrupted save are not checkpoints."""
    return sorted(d for d in Path(directory).iterdir()
                  if d.is_dir() and d.name.startswith("epoch_") and not d.suffix)


def latest_checkpoint(directory) -> Path | None:
    if not Path(directory).exists():
        return None
    candidates = _epoch_dirs(directory)
    return candidates[-1] if candidates else None


def _prune_checkpoints(directory) -> None:
    """Delete all but the last two checkpoints."""
    for stale in _epoch_dirs(directory)[:-2]:
        shutil.rmtree(stale)
