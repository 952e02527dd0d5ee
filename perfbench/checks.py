"""Correctness checks the benchmark runs outside its timed phases.

* ``reference_forward``: an independent plain-NumPy forward pass that reads
  only the network's JSON spec and parameter arrays. Convolution is a sum
  over kernel offsets of channel-contracted shifted slices (no im2col),
  pooling is a reshape-max, upsampling a repeat.
* ``check_against_reference``: ``Network.forward`` against the reference,
  then soft-Dice / cross-entropy loss, hard Dice and accuracy recomputed
  from reference outputs (``sample_scores``) against what
  ``traineval.evaluate`` reported.
* ``directional_fd``: ``(L(θ+hd) − L(θ−hd))/2h`` against ``<∇L, d>`` for a
  seeded random unit direction ``d`` over every parameter, dropout off.
  The error is taken relative to the larger of the two derivatives and of
  ``|∇L|/√n``, the root-mean-square of ``<∇L, d>`` over random unit
  directions: a direction that happens to be nearly orthogonal to the
  gradient would otherwise turn finite-difference rounding into a large
  relative error.
* ``weight_count_formula``: ``Σ(M·N·P + P·S)`` (``M·N·S`` for unshared
  layers, ``in·out`` for dense layers) from the spec alone.
"""

from __future__ import annotations

import numpy as np

FORWARD_RTOL = 1e-9   # reference vs Network.forward, relative to max |output|
SCORE_ATOL = 1e-9     # recomputed loss / metric vs evaluate's report
FD_STEP = 1e-6
FD_RTOL = 1e-4


class CheckFailed(AssertionError):
    pass


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# reference forward
# ---------------------------------------------------------------------------

def _conv(x, w, b, pad):
    if pad:
        x = np.pad(x, [(0, 0)] + [((e - 1) // 2,) * 2 for e in w.shape[2:]])
    out_sp = tuple(s - e + 1 for s, e in zip(x.shape[1:], w.shape[2:]))
    out = np.zeros((w.shape[0],) + out_sp)
    for offset in np.ndindex(*w.shape[2:]):
        window = (slice(None),) + tuple(slice(o, o + n)
                                        for o, n in zip(offset, out_sp))
        out += np.tensordot(w[(slice(None), slice(None)) + offset], x[window],
                            axes=(1, 0))
    return out + b.reshape((-1,) + (1,) * len(out_sp))


def _pool(x, window):
    blocked = [x.shape[0]]
    for s in x.shape[1:]:
        blocked += [s // window, window]
    return x.reshape(blocked).max(axis=tuple(range(2, len(blocked), 2)))


def _upsample(x, factor):
    for axis in range(1, x.ndim):
        x = np.repeat(x, factor, axis=axis)
    return x


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def layer_filters(layer, i, params):
    """The (M, N, *k) filters of conv layer i, expanded here if shared."""
    if layer["sharing_p"] is None:
        return params[f"layer{i}.weights"]
    seeds = params[f"layer{i}.seeds"]
    alpha = params[f"layer{i}.alpha"]
    return np.einsum("mnp,p...->mn...", alpha, seeds)


def reference_forward(spec_json, params, x):
    """Inference output of a network given its spec JSON and a dict of
    parameter arrays, using nothing from filtershare."""
    v = np.asarray(x, dtype=np.float64)
    saved = {}
    for i, layer in enumerate(spec_json["layers"]):
        kind = layer["kind"]
        if kind == "conv":
            v = _conv(v, layer_filters(layer, i, params),
                      params[f"layer{i}.bias"], layer["padding"] == "same")
            if layer["activation"] == "relu":
                v = np.maximum(v, 0.0)
            elif layer["activation"] == "sigmoid":
                v = _sigmoid(v)
            if layer["save_as"]:
                saved[layer["save_as"]] = v
        elif kind == "pool":
            v = _pool(v, layer["window"])
        elif kind == "upsample_concat":
            v = np.concatenate([_upsample(v, layer["factor"]),
                                saved[layer["skip"]]], axis=0)
        elif kind == "global_avg_pool":
            v = v.reshape(v.shape[0], -1).mean(axis=1)
        elif kind == "dense":
            v = params[f"layer{i}.weights"] @ v + params[f"layer{i}.bias"]
        else:
            raise CheckFailed(f"reference forward: unknown layer kind {kind}")
    if spec_json["head"] == "mask":
        v = v[0]
    return v


def param_arrays(net):
    return {k: p.value.array for k, p in net.params.items()}


# ---------------------------------------------------------------------------
# losses and metrics, recomputed
# ---------------------------------------------------------------------------

def sample_scores(out, target):
    """(loss, metric) of one sample: soft Dice (eps 1) and hard Dice at 0.5
    for a mask, cross-entropy and accuracy for logits."""
    target = getattr(target, "array", target)
    if np.ndim(target) == 0:
        y = int(target)
        m = out.max()
        loss = float(np.log(np.exp(out - m).sum()) + m - out[y])
        return loss, float(int(np.argmax(out)) == y)
    t = np.asarray(target)
    loss = 1.0 - (2.0 * (out * t).sum() + 1.0) / (out.sum() + t.sum() + 1.0)
    a, b = out >= 0.5, t >= 0.5
    total = int(a.sum()) + int(b.sum())
    dice = 1.0 if total == 0 else 2.0 * int((a & b).sum()) / total
    return float(loss), dice


def check_against_reference(net, samples, reported, label):
    """Compare Network.forward with the reference on every sample, then
    the mean loss and metric from reference outputs with ``reported``."""
    spec_json = net.spec.to_json()
    params = param_arrays(net)
    losses, metrics = [], []
    for x, y in samples:
        ref = reference_forward(spec_json, params, x.array)
        got = net.forward(x).array
        scale = max(1.0, float(np.abs(ref).max()))
        err = float(np.abs(got - ref).max())
        require(err <= FORWARD_RTOL * scale,
                f"{label}: Network.forward differs from the reference by "
                f"{err:.3e} (scale {scale:.3e})")
        loss, metric = sample_scores(ref, y)
        losses.append(loss)
        metrics.append(metric)
    loss, metric = float(np.mean(losses)), float(np.mean(metrics))
    require(abs(loss - reported[0]) <= SCORE_ATOL,
            f"{label}: evaluate reported loss {reported[0]!r}, reference "
            f"gives {loss!r}")
    require(abs(metric - reported[1]) <= SCORE_ATOL,
            f"{label}: evaluate reported metric {reported[1]!r}, reference "
            f"gives {metric!r}")


# ---------------------------------------------------------------------------
# directional finite-difference check
# ---------------------------------------------------------------------------

def training_loss(fs, net, x, y, reg):
    """Var of one sample's training loss with dropout off, plus the
    coefficient penalties when they are active."""
    te = fs.traineval
    out = net.forward_var(x, training=True, dropout_p=0.0)
    if np.ndim(getattr(y, "array", y)) == 0:
        loss = te.softmax_cross_entropy(out, y)
    else:
        loss = te.soft_dice_loss(out, y)
    penalty = fs.regularizers.penalty_term(net.alpha_params(), reg)
    return loss if penalty is None else fs.autodiff.add(loss, penalty)


def directional_fd(fs, net, x, y, reg, seed, step=FD_STEP):
    """Return (numeric, analytic, relative error) of the directional
    derivative of the training loss along a seeded unit direction."""
    ad, Tensor = fs.autodiff, fs.tensor.Tensor
    params = net.parameters()
    rng = np.random.default_rng(seed)
    direction = [rng.standard_normal(p.value.shape) for p in params]
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction))
    direction = [d / norm for d in direction]

    tape = ad.Tape()
    ad.zero_grads(params)
    with ad.recording(tape):
        training_loss(fs, net, x, y, reg)
    ad.backward(tape, Tensor([1.0]))
    analytic = sum(float((p.grad * d).sum()) for p, d in zip(params, direction))
    rms = np.sqrt(sum(float((p.grad * p.grad).sum()) for p in params)
                  / sum(p.value.size for p in params))
    ad.zero_grads(params)

    base = [p.value for p in params]
    values = []
    for sign in (1.0, -1.0):
        for p, b, d in zip(params, base, direction):
            p.assign(Tensor(b.array + sign * step * d))
        values.append(float(training_loss(fs, net, x, y, reg).array[0]))
    for p, b in zip(params, base):
        p.assign(b)
    numeric = (values[0] - values[1]) / (2.0 * step)
    scale = max(abs(numeric), abs(analytic), rms, 1e-300)
    return numeric, analytic, abs(numeric - analytic) / scale


def check_directional_fd(fs, net, x, y, reg, seed, label):
    numeric, analytic, rel = directional_fd(fs, net, x, y, reg, seed)
    require(rel <= FD_RTOL,
            f"{label}: directional derivative {analytic!r} from backward vs "
            f"{numeric!r} by finite differences (relative error {rel:.3e})")
    return rel


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def weight_count_formula(spec_json):
    """(shared count, unshared count) of non-bias weights from the spec."""
    shared = unshared = 0
    for layer in spec_json["layers"]:
        if layer["kind"] == "conv":
            m, n = layer["out_channels"], layer["in_channels"]
            s = int(np.prod(layer["kernel_extents"]))
            p = layer["sharing_p"]
            shared += m * n * s if p is None else m * n * p + p * s
            unshared += m * n * s
        elif layer["kind"] == "dense":
            shared += layer["in_dim"] * layer["out_dim"]
            unshared += layer["in_dim"] * layer["out_dim"]
    return shared, unshared


def check_weight_count(net, label):
    shared, unshared = weight_count_formula(net.spec.to_json())
    got = net.weight_count()
    require(got == shared, f"{label}: weight_count {got} != formula {shared}")
    if any(k.endswith(".seeds") for k in net.params):
        require(shared < unshared,
                f"{label}: shared count {shared} not below unshared "
                f"{unshared}")


def check_finite(net, label):
    for key, p in sorted(net.params.items()):
        require(bool(np.all(np.isfinite(p.value.array))),
                f"{label}: parameter {key} is not finite")


def check_same_params(a, b, label):
    require(sorted(a.params) == sorted(b.params),
            f"{label}: parameter names differ after reload")
    for key in a.params:
        require(np.array_equal(a.params[key].value.array,
                               b.params[key].value.array),
                f"{label}: parameter {key} differs after reload")
