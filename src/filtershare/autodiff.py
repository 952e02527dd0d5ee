"""Reverse-mode automatic differentiation over the tensor kernels.

Define-by-run: ops executed inside ``recording(tape)`` append one entry per
primitive, in execution (hence topological) order; ``backward`` walks the tape
once in reverse. Loss gradients therefore flow into whatever Parameters the
program touched - seed filter banks, mixing coefficients, biases - with no
hand-derived layer gradients. A network layer is one primitive: ``conv_stack``
zero-pads, convolves and adds the bias, and ``upsample_concat`` joins a U-Net
skip.

Parameters accumulate gradients across backward calls until ``zero_grads``;
intermediate adjoints are transient per backward pass. The active tape is one
module-level slot, so recording is single-threaded.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ContractError, ShapeError
from .tensor import Shape, Tensor

__all__ = [
    "Var", "Parameter", "Tape", "recording", "custom_op", "as_var",
    "forward", "backward", "zero_grads", "grad_check", "GradCheckReport",
    "add", "relu", "sigmoid", "sum_all",
    "conv_stack", "max_pool", "upsample_concat", "global_avg_pool",
    "affine", "apply_mask", "mix_filters", "squeeze_leading",
    "set_fault_injection",
]


class Var:
    """A tensor value observed by the tape. Leaf Vars are constants."""

    __slots__ = ("value", "grad", "requires_grad")

    def __init__(self, value, requires_grad: bool = False):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def array(self) -> np.ndarray:
        return self.value.array

    @property
    def shape(self) -> Shape:
        return self.value.shape

    def __repr__(self):
        return f"{type(self).__name__}(shape={tuple(self.shape)})"


class Parameter(Var):
    """A named trainable leaf; its grad persists across backward calls."""

    __slots__ = ("id",)

    def __init__(self, id: str, value):
        super().__init__(value, requires_grad=True)
        self.id = id
        self.grad = np.zeros(self.value.shape)

    def assign(self, value) -> None:
        """Replace the value (optimizer updates); grad shape must still match."""
        value = value if isinstance(value, Tensor) else Tensor(value)
        if tuple(value.shape) != tuple(self.value.shape):
            raise ShapeError(
                f"parameter {self.id}: cannot assign shape {tuple(value.shape)} "
                f"over {tuple(self.value.shape)}"
            )
        self.value = value


def zero_grads(params) -> None:
    for p in params:
        p.grad = np.zeros(p.value.shape)


@dataclass
class _Entry:
    out: Var
    inputs: tuple[Var, ...]
    vjp: object  # callable: grad_out -> tuple of per-input grads (or None)


@dataclass
class Tape:
    """Ordered record of executed primitives; inputs always precede use."""

    entries: list[_Entry] = field(default_factory=list)
    output: Var | None = None

    def __len__(self):
        return len(self.entries)


_ACTIVE_TAPE: Tape | None = None


@contextlib.contextmanager
def recording(tape: Tape):
    global _ACTIVE_TAPE
    prev = _ACTIVE_TAPE
    _ACTIVE_TAPE = tape
    try:
        yield tape
    finally:
        _ACTIVE_TAPE = prev


def as_var(x) -> Var:
    if isinstance(x, Var):
        return x
    return Var(x)


def custom_op(value: Tensor, inputs: tuple[Var, ...], vjp) -> Var:
    """Record one primitive on the active tape (if any) and return its output.

    ``vjp(grad_out)`` must return one gradient array per input, aligned by
    position; None means "no gradient flows to this input".
    """
    out = Var(value)
    if any(v.requires_grad for v in inputs):
        out.requires_grad = True
        if _ACTIVE_TAPE is not None:
            _ACTIVE_TAPE.entries.append(_Entry(out, inputs, vjp))
            _ACTIVE_TAPE.output = out
    return out


def forward(program, inputs=()) -> tuple[Tensor, Tape]:
    """Run a program under a fresh tape. Returns (output value, tape).

    The program is a callable taking one Var per input; it should reference
    only the supplied inputs and registered parameters.
    """
    tape = Tape()
    in_vars = [as_var(t) for t in inputs]
    with recording(tape):
        out = program(*in_vars)
    if not isinstance(out, Var):
        raise ContractError("program must return a Var")
    tape.output = out
    return out.value, tape


def backward(tape: Tape, seed) -> None:
    """Accumulate d(seed . output)/d(param) into every touched Parameter.

    Repeated calls on the same tape re-walk it and accumulate again (running
    twice exactly doubles every Parameter grad).
    """
    out = tape.output
    if out is None:
        raise ContractError("tape has no recorded output")
    seed = seed if isinstance(seed, Tensor) else Tensor(seed)
    if tuple(seed.shape) != tuple(out.shape):
        raise ShapeError(
            f"backward seed shape {tuple(seed.shape)} does not match "
            f"output shape {tuple(out.shape)}"
        )
    # reset transient adjoints; Parameter grads persist by design
    for e in tape.entries:
        if not isinstance(e.out, Parameter):
            e.out.grad = None
        for v in e.inputs:
            if v.requires_grad and not isinstance(v, Parameter):
                v.grad = None

    if isinstance(out, Parameter):
        out.grad += seed.array
        return
    out.grad = seed.array.copy()
    for e in reversed(tape.entries):
        g = e.out.grad
        if g is None:
            continue
        for v, gin in zip(e.inputs, e.vjp(g)):
            if gin is None or not v.requires_grad:
                continue
            if isinstance(v, Parameter):
                v.grad += gin
            elif v.grad is None:
                v.grad = np.array(gin)
            else:
                v.grad = v.grad + gin


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

_FAULT_INJECT = False


def set_fault_injection(enabled: bool) -> None:
    """Deliberately corrupt the relu backward rule. Test hook only."""
    global _FAULT_INJECT
    _FAULT_INJECT = bool(enabled)


def _op(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ShapeError as e:
        raise ShapeError(f"{name}: {e}") from None


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    _op("add", kernels.require_same_shape, a.array, b.array)
    return custom_op(Tensor._wrap(a.array + b.array), (a, b), lambda g: (g, g))


def relu(a) -> Var:
    a = as_var(a)
    mask = a.array > 0

    def vjp(g):
        gx = g * mask
        if _FAULT_INJECT:
            gx = gx * 1.05
        return (gx,)

    return custom_op(Tensor._wrap(kernels.relu(a.array)), (a,), vjp)


def sigmoid(a) -> Var:
    a = as_var(a)
    s = kernels.sigmoid(a.array)
    return custom_op(Tensor._wrap(s), (a,), lambda g: (g * s * (1.0 - s),))


def sum_all(a) -> Var:
    """Full reduction to a shape-(1,) scalar."""
    a = as_var(a)
    shp = a.array.shape
    return custom_op(
        Tensor._wrap(np.array([a.array.sum()])),
        (a,),
        lambda g: (np.full(shp, g[0]),),
    )


def conv_stack(x, f, b, widths) -> Var:
    """One conv layer: zero-pad x (N, *sp) by widths[d] on both sides of
    spatial axis d, cross-correlate with the (M, N, *k) filters and add the
    (M,) bias -> (M, *osp). This is the one place that checks a conv call's
    filter rank, channel count, pad widths and bias against its input, before
    any im2col matrix is built.

    The forward (partial) im2col matrix is kept on the tape and reused by the
    filter gradient; the input gradient is that of the unpadded x, so backward
    costs one extra partial im2col plus two sets of prod(k[:-1]) matrix
    products (k[0] in 1D, where no kernel axis is unrolled). A
    constant x (one that requires no gradient, like a network's input) gets
    no input gradient at all.
    """
    x, f, b = as_var(x), as_var(f), as_var(b)
    xa, fa = x.array, f.array
    widths = tuple(int(w) for w in widths)
    if fa.ndim != xa.ndim + 1:
        raise ShapeError(
            f"conv_stack: filter stack must be (out, in, *kernel); got "
            f"{fa.ndim} axes for a {xa.ndim - 1}-dimensional input stack"
        )
    if fa.shape[1] != xa.shape[0]:
        raise ShapeError(
            f"conv_stack: filter stack expects {fa.shape[1]} input channels, "
            f"got {xa.shape[0]}"
        )
    if len(widths) != xa.ndim - 1 or not all(
            0 <= w < e for w, e in zip(widths, fa.shape[2:])):
        raise ShapeError(f"conv_stack: pad widths {widths} do not fit a "
                         f"{fa.shape[2:]} kernel on a {xa.shape} input")
    if b.array.shape != fa.shape[:1]:
        raise ShapeError(
            f"conv_stack: bias shaped {b.array.shape} for {fa.shape[0]} filters"
        )
    xp = kernels.pad_stack(xa, widths)
    cols, out_sp = _op("conv_stack", kernels.stack_cols, xp, fa.shape[2:])
    out = kernels.conv_stack(fa, cols, out_sp)
    out += b.array[(slice(None),) + (None,) * len(widths)]
    spatial_axes = tuple(range(1, out.ndim))

    def vjp(g):
        gx = (kernels.conv_stack_grad_input(g, fa, widths)
              if x.requires_grad else None)
        return (gx,
                kernels.conv_stack_grad_filters(g, cols, fa.shape),
                g.sum(axis=spatial_axes))

    return custom_op(Tensor._wrap(out), (x, f, b), vjp)


def max_pool(x, window: int) -> Var:
    """Non-overlapping max pool, the same window on every spatial axis of a
    (C, *sp) stack."""
    x = as_var(x)
    window = (int(window),) * (x.array.ndim - 1)
    xa = x.array
    pooled = _op("max_pool", kernels.max_pool_stack, xa, window)
    return custom_op(
        Tensor._wrap(pooled), (x,),
        lambda g: (kernels.max_pool_scatter(g, xa, pooled, window),),
    )


def upsample_concat(x, skip, factor: int) -> Var:
    """U-Net skip join: nearest-neighbor upsample the spatial axes of x
    (C, *sp) by factor, then stack the skip's channels after it."""
    x, skip = as_var(x), as_var(skip)
    factor = int(factor)
    up = kernels.upsample_stack(x.array, factor)
    if up.shape[1:] != skip.array.shape[1:]:
        raise ShapeError(
            f"upsample_concat: upsampled spatial shape {up.shape[1:]} differs "
            f"from the skip's {skip.array.shape[1:]}"
        )
    c = up.shape[0]
    out = np.concatenate([up, skip.array], axis=0)
    return custom_op(Tensor._wrap(out), (x, skip),
                     lambda g: (kernels.upsample_stack_vjp(g[:c], factor), g[c:]))


def global_avg_pool(x) -> Var:
    """Mean over the spatial axes of a (C, *sp) stack -> (C,)."""
    x = as_var(x)
    if x.array.ndim < 2:
        raise ShapeError("global_avg_pool: input has no spatial axes")
    spatial_axes = tuple(range(1, x.array.ndim))
    n = int(np.prod(x.array.shape[1:]))
    shp = x.array.shape
    expand = (slice(None),) + (None,) * (len(shp) - 1)

    def vjp(g):
        return (np.broadcast_to(g[expand] / n, shp).copy(),)

    return custom_op(Tensor._wrap(x.array.mean(axis=spatial_axes)), (x,), vjp)


def affine(w, x, b) -> Var:
    """Dense map: w (out, in) @ x (in,) + b (out,)."""
    w, x, b = as_var(w), as_var(x), as_var(b)
    if x.array.ndim != 1 or w.array.ndim != 2 or b.array.ndim != 1:
        raise ShapeError("affine: expects w (out,in), x (in,), b (out,)")
    if w.array.shape[1] != x.array.shape[0] or w.array.shape[0] != b.array.shape[0]:
        raise ShapeError(
            f"affine: incompatible shapes w{w.array.shape} x{x.array.shape} "
            f"b{b.array.shape}"
        )
    wa, xa = w.array, x.array
    out = wa @ xa + b.array

    def vjp(g):
        return (np.outer(g, xa), wa.T @ g, g.copy())

    return custom_op(Tensor._wrap(out), (w, x, b), vjp)


def apply_mask(x, mask: np.ndarray) -> Var:
    """Elementwise multiply by a constant mask (dropout's training path)."""
    x = as_var(x)
    kernels.require_same_shape(x.array, mask, "apply_mask operands")
    return custom_op(Tensor._wrap(x.array * mask), (x,), lambda g: (g * mask,))


def mix_filters(seeds, alpha) -> Var:
    """Expand a filter bank: (P, *k) seeds x (M, N, P) alpha -> (M, N, *k)."""
    seeds, alpha = as_var(seeds), as_var(alpha)
    sa, aa = seeds.array, alpha.array
    if aa.ndim != 3:
        raise ShapeError(f"mix_filters: alpha must be (M, N, P), got {aa.shape}")
    if sa.shape[0] != aa.shape[2]:
        raise ShapeError(
            f"mix_filters: alpha carries P={aa.shape[2]} but bank has "
            f"P={sa.shape[0]} seeds"
        )
    out = np.tensordot(aa, sa, axes=([2], [0]))
    kdims = tuple(range(2, out.ndim))

    def vjp(g):
        g_seeds = np.tensordot(aa, g, axes=([0, 1], [0, 1]))
        g_alpha = np.tensordot(g, sa, axes=(kdims, tuple(range(1, sa.ndim))))
        return (g_seeds, g_alpha)

    return custom_op(Tensor._wrap(out), (seeds, alpha), vjp)


def squeeze_leading(x) -> Var:
    """Drop a singleton leading channel axis: (1, *sp) -> (*sp)."""
    x = as_var(x)
    if x.array.shape[0] != 1 or x.array.ndim < 2:
        raise ShapeError(
            f"squeeze_leading: expected singleton leading axis, got {x.array.shape}"
        )
    out = np.ascontiguousarray(x.array[0])
    return custom_op(Tensor._wrap(out), (x,), lambda g: (g[None],))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckRow:
    param_id: str
    coord: int
    analytic: float
    numeric: float
    rel_err: float
    kinked: bool = False  # FD stencil straddles a relu/pool kink; excused


@dataclass
class GradCheckReport:
    rows: list[GradCheckRow]
    tolerance: float
    max_rel_err: float
    passed: bool

    def worst_by_param(self) -> dict[str, float]:
        worst: dict[str, float] = {}
        for r in self.rows:
            err = 0.0 if r.kinked else r.rel_err
            worst[r.param_id] = max(worst.get(r.param_id, 0.0), err)
        return worst


def _eval_scalar(program, inputs) -> float:
    out = program(*[as_var(t) for t in inputs])
    if tuple(out.shape) != (1,):
        raise ContractError(
            f"grad_check needs a scalar (shape (1,)) program output, "
            f"got {tuple(out.shape)}"
        )
    return float(out.array[0])


def _select_coords(parameters, budget, seed):
    sizes = {p.id: p.value.size for p in parameters}
    total = sum(sizes.values())
    if total <= budget:
        return {p.id: np.arange(sizes[p.id]) for p in parameters}
    rng = np.random.default_rng(seed)
    picked = {}
    for p in parameters:
        n = max(1, int(round(budget * sizes[p.id] / total)))
        n = min(n, sizes[p.id])
        picked[p.id] = np.sort(rng.choice(sizes[p.id], size=n, replace=False))
    return picked


GRAD_CHECK_STEP = 1e-5


def grad_check(program, parameters, tolerance: float = 1e-4, inputs=(),
               coord_budget: int = 10_000, seed: int = 0) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    Per coordinate: step h = GRAD_CHECK_STEP * max(1, |theta|), relative error
    |a - n| / (|a| + |n| + 1e-12). Checks every coordinate, or a seeded
    random subset when the total exceeds coord_budget.

    Coordinates whose FD stencil straddles a relu/pool kink are excused,
    with evidence: for a single kink inside the stencil, the central
    difference's error equals |f+ - 2 f0 + f-| / (2h) exactly, so a
    failing coordinate is marked kinked (and skipped) only when that
    second difference accounts for the analytic/numeric gap. A genuinely
    wrong backward rule leaves the second difference near zero and still
    fails.
    """
    parameters = list(parameters)
    out_value, tape = forward(program, inputs)
    if tuple(out_value.shape) != (1,):
        raise ContractError(
            f"grad_check needs a scalar (shape (1,)) program output, "
            f"got {tuple(out_value.shape)}"
        )
    zero_grads(parameters)
    backward(tape, Tensor([1.0]))
    analytic = {p.id: p.grad.reshape(-1).copy() for p in parameters}
    f_base = float(out_value.array[0])

    coords = _select_coords(parameters, coord_budget, seed)
    rows = []
    for p in parameters:
        base = p.value
        flat = base.array.reshape(-1)
        for ci in coords[p.id]:
            ci = int(ci)
            theta = flat[ci]
            h = GRAD_CHECK_STEP * max(1.0, abs(theta))
            for sign in (+1.0, -1.0):
                bumped = base.array.copy()
                bumped.reshape(-1)[ci] = theta + sign * h
                p.value = Tensor._wrap(bumped)
                if sign > 0:
                    f_plus = _eval_scalar(program, inputs)
                else:
                    f_minus = _eval_scalar(program, inputs)
            p.value = base
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[p.id][ci])
            rel = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
            kinked = False
            if rel >= tolerance:
                stencil_err = abs(f_plus - 2.0 * f_base + f_minus) / (2.0 * h)
                kinked = stencil_err >= 0.5 * abs(a - numeric)
            rows.append(GradCheckRow(p.id, ci, a, numeric, rel, kinked))
    max_rel = max((r.rel_err for r in rows if not r.kinked), default=0.0)
    return GradCheckReport(rows, tolerance, max_rel, max_rel < tolerance)
