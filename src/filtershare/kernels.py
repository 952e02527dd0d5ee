"""Raw float64 array kernels under the autodiff ops.

Arrays are "stacks" with a leading channel axis (channels, *spatial). The one
convolution is a channel-stacked cross-correlation (no kernel flip; learned
filters absorb it), computed as im2col (`stack_cols`) plus one GEMM. The
caller zero-pads the input with `pad_stack`, and `conv_stack_grad_input`
takes the same widths and returns the gradient of the unpadded input. Every
function is pure and deterministic.

On import this module sets a process-wide glibc allocator policy through
`mallopt`: blocks below 1 GiB come from the heap rather than their own `mmap`
(`M_MMAP_THRESHOLD`), and freed memory goes back to the kernel only when more
than 2 GiB of it sits at the top of the heap (`M_TRIM_THRESHOLD`). A 40^3
U-Net training sample builds about 1.2 GB of im2col matrices, up to 316 MB
each. With glibc's defaults each is a fresh `mmap` whose pages the kernel
faults in and zeroes again, about a fifth of a training sample and more of an
inference pass; with the policy, later buffers reuse the pages of freed ones.
The cost is that the resident set stays at the run's high-water mark until
exit. Where libc has no `mallopt` (not glibc), the call is skipped.
"""

from __future__ import annotations

import ctypes

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError

_M_TRIM_THRESHOLD = -1  # parameter numbers from <malloc.h>
_M_MMAP_THRESHOLD = -3


def _keep_freed_blocks_mapped():
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 1 << 30)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)  # the largest value of its int


_keep_freed_blocks_mapped()


def require_kernel_fits(in_spatial, k_spatial, what="kernel"):
    if len(k_spatial) != len(in_spatial):
        raise ShapeError(
            f"{what} is {len(k_spatial)}-dimensional but input is "
            f"{len(in_spatial)}-dimensional"
        )
    for d, (i, k) in enumerate(zip(in_spatial, k_spatial)):
        if k > i:
            raise ShapeError(
                f"{what} extent {k} exceeds input extent {i} in dimension {d}"
            )


# ---------------------------------------------------------------------------
# channel-stacked convolution: x (N, *sp), filters (M, N, *k) -> (M, *out_sp)
# ---------------------------------------------------------------------------

def _spatial_axes(ndim_stack):
    return tuple(range(1, ndim_stack))


def stack_cols(x, k_spatial):
    """im2col over the spatial axes of a (N, *sp) stack.

    Returns (cols, out_spatial): cols is a contiguous (N*S, prod(out_sp))
    matrix whose rows follow (channel, *kernel) row-major order, so both the
    forward pass and the filter gradient reduce to one dgemm each against it.
    """
    require_kernel_fits(x.shape[1:], k_spatial)
    win = sliding_window_view(x, k_spatial, axis=_spatial_axes(x.ndim))
    d = len(k_spatial)
    out_sp = win.shape[1:1 + d]
    perm = (0,) + tuple(range(1 + d, 1 + 2 * d)) + tuple(range(1, 1 + d))
    cols = win.transpose(perm).reshape(
        x.shape[0] * int(np.prod(k_spatial)), int(np.prod(out_sp)))
    return np.ascontiguousarray(cols), out_sp


def conv_stack(x, f, cols=None, out_spatial=None):
    if f.ndim != x.ndim + 1:
        raise ShapeError(
            f"filter stack must be (out, in, *kernel); got {f.ndim} axes for a "
            f"{x.ndim - 1}-dimensional input stack"
        )
    if f.shape[1] != x.shape[0]:
        raise ShapeError(
            f"filter stack expects {f.shape[1]} input channels, got {x.shape[0]}"
        )
    if cols is None:
        cols, out_spatial = stack_cols(x, f.shape[2:])
    m = f.shape[0]
    out = f.reshape(m, -1) @ cols
    return out.reshape((m,) + tuple(out_spatial))


def conv_stack_grad_filters(g, cols, f_shape):
    """Gradient w.r.t. the (M, N, *k) filter stack given the forward cols."""
    m = g.shape[0]
    return (g.reshape(m, -1) @ cols.T).reshape(f_shape)


def conv_stack_grad_input(g, f, widths):
    """Gradient w.r.t. the (N, *sp) input stack that was zero-padded by
    widths[d] before the forward correlation: full correlation of the output
    gradient, padded by k - 1 - widths[d], with the spatially flipped
    filters."""
    d = g.ndim - 1
    k_spatial = f.shape[2:]
    gp = pad_stack(g, [e - 1 - w for e, w in zip(k_spatial, widths)])
    cols, in_sp = stack_cols(gp, k_spatial)
    ff = np.flip(f, axis=tuple(range(2, d + 2)))
    # reorder to (N, M, *k) so rows of the matrix match cols' (M, *k) order
    fmat = np.ascontiguousarray(ff.transpose((1, 0) + tuple(range(2, d + 2))))
    n = f.shape[1]
    return (fmat.reshape(n, -1) @ cols).reshape((n,) + tuple(in_sp))


def pad_stack(x, widths):
    """Zero-pad the spatial axes of a stack by widths[d] on both sides; x
    itself when every width is 0."""
    if not any(widths):
        return x
    return np.pad(x, [(0, 0)] + [(w, w) for w in widths])


# ---------------------------------------------------------------------------
# pooling / resampling on stacks
# ---------------------------------------------------------------------------

def max_pool_stack(x, window):
    """Non-overlapping max pooling over the spatial axes of (C, *sp).

    Returns (pooled, sources) where sources holds, per output element, the
    flat index into x of the selected maximum (first occurrence on ties).
    """
    spatial = x.shape[1:]
    if len(window) != len(spatial):
        raise ShapeError(
            f"pool window has {len(window)} extents for a "
            f"{len(spatial)}-dimensional input"
        )
    for d, (s, w) in enumerate(zip(spatial, window)):
        if w < 1 or s % w != 0:
            raise ShapeError(
                f"input extent {s} not divisible by pool window {w} "
                f"in dimension {d}"
            )
    out_sp = tuple(s // w for s, w in zip(spatial, window))
    blocked = (x.shape[0],) + tuple(
        t for s, w in zip(out_sp, window) for t in (s, w)
    )
    ndim = len(spatial)
    outer = (0,) + tuple(1 + 2 * i for i in range(ndim))
    inner = tuple(2 + 2 * i for i in range(ndim))
    tiles = x.reshape(blocked).transpose(outer + inner)
    tiles = tiles.reshape((x.shape[0],) + out_sp + (-1,))
    arg = tiles.argmax(axis=-1)
    pooled = np.take_along_axis(tiles, arg[..., None], axis=-1)[..., 0]

    flat = np.arange(x.size, dtype=np.int64).reshape(x.shape)
    flat = flat.reshape(blocked).transpose(outer + inner)
    flat = flat.reshape((x.shape[0],) + out_sp + (-1,))
    sources = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return pooled, sources


def max_pool_scatter(g, sources, in_shape):
    """Route pooled gradients back to their argmax positions.

    Windows never overlap, so source indices are unique and plain fancy
    assignment suffices (no unbuffered add needed).
    """
    gx = np.zeros(int(np.prod(in_shape)))
    gx[sources.ravel()] = g.ravel()
    return gx.reshape(in_shape)


def upsample_stack(x, factor):
    """Repeat each element factor times along every spatial axis of (C, *sp)."""
    if factor < 1:
        raise ConfigError(f"upsample factor must be >= 1, got {factor}")
    out = x
    for ax in range(1, x.ndim):
        out = np.repeat(out, factor, axis=ax)
    return out


def upsample_stack_vjp(g, factor):
    """Sum gradients over each factor^D block."""
    in_sp = tuple(s // factor for s in g.shape[1:])
    blocked = (g.shape[0],) + tuple(t for s in in_sp for t in (s, factor))
    gb = g.reshape(blocked)
    return gb.sum(axis=tuple(2 + 2 * i for i in range(len(in_sp))))


# ---------------------------------------------------------------------------
# elementwise / reductions
# ---------------------------------------------------------------------------

def require_same_shape(a, b, what="operands"):
    if a.shape != b.shape:
        raise ShapeError(f"{what} have mismatched shapes {a.shape} vs {b.shape}")


def relu(x):
    return np.maximum(x, 0.0)


def sigmoid(x):
    # split by sign so exp never overflows
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
