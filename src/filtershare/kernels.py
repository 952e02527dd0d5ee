"""Raw float64 array kernels under the autodiff ops.

Arrays are "stacks" with a leading channel axis (channels, *spatial). The one
convolution is a channel-stacked cross-correlation (no kernel flip; learned
filters absorb it), computed as a partial im2col (MEC: Cho & Brand, ICML
2017). `stack_cols` unrolls only the last kernel axis (k[2] in 3D, k[1] in
2D, none in 1D), so its matrix holds k[-1] copies of the input rather than
prod(k). Each offset on the other kernel axes is a column window of that
matrix: in 3D the columns form the grid (sp[0], sp[1], out_sp[2]) and offset
(u, a) starts u*sp[1] + a grid rows in, so the forward pass sums k[0]*k[1]
GEMMs `F_ua @ window_ua` and keeps only the out_sp[1] valid rows of each
plane; the filter gradient is k[0]*k[1] GEMMs against the same windows. In
2D and 1D the windows hold exactly the output.
The caller (`autodiff.conv_stack`, the one place that checks a conv call's
filter rank and channel count) zero-pads the input with `pad_stack`, builds
its matrix with `stack_cols` and hands that to `conv_stack`.
`conv_stack_grad_input` takes the same widths and returns the gradient of the
unpadded input, by the same windowed sum over the padded output gradient with
flipped, transposed filters. Every function is pure and deterministic.

On import this module sets a process-wide glibc allocator policy through
`mallopt`: blocks below 1 GiB come from the heap rather than their own `mmap`
(`M_MMAP_THRESHOLD`), and freed memory goes back to the kernel only when more
than 2 GiB of it sits at the top of the heap (`M_TRIM_THRESHOLD`). A 40^3
U-Net training sample builds about 147 MiB of im2col matrices, up to 39 MiB
each. With glibc's defaults a buffer above its mmap threshold (which grows to
at most 32 MiB) is a fresh `mmap` whose pages the kernel faults in and zeroes
again; with the policy, later buffers reuse the pages of freed ones.
The cost is that the resident set stays at the run's high-water mark until
exit. Where libc has no `mallopt` (not glibc), the call is skipped.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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

def _windowed(d):
    """How many leading kernel axes become column windows for d spatial
    axes: all but the last, and the one axis in 1D."""
    return max(1, d - 1)


def stack_cols(x, k_spatial):
    """Partial im2col of a (N, *sp) stack: unroll the last kernel axis only
    (none in 1D).

    Returns (cols, out_spatial). With w = `_windowed(d)`, cols is a
    contiguous (N*prod(k[w:]), prod(sp[:w])*prod(out_sp[w:])) matrix; its
    rows follow (channel, *k[w:]) row-major order and its columns the grid
    (*sp[:w], *out_sp[w:]). Each kernel offset on the first w axes is a
    column window of that grid (`_grid`), a strided view that BLAS takes
    without a copy.
    """
    require_kernel_fits(x.shape[1:], k_spatial)
    d = len(k_spatial)
    w = _windowed(d)
    win = sliding_window_view(x, k_spatial[w:], axis=tuple(range(1 + w, 1 + d)))
    out_sp = tuple(s - e + 1 for s, e in zip(x.shape[1:], k_spatial))
    perm = (0,) + tuple(range(1 + d, 1 + 2 * d - w)) + tuple(range(1, 1 + d))
    cols = win.transpose(perm).reshape(
        x.shape[0] * math.prod(k_spatial[w:]), -1)
    return np.ascontiguousarray(cols), out_sp


def _grid(k_spatial, out_spatial):
    """Layout of `stack_cols`' columns for a kernel and output extent.

    Returns (starts, length, strides): the first column of the window of
    each kernel offset on the windowed axes (row-major offset order), the
    length all windows share, and the column stride of each output axis.
    Output point o sits at column sum(o * strides) of every window. When
    length == prod(out_spatial) (1D, 2D) the windows hold exactly the
    output; in 3D they also hold the sp[1] - out_sp[1] grid rows per plane
    that fall in the padding."""
    w = _windowed(len(k_spatial))
    grid = tuple(o + e - 1 for o, e in zip(out_spatial[:w], k_spatial[:w]))
    grid += tuple(out_spatial[w:])
    strides = tuple(math.prod(grid[i + 1:]) for i in range(len(grid)))
    starts = [0]
    for e, stride in zip(k_spatial[:w], strides):
        starts = [s + u * stride for s in starts for u in range(e)]
    return starts, math.prod(grid) - starts[-1], strides


def _on_grid(a, out_spatial, strides):
    """The (M, *out_spatial) points of an (M, length) window-shaped array,
    as a strided view."""
    return as_strided(a, (a.shape[0],) + tuple(out_spatial),
                      (a.strides[0],) + tuple(s * a.itemsize for s in strides))


def _window(cols, start, length):
    return cols[:, start:start + length]


def _window_sum(f, cols, out_spatial):
    """sum_u F_u @ window_u of `stack_cols`' matrix, where F_u is the
    (M, N*prod(k[w:])) slice of the (M, N, *k) filters at offset u on the
    windowed kernel axes -> (M, *out_spatial)."""
    w = _windowed(f.ndim - 2)
    starts, length, strides = _grid(f.shape[2:], out_spatial)
    fu = np.ascontiguousarray(
        np.moveaxis(f, tuple(range(2, 2 + w)), tuple(range(w)))).reshape(
        len(starts), f.shape[0], -1)
    out = fu[0] @ _window(cols, starts[0], length)
    for u in range(1, len(fu)):
        out += fu[u] @ _window(cols, starts[u], length)
    if length == math.prod(out_spatial):
        return out.reshape((f.shape[0],) + tuple(out_spatial))
    return np.ascontiguousarray(_on_grid(out, out_spatial, strides))


def conv_stack(f, cols, out_spatial):
    """Forward correlation of the (M, N, *k) filters with the `stack_cols`
    matrix of the (padded) input -> (M, *out_spatial). The caller checks
    that the filters' rank and input channels match the input."""
    return _window_sum(f, cols, out_spatial)


def conv_stack_grad_filters(g, cols, f_shape):
    """Gradient w.r.t. the (M, N, *k) filter stack given the forward cols:
    one GEMM per kernel offset on the windowed axes, with g placed on the
    windows' grid (zeros on the grid rows that hold no output)."""
    m, w = f_shape[0], _windowed(len(f_shape) - 2)
    out_sp = g.shape[1:]
    starts, length, strides = _grid(f_shape[2:], out_sp)
    if length == math.prod(out_sp):
        gm = g.reshape(m, -1)
    else:
        gm = np.zeros((m, length))
        _on_grid(gm, out_sp, strides)[...] = g
    gf = np.empty((len(starts), m, cols.shape[0]))
    for u, start in enumerate(starts):
        np.matmul(gm, _window(cols, start, length).T, out=gf[u])
    gf = gf.reshape(tuple(f_shape[2:2 + w]) + (m, f_shape[1])
                    + tuple(f_shape[2 + w:]))
    return np.ascontiguousarray(
        np.moveaxis(gf, tuple(range(w)), tuple(range(2, 2 + w))))


def conv_stack_grad_input(g, f, widths):
    """Gradient w.r.t. the (N, *sp) input stack that was zero-padded by
    widths[d] before the forward correlation: full correlation of the output
    gradient, padded by k - 1 - widths[d], with the spatially flipped
    filters whose in/out axes are swapped."""
    d = g.ndim - 1
    k_spatial = f.shape[2:]
    gp = pad_stack(g, [e - 1 - w for e, w in zip(k_spatial, widths)])
    cols, in_sp = stack_cols(gp, k_spatial)
    ff = np.flip(f, axis=tuple(range(2, d + 2))).swapaxes(0, 1)
    return _window_sum(ff, cols, in_sp)


def pad_stack(x, widths):
    """Zero-pad the spatial axes of a stack by widths[d] on both sides; x
    itself when every width is 0."""
    if not any(widths):
        return x
    return np.pad(x, [(0, 0)] + [(w, w) for w in widths])


# ---------------------------------------------------------------------------
# pooling / resampling on stacks
# ---------------------------------------------------------------------------

def _pool_slices(window):
    """Index tuples of the prod(window) strided views x[:, o0::w0, o1::w1,
    ...] of a stack, one per offset o inside a pool window, in row-major
    offset order."""
    for o in np.ndindex(*window):
        yield (slice(None),) + tuple(
            slice(oi, None, w) for oi, w in zip(o, window))


def max_pool_stack(x, window):
    """Non-overlapping max pooling over the spatial axes of (C, *sp)."""
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
    slices = _pool_slices(window)
    pooled = x[next(slices)].copy()
    for sl in slices:
        np.maximum(pooled, x[sl], out=pooled)
    return pooled


def max_pool_scatter(g, x, pooled, window):
    """Route pooled gradients back to the first maximum of each window (in
    row-major offset order, as `max_pool_stack` takes the views)."""
    gx = np.empty(x.shape)
    unclaimed = np.ones(pooled.shape, dtype=bool)
    for sl in _pool_slices(window):
        hit = unclaimed & (x[sl] == pooled)
        gx[sl] = np.where(hit, g, 0.0)
        unclaimed &= ~hit
    return gx


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
