"""Raw float64 array kernels under the autodiff ops.

Arrays are "stacks" with a leading channel axis (channels, *spatial). The one
convolution is a channel-stacked cross-correlation (no kernel flip; learned
filters absorb it), computed as a partial im2col (MEC: Cho & Brand, ICML
2017). `stack_cols` unrolls only the kernel axes after the first (k[1]*k[2] in
3D, k[1] in 2D, none in 1D), so its matrix holds prod(k[1:]) copies of the
input rather than prod(k). Each offset u along the first kernel axis is a
contiguous column window of that matrix, and the forward pass sums k[0] GEMMs
`F_u @ window_u`; the filter gradient is k[0] GEMMs against the same windows.
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
U-Net training sample builds about 0.4 GB of im2col matrices, up to 111 MB
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

def stack_cols(x, k_spatial):
    """Partial im2col of a (N, *sp) stack: unroll the kernel axes after the
    first only.

    Returns (cols, out_spatial). cols is a contiguous (N*prod(k[1:]),
    sp[0]*A) matrix with A = prod(out_sp[1:]); its rows follow (channel,
    *k[1:]) row-major order and its columns (sp[0], *out_sp[1:]). Kernel
    offset u on the first axis is the column window [u*A, u*A + out_sp[0]*A)
    (`_window`), a strided view that BLAS takes without a copy.
    """
    require_kernel_fits(x.shape[1:], k_spatial)
    d = len(k_spatial)
    win = sliding_window_view(x, k_spatial[1:], axis=tuple(range(2, 1 + d)))
    out_sp = (x.shape[1] - k_spatial[0] + 1,) + win.shape[2:1 + d]
    perm = (0,) + tuple(range(1 + d, 2 * d)) + tuple(range(1, 1 + d))
    cols = win.transpose(perm).reshape(
        x.shape[0] * int(np.prod(k_spatial[1:])), -1)
    return np.ascontiguousarray(cols), out_sp


def _window(cols, u, out_spatial):
    a = int(np.prod(out_spatial[1:]))
    return cols[:, u * a:(u + out_spatial[0]) * a]


def _window_sum(f, cols, out_spatial):
    """sum_u F_u @ window_u of `stack_cols`' matrix, where F_u is the
    (M, N*prod(k[1:])) slice of the (M, N, *k) filters at first-axis kernel
    offset u -> (M, *out_spatial)."""
    fu = np.ascontiguousarray(np.moveaxis(f, 2, 0)).reshape(
        f.shape[2], f.shape[0], -1)
    out = fu[0] @ _window(cols, 0, out_spatial)
    for u in range(1, len(fu)):
        out += fu[u] @ _window(cols, u, out_spatial)
    return out.reshape((f.shape[0],) + tuple(out_spatial))


def conv_stack(f, cols, out_spatial):
    """Forward correlation of the (M, N, *k) filters with the `stack_cols`
    matrix of the (padded) input -> (M, *out_spatial). The caller checks
    that the filters' rank and input channels match the input."""
    return _window_sum(f, cols, out_spatial)


def conv_stack_grad_filters(g, cols, f_shape):
    """Gradient w.r.t. the (M, N, *k) filter stack given the forward cols:
    one GEMM per first-axis kernel offset."""
    m, k0 = f_shape[0], f_shape[2]
    gm = g.reshape(m, -1)
    out_sp = g.shape[1:]
    gf = np.empty((k0, m, cols.shape[0]))
    for u in range(k0):
        np.matmul(gm, _window(cols, u, out_sp).T, out=gf[u])
    gf = gf.reshape((k0, m, f_shape[1]) + tuple(f_shape[3:]))
    return np.ascontiguousarray(np.moveaxis(gf, 0, 2))


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
