import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtershare.tensor as T
from filtershare import autodiff as ad
from filtershare import kernels as K
from filtershare import sharedconv as sc
from filtershare.errors import (ConfigError, DataCorruptionError, FormatError,
                                ShapeError)
from filtershare.tensor import Shape, Tensor


class TestShapeAndTensor:
    def test_shape_rejects_bad_extents(self):
        with pytest.raises(ShapeError):
            Shape(())
        with pytest.raises(ShapeError, match="dimension 1"):
            Shape((3, 0))

    def test_element_count(self):
        assert Shape((2, 3, 4)).element_count == 24

    def test_data_is_flat_row_major(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.array.flags.c_contiguous
        assert t.array.ravel(order="K").tolist() == [1, 2, 3, 4]
        assert t.shape == (2, 2)

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, np.nan])
        with pytest.raises(ShapeError):
            Tensor([np.inf])

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.array[0] = 5.0

    def test_does_not_freeze_caller_array(self):
        arr = np.ones(3)
        Tensor(arr)
        arr[0] = 2.0  # must still be writable


def conv1(x, k):
    """ad.conv_stack (no bias, no padding) on one input map and one filter
    (N = M = 1)."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    out = ad.conv_stack(Tensor(x[None]), Tensor(k[None, None]), Tensor([0.0]),
                        (0,) * x.ndim)
    return out.array[0]


_PAGE_REUSE_SCRIPT = """
import json, resource
import numpy as np
from filtershare import kernels as K
x = np.random.default_rng(0).normal(size=(72, 40, 40, 40))
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cols, _ = K.stack_cols(x, (3, 3, 3))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    del cols
print(json.dumps(faults))
"""


class TestConvValid:
    def test_1d_hand_sum(self):
        assert conv1([1, 2, 3], [1, 1]).tolist() == [3, 5]

    def test_2d_identity_kernel(self):
        out = conv1([[1, 2], [3, 4]], [[1]])
        assert out.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_3d_all_ones_counts_summands(self):
        out = conv1(np.ones((3, 3, 3)), np.ones((2, 2, 2)))
        assert out.shape == (2, 2, 2)
        assert np.all(out == 8.0)

    def test_kernel_too_large_names_dimension(self):
        with pytest.raises(ShapeError, match="dimension 1"):
            conv1(np.ones((4, 2)), np.ones((2, 3)))

    def test_rank_mismatch(self):
        with pytest.raises(ShapeError):
            conv1(np.ones((4, 4)), np.ones(2))

    def test_linearity(self, rng):
        x = rng.normal(size=(6, 7))
        y = rng.normal(size=(6, 7))
        k = rng.normal(size=(3, 2))
        a, b = 1.7, -0.4
        lhs = conv1(a * x + b * y, k)
        rhs = a * conv1(x, k) + b * conv1(y, k)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_one_hot_kernel_is_shifted_slice(self, rng):
        x = rng.normal(size=(5, 6))
        k = np.zeros((2, 3))
        k[1, 2] = 1.0
        assert np.array_equal(conv1(x, k), x[1:5, 2:6])

    def test_freed_cols_pages_are_reused(self):
        """A freed 100 MB im2col matrix stays mapped, so the next one of the
        same size faults in (almost) no fresh pages. (The matrix is kept
        above glibc's 32 MiB ceiling for its dynamic mmap threshold, below
        which glibc's defaults would already reuse the pages.) The calls run
        in a fresh interpreter: in this process, heap that earlier tests
        freed would let call 1 reuse pages too, leaving no cold baseline."""
        src = str(Path(K.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _PAGE_REUSE_SCRIPT],
                             env=env, capture_output=True, text=True,
                             check=True)
        faults = json.loads(run.stdout)
        assert faults[1] <= faults[0] / 10, faults
        assert faults[2] <= faults[0] / 10, faults


def offset_sum_conv(x, f, b, widths, g):
    """Plain-NumPy reference for ad.conv_stack: the output of x zero-padded
    by widths, as a sum over kernel offsets u of f[:, :, u] times the
    u-shifted slice, and the filter and input gradients under seed g."""
    xp = np.pad(x, [(0, 0)] + [(w, w) for w in widths])
    osp = tuple(s - e + 1 for s, e in zip(xp.shape[1:], f.shape[2:]))
    out = np.zeros((f.shape[0],) + osp)
    gf = np.zeros(f.shape)
    gxp = np.zeros(xp.shape)
    axes = tuple(range(1, len(osp) + 1))
    for u in np.ndindex(*f.shape[2:]):
        window = (slice(None),) + tuple(slice(o, o + s)
                                        for o, s in zip(u, osp))
        fu = (slice(None), slice(None)) + u
        out += np.tensordot(f[fu], xp[window], axes=1)
        gf[fu] = np.tensordot(g, xp[window], axes=(axes, axes))
        gxp[window] += np.tensordot(f[fu], g, axes=([0], [0]))
    crop = (slice(None),) + tuple(slice(w, w + s)
                                  for w, s in zip(widths, x.shape[1:]))
    return out + b[(slice(None),) + (None,) * len(osp)], gf, gxp[crop]


class TestConvWindows:
    """The partial-im2col layout (`stack_cols`' column windows) against the
    offset-sum reference, through ad.conv_stack's forward and backward. In
    3D the windows also span the grid rows that fall in the padding, which
    the last two cases stress: every row but one per plane dropped, and
    none."""

    @pytest.mark.parametrize("x_shape,k,widths", [
        ((2, 7), (3,), (0,)),                  # 1D VALID
        ((2, 7), (3,), (1,)),                  # 1D SAME
        ((2, 5), (5,), (0,)),                  # first extent = input extent
        ((2, 5, 6), (1, 3), (0, 1)),           # first extent 1, SAME
        ((2, 4, 6), (4, 3), (0, 0)),           # first extent = input extent
        ((3, 5, 6), (3, 3), (1, 1)),           # 2D SAME
        ((2, 5, 4, 6), (3, 2, 3), (0, 0, 0)),  # non-cubic VALID
        ((2, 5, 4, 6), (3, 2, 3), (1, 0, 1)),  # non-cubic, odd axes padded
        ((1, 3, 4, 5), (3, 3, 3), (0, 0, 0)),  # first extent = input extent
        ((2, 4, 5, 3), (3, 3, 3), (1, 1, 1)),  # 3D SAME
        ((2, 4, 5, 3), (1, 3, 3), (0, 1, 1)),  # first extent 1
        ((2, 4, 3, 5), (3, 3, 3), (1, 0, 1)),  # second extent = input extent
        ((2, 4, 3, 5), (3, 1, 3), (1, 0, 1)),  # second extent 1
    ])
    def test_matches_offset_sum(self, rng, x_shape, k, widths):
        m = 3
        x = rng.normal(size=x_shape)
        f = rng.normal(size=(m, x_shape[0]) + k)
        b = rng.normal(size=m)
        g = rng.normal(size=(m,) + tuple(
            s + 2 * w - e + 1 for s, w, e in zip(x_shape[1:], widths, k)))
        out_ref, gf_ref, gx_ref = offset_sum_conv(x, f, b, widths, g)

        xv, fv, bv = (ad.Parameter(n, a) for n, a in (("x", x), ("f", f),
                                                      ("b", b)))
        tape = ad.Tape()
        with ad.recording(tape):
            out = ad.conv_stack(xv, fv, bv, widths)
        ad.backward(tape, Tensor(g))
        tol = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.array, out_ref, **tol)
        np.testing.assert_allclose(fv.grad, gf_ref, **tol)
        np.testing.assert_allclose(xv.grad, gx_ref, **tol)
        np.testing.assert_allclose(bv.grad, g.sum(axis=tuple(
            range(1, g.ndim))), **tol)

        xp = np.pad(x, [(0, 0)] + [(w, w) for w in widths])
        cols, out_sp = K.stack_cols(xp, k)
        assert out_sp == out_ref.shape[1:]
        w = max(1, len(k) - 1)  # kernel axes taken as column windows
        assert cols.shape == (x_shape[0] * int(np.prod(k[w:])),
                              int(np.prod(xp.shape[1:1 + w]))
                              * int(np.prod(out_sp[w:])))
        assert cols.flags.c_contiguous


def same_forward(x, f, b=None):
    """sharedconv.layer_forward with SAME padding on plain arrays."""
    x, f = np.asarray(x, dtype=float), np.asarray(f, dtype=float)
    spec = sc.ConvLayerSpec(f.shape[1], f.shape[0], f.shape[2:],
                            padding=sc.SAME)
    b = np.zeros(f.shape[0]) if b is None else b
    return sc.layer_forward(spec, Tensor(f), Tensor(b), Tensor(x)).array


def same_reference(x, f, b):
    """out[i] = b[i] + sum over j and kernel offsets u of f[i, j, u] times
    the u-shifted slice of the zero-padded x[j]."""
    half = [(e - 1) // 2 for e in f.shape[2:]]
    xp = np.pad(x, [(0, 0)] + [(h, h) for h in half])
    sp = x.shape[1:]
    out = np.zeros((f.shape[0],) + sp)
    for u in np.ndindex(*f.shape[2:]):
        shifted = xp[(slice(None),) + tuple(slice(o, o + s)
                                            for o, s in zip(u, sp))]
        out += np.tensordot(f[(slice(None), slice(None)) + u], shifted, axes=1)
    return out + b[(slice(None),) + (None,) * len(sp)]


def same_input_grad(x, f, b, g):
    """Input gradient of sharedconv.layer_forward (SAME) under output seed g."""
    spec = sc.ConvLayerSpec(f.shape[1], f.shape[0], f.shape[2:],
                            padding=sc.SAME)
    xp = ad.Parameter("x", x)
    tape = ad.Tape()
    with ad.recording(tape):
        sc.layer_forward(spec, Tensor(f), Tensor(b), xp)
    ad.backward(tape, Tensor(g))
    return xp.grad


def same_reference_grad(x, f, g):
    """Gradient of sum(g * out) w.r.t. the explicitly zero-padded x (each
    kernel offset u scatters f[:, :, u]^T g into its shifted slice), with
    the pad cropped off."""
    half = [(e - 1) // 2 for e in f.shape[2:]]
    sp = x.shape[1:]
    gxp = np.zeros((x.shape[0],) + tuple(s + 2 * h for s, h in zip(sp, half)))
    for u in np.ndindex(*f.shape[2:]):
        window = (slice(None),) + tuple(slice(o, o + s) for o, s in zip(u, sp))
        gxp[window] += np.tensordot(f[(slice(None), slice(None)) + u], g,
                                    axes=([0], [0]))
    return gxp[(slice(None),) + tuple(slice(h, h + s)
                                      for h, s in zip(half, sp))]


class TestConvSame:
    def test_centered_identity(self):
        out = same_forward([[1, 2, 3]], [[[0, 1, 0]]])
        assert out.tolist() == [[1.0, 2.0, 3.0]]

    def test_zero_padding_edge(self):
        assert same_forward([[1, 1]], [[[1, 1, 1]]]).tolist() == [[2.0, 2.0]]

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            same_forward([[1, 2, 3]], [[[1, 1]]])

    def test_matches_explicit_zero_pad(self, rng):
        for _ in range(10):
            x = rng.normal(size=(2, 5, 5))
            f = rng.normal(size=(3, 2, 3, 3))
            b = rng.normal(size=3)
            np.testing.assert_allclose(same_forward(x, f, b),
                                       same_reference(x, f, b),
                                       rtol=1e-12, atol=1e-12)
            g = rng.normal(size=(3, 5, 5))
            np.testing.assert_allclose(same_input_grad(x, f, b, g),
                                       same_reference_grad(x, f, g),
                                       rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 1), st.integers(0, 2023))
    def test_odd_kernel_property(self, half, dims_extra, seed):
        gen = np.random.default_rng(seed)
        shape = (2,) + (6,) * (1 + dims_extra)
        kshape = (2, 2) + (2 * half + 1,) * (1 + dims_extra)
        x = gen.normal(size=shape)
        f = gen.normal(size=kshape)
        b = gen.normal(size=2)
        np.testing.assert_allclose(same_forward(x, f, b),
                                   same_reference(x, f, b),
                                   rtol=1e-12, atol=1e-12)
        g = gen.normal(size=(2,) + shape[1:])
        np.testing.assert_allclose(same_input_grad(x, f, b, g),
                                   same_reference_grad(x, f, g),
                                   rtol=1e-12, atol=1e-12)


def pool_with_grad(x, window, g):
    """ad.max_pool of x and the input gradient its backward routes from g."""
    xp = ad.Parameter("x", x)
    tape = ad.Tape()
    with ad.recording(tape):
        pooled = ad.max_pool(xp, window)
    ad.backward(tape, Tensor(g))
    return pooled.array, xp.grad


class TestMaxPool:
    def test_1d_values_and_argmax(self):
        pooled, grad = pool_with_grad([[1, 3, 2, 4]], 2, [[1.0, 1.0]])
        assert pooled.tolist() == [[3.0, 4.0]]
        assert np.flatnonzero(grad).tolist() == [1, 3]

    def test_constant_input(self):
        pooled = ad.max_pool(Tensor(np.full((1, 4, 4), 2.5)), 2).array
        assert np.all(pooled == 2.5)

    def test_matches_exhaustive_window_max(self, rng):
        x = rng.normal(size=(4, 4))
        pooled = ad.max_pool(Tensor(x[None]), 2).array[0]
        expected = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = x[2 * i:2 * i + 2, 2 * j:2 * j + 2].max()
        assert np.array_equal(pooled, expected)

    def test_indivisible_extent(self):
        with pytest.raises(ShapeError, match="dimension 0"):
            ad.max_pool(Tensor(np.ones((1, 5))), 2)

    def test_backward_scatter_routes_to_argmax_only(self, rng):
        x = rng.normal(size=(4, 6))
        g = rng.normal(size=(1, 2, 3))
        _, grad = pool_with_grad(x[None], 2, g)
        expected = np.zeros((4, 6))
        for i in range(2):
            for j in range(3):
                window = x[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                u, v = np.unravel_index(np.argmax(window), window.shape)
                expected[2 * i + u, 2 * j + v] = g[0, i, j]
        assert np.array_equal(grad[0], expected)


class TestElementwise:
    def test_relu(self):
        assert ad.relu(Tensor([-1, 0, 2])).array.tolist() == [0.0, 0.0, 2.0]

    def test_upsample_nearest_block_repeats(self):
        skip = np.full((1, 4, 4), 9.0)
        out = ad.upsample_concat(Tensor([[[1, 2], [3, 4]]]), Tensor(skip), 2)
        expected = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        assert out.array[0].tolist() == expected
        assert np.array_equal(out.array[1:], skip)

    def test_add_mul_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor([1, 2]), Tensor([1, 2, 3]))
        with pytest.raises(ShapeError):
            ad.apply_mask(Tensor([[1]]), np.ones(1))

    def test_sum_scale(self):
        assert ad.sum_all(Tensor([[1, 2], [3, 4]])).value.item() == 10.0
        scaled = ad.apply_mask(Tensor([1, 2]), np.full(2, -2.0))
        assert scaled.array.tolist() == [-2.0, -4.0]

    def test_sigmoid_extremes_stay_finite(self):
        out = ad.sigmoid(Tensor([-1000.0, 0.0, 1000.0])).array
        assert np.all(np.isfinite(out))
        assert out[1] == 0.5


class TestDumpFormat:
    def test_round_trip(self, tmp_path, rng):
        t = Tensor(rng.normal(size=(3, 4, 5)))
        path = tmp_path / "t.bin"
        T.dump_tensor(t, path)
        back = T.load_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back.array, t.array)

    def test_layout_is_exactly_documented(self, tmp_path):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "t.bin"
        T.dump_tensor(t, path)
        raw = path.read_bytes()
        assert raw[:4] == (2).to_bytes(4, "little")
        assert raw[4:8] == (2).to_bytes(4, "little")
        assert raw[8:12] == (2).to_bytes(4, "little")
        assert np.frombuffer(raw, "<f8", offset=12).tolist() == [1, 2, 3, 4]

    def test_truncated_file_rejected(self, tmp_path):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        path = tmp_path / "t.bin"
        T.dump_tensor(t, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            T.load_tensor(path)

    def test_non_finite_value_rejected_with_path(self, tmp_path):
        path = tmp_path / "t.bin"
        T.dump_tensor(Tensor([1.0, 2.0, 3.0]), path)
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataCorruptionError, match="t.bin"):
            T.load_tensor(path)
