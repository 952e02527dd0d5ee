"""Dense float64 tensors and their binary dump format.

All values are 64-bit floats so gradient checks can be tight. Tensors are
immutable once constructed and safe to share across threads. The numeric
operations on them are the differentiable ops in ``autodiff``.
"""

from __future__ import annotations

import struct
from typing import Iterable

import numpy as np

from .errors import DataCorruptionError, FormatError, ShapeError


class Shape(tuple):
    """Ordered positive extents of a tensor; at least one dimension."""

    def __new__(cls, dims: Iterable[int]):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ShapeError("a shape needs at least one dimension")
        for i, d in enumerate(dims):
            if d < 1:
                raise ShapeError(f"extent must be >= 1, got {d} in dimension {i}")
        return super().__new__(cls, dims)

    @property
    def element_count(self) -> int:
        return int(np.prod(self, dtype=np.int64))


class Tensor:
    """Immutable dense array of float64 values in row-major order."""

    __slots__ = ("array",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim == 0:
            arr = arr.reshape(1)
        Shape(arr.shape)
        if not np.all(np.isfinite(arr)):
            raise ShapeError("tensor values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Adopt an array we own (already float64, C-contiguous). No checks."""
        t = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(t, "array", arr)
        return t

    @property
    def shape(self) -> Shape:
        return Shape(self.array.shape)

    @property
    def size(self) -> int:
        return self.array.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got {self.shape}")
        return float(self.array.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)})"


# ---------------------------------------------------------------------------
# binary dump format: u32 dim count, u32 extents, then f64 row-major data,
# all little-endian. Used by checkpoints.
# ---------------------------------------------------------------------------

_U32 = np.dtype("<u4")
_F64 = np.dtype("<f8")


def dump_tensor(t: Tensor, path) -> None:
    arr = t.array
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(np.asarray(arr.shape, dtype=_U32).tobytes())
        fh.write(np.ascontiguousarray(arr, dtype=_F64).tobytes())


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated tensor dump (no header)")
    (ndim,) = struct.unpack_from("<I", raw, 0)
    header_end = 4 + 4 * ndim
    if ndim < 1 or len(raw) < header_end:
        raise FormatError(f"{path}: truncated tensor dump header")
    dims = np.frombuffer(raw, dtype=_U32, count=ndim, offset=4)
    shape = Shape(int(d) for d in dims)
    expected = header_end + 8 * shape.element_count
    if len(raw) != expected:
        raise FormatError(
            f"{path}: tensor dump holds {len(raw)} bytes, expected {expected} "
            f"for shape {tuple(shape)}"
        )
    data = np.frombuffer(raw, dtype=_F64, offset=header_end).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        raise DataCorruptionError(
            f"{path}: {bad.size} non-finite value(s), first at flat index "
            f"{int(bad[0])}"
        )
    return Tensor._wrap(np.ascontiguousarray(data.reshape(shape)))
