"""Dataset acquisition and generation.

Three sources: the CIFAR-10 binary batch format (user-supplied files; each
record is 1 label byte + 3072 pixel bytes in RGB-plane row-major order), a
seeded synthetic 3D nodule generator (40^3 volumes with one bright rotated
ellipsoid; the mask is the exact ellipsoid interior), and a seeded "toy"
image classification task (3x32x32 class templates + noise) shaped like
CIFAR so the same classifier architecture applies.

Subsets are class-stratified and nested: subset(f1, seed) is a prefix of
subset(f2, seed) whenever f1 < f2, via a divisor-method allocation over
per-class seeded shuffles.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataCorruptionError, FormatError
from .tensor import Tensor

RECORD_BYTES = 3073
BATCH_RECORDS = 10_000
BATCH_BYTES = RECORD_BYTES * BATCH_RECORDS  # 30,730,000
CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"

_TAG_CLASS = 11
_TAG_SAMPLE = 12
_TAG_TEMPLATE = 13
_TAG_SPLIT = 14


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """The package's one seeded stream helper: PCG64 over the SeedSequence
    (seed, spawn_key=key). Each caller owns its leading tag (traineval 1-2,
    nets 3, data 11-14), so the streams never collide."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# labeled images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledImage:
    """A 3x32x32 image with values in [0, 1] and a class id in 0..9."""

    image: Tensor
    label: int

    def __post_init__(self):
        if not 0 <= self.label <= 9:
            raise DataCorruptionError(f"label {self.label} out of range 0..9")
        arr = self.image.array
        if arr.shape != (3, 32, 32):
            raise FormatError(f"image must be 3x32x32, got {arr.shape}")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise FormatError("pixel values must lie in [0, 1]")


class _RecordSet(Sequence):
    """Lazy view over raw CIFAR-style records (uint8 in memory)."""

    def __init__(self, labels: np.ndarray, pixels: np.ndarray):
        self._labels = labels
        self._pixels = pixels  # (n, 3072) uint8

    def __len__(self):
        return len(self._labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        image = self._pixels[i].reshape(3, 32, 32).astype(np.float64) / 255.0
        return LabeledImage(Tensor._wrap(image), int(self._labels[i]))

    @property
    def labels(self) -> np.ndarray:
        return self._labels


def read_batch_records(path) -> _RecordSet:
    """Parse one binary batch file of any whole number of records."""
    path = Path(path)
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % RECORD_BYTES != 0:
        raise FormatError(
            f"{path}: {raw.size} bytes is not a whole number of "
            f"{RECORD_BYTES}-byte records"
        )
    records = raw.reshape(-1, RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) > 9:
        bad = int(np.argmax(labels > 9))
        raise DataCorruptionError(
            f"{path}: record {bad} carries label {labels[bad]} > 9"
        )
    return _RecordSet(labels, records[:, 1:])


def write_batch_records(path, samples) -> None:
    """Write records in the binary batch format (test fixtures, round trips)."""
    rows = []
    for sample in samples:
        arr = np.round(sample.image.array * 255.0).astype(np.uint8).reshape(-1)
        rows.append(np.concatenate([[np.uint8(sample.label)], arr]))
    np.asarray(rows, dtype=np.uint8).tofile(path)


class _ConcatSet(Sequence):
    def __init__(self, parts):
        self._parts = parts
        self._offsets = np.cumsum([0] + [len(p) for p in parts])

    def __len__(self):
        return int(self._offsets[-1])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        part = int(np.searchsorted(self._offsets, i, side="right")) - 1
        return self._parts[part][i - int(self._offsets[part])]

    @property
    def labels(self) -> np.ndarray:
        return np.concatenate([p.labels for p in self._parts])


def load_cifar10(root) -> tuple[Sequence, Sequence]:
    """Load the six standard binary batches under `root`.

    Returns (train set of 50000, test set of 10000); records materialize to
    float tensors lazily on access."""
    root = Path(root)
    parts = []
    for name in CIFAR_TRAIN_FILES + (CIFAR_TEST_FILE,):
        path = root / name
        if not path.exists():
            raise FormatError(f"{path}: missing CIFAR-10 batch file")
        size = path.stat().st_size
        if size != BATCH_BYTES:
            raise FormatError(
                f"{path}: batch file holds {size} bytes, expected {BATCH_BYTES}"
            )
        parts.append(read_batch_records(path))
    return _ConcatSet(parts[:-1]), parts[-1]


# ---------------------------------------------------------------------------
# stratified nested subsets and seeded splits
# ---------------------------------------------------------------------------

class SubsetView(Sequence):
    """Index-based view over a base dataset."""

    def __init__(self, base, indices):
        self._base = base
        self.indices = np.asarray(indices, dtype=np.int64)

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._base[int(self.indices[i])]


def _labels_of(dataset) -> np.ndarray:
    labels = getattr(dataset, "labels", None)
    if labels is not None:
        return np.asarray(labels)
    return np.asarray([item.label for item in dataset], dtype=np.int64)


def subset(dataset, fraction: float, seed: int) -> SubsetView:
    """Seeded class-stratified sample of ceil(fraction * n) items.

    Nested: at a fixed seed, smaller fractions select a prefix of larger
    ones. Class counts stay within one item of exact proportionality via a
    Sainte-Lague divisor allocation (divisor methods are house-monotone,
    which is what makes the nesting sound)."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"subset fraction must lie in (0, 1], got {fraction}")
    labels = _labels_of(dataset)
    n = len(labels)
    m = math.ceil(fraction * n)
    classes = np.unique(labels)
    shuffled = {}
    for cls in classes:
        idx = np.nonzero(labels == cls)[0]
        order = child_rng(seed, _TAG_CLASS, int(cls)).permutation(len(idx))
        shuffled[int(cls)] = idx[order]
    # allocation sequence: next item always to the class maximizing n_c/(2a+1)
    heap = [(-len(shuffled[int(c)]), int(c), 0) for c in classes]
    heapq.heapify(heap)
    chosen = np.empty(m, dtype=np.int64)
    for slot in range(m):
        neg_priority, cls, taken = heapq.heappop(heap)
        chosen[slot] = shuffled[cls][taken]
        taken += 1
        if taken < len(shuffled[cls]):
            heapq.heappush(heap,
                           (-len(shuffled[cls]) / (2 * taken + 1), cls, taken))
    return SubsetView(dataset, chosen)


def split(dataset, fractions=(0.5, 0.25, 0.25), seed: int = 0):
    """Seeded disjoint partition into len(fractions) views.

    Fractions must sum to 1; counts are floored and the remainder goes to the
    largest fractional parts (ties by position)."""
    fractions = tuple(float(f) for f in fractions)
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    n = len(dataset)
    raw = [f * n for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    rest = n - sum(counts)
    by_frac = sorted(range(len(fractions)), key=lambda i: (raw[i] - counts[i], -i),
                     reverse=True)
    for i in by_frac[:rest]:
        counts[i] += 1
    perm = child_rng(seed, _TAG_SPLIT).permutation(n)
    views = []
    at = 0
    for c in counts:
        views.append(SubsetView(dataset, perm[at:at + c]))
        at += c
    return tuple(views)


# ---------------------------------------------------------------------------
# synthetic 3D nodule volumes
# ---------------------------------------------------------------------------

VOLUME_EXTENT = 40
VOLUME_NOISE_SIGMA = 0.2


@dataclass(frozen=True)
class EllipsoidParams:
    center: tuple[float, float, float]
    semi_axes: tuple[float, float, float]
    rotation: tuple  # 3x3 row tuples
    contrast: float


@dataclass(frozen=True)
class VolumeSample:
    """A standardized 40^3 intensity volume with its exact binary mask."""

    volume: Tensor
    mask: Tensor
    params: EllipsoidParams


def ellipsoid_mask(params: EllipsoidParams) -> np.ndarray:
    """Voxels of the VOLUME_EXTENT^3 grid whose quadratic form (rotated,
    axis-scaled radius) is <= 1."""
    axis = np.arange(VOLUME_EXTENT, dtype=np.float64)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    rel = grid - np.asarray(params.center)
    rot = np.asarray(params.rotation)
    local = rel @ rot  # rotate into ellipsoid frame (columns are axes)
    q = ((local / np.asarray(params.semi_axes)) ** 2).sum(axis=-1)
    return (q <= 1.0).astype(np.float64)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _smooth_background(rng: np.random.Generator, extent: int) -> np.ndarray:
    """Sum of a few random low-frequency cosine modes."""
    coords = np.arange(extent, dtype=np.float64)
    xs = np.meshgrid(coords, coords, coords, indexing="ij")
    bg = np.zeros((extent,) * 3)
    for _ in range(4):
        freq = rng.uniform(0.01, 0.05, size=3)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.1, 0.3)
        bg += amp * np.cos(2.0 * np.pi * (freq[0] * xs[0] + freq[1] * xs[1]
                                          + freq[2] * xs[2]) + phase)
    return bg


def synth_nodule_dataset(count: int, seed: int) -> list[VolumeSample]:
    """Seeded volumes: smooth background + one bright rotated ellipsoid
    (semi-axes 3..8 voxels, fully inside the volume) + white noise, then
    standardized to zero mean / unit variance per volume."""
    if count < 1:
        raise ConfigError(f"dataset size must be >= 1, got {count}")
    samples = []
    for i in range(count):
        rng = child_rng(seed, _TAG_SAMPLE, i)
        semi_axes = rng.uniform(3.0, 8.0, size=3)
        margin = float(semi_axes.max()) + 1.0
        center = rng.uniform(margin, VOLUME_EXTENT - 1 - margin, size=3)
        rotation = _random_rotation(rng)
        contrast = rng.uniform(1.0, 1.5)
        params = EllipsoidParams(
            center=tuple(center), semi_axes=tuple(semi_axes),
            rotation=tuple(map(tuple, rotation)), contrast=float(contrast))
        mask = ellipsoid_mask(params)
        vol = _smooth_background(rng, VOLUME_EXTENT)
        vol += contrast * mask
        vol += rng.normal(0.0, VOLUME_NOISE_SIGMA, size=vol.shape)
        vol = (vol - vol.mean()) / vol.std()
        samples.append(VolumeSample(
            volume=Tensor._wrap(vol[None].copy()),  # (1, 40, 40, 40) stack
            mask=Tensor._wrap(mask),
            params=params,
        ))
    return samples


# ---------------------------------------------------------------------------
# toy classification task (CIFAR-shaped, fully synthetic)
# ---------------------------------------------------------------------------

def _class_templates(seed: int, num_classes: int) -> np.ndarray:
    """One smooth 3x32x32 template per class, built from cosine gratings."""
    coords = np.arange(32, dtype=np.float64)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    templates = np.zeros((num_classes, 3, 32, 32))
    for cls in range(num_classes):
        rng = child_rng(seed, _TAG_TEMPLATE, cls)
        for ch in range(3):
            t = np.zeros((32, 32))
            for _ in range(3):
                theta = rng.uniform(0.0, np.pi)
                freq = rng.uniform(0.03, 0.12)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                t += np.cos(2.0 * np.pi * freq
                            * (np.cos(theta) * xx + np.sin(theta) * yy) + phase)
            templates[cls, ch] = t / np.sqrt((t * t).mean())
    return templates


TOY_CONTRAST = 0.10
TOY_NOISE_SIGMA = 0.45


def toy_image_dataset(count: int, seed: int,
                      num_classes: int = 10) -> list[LabeledImage]:
    """Balanced labeled images: class template * TOY_CONTRAST + noise of
    sigma TOY_NOISE_SIGMA, centered at 0.5 and clipped to [0, 1]. Item i
    carries label i % num_classes."""
    if count < 1:
        raise ConfigError(f"dataset size must be >= 1, got {count}")
    if not 1 <= num_classes <= 10:
        raise ConfigError(f"num_classes must lie in 1..10, got {num_classes}")
    templates = _class_templates(seed, num_classes)
    samples = []
    for i in range(count):
        rng = child_rng(seed, _TAG_SAMPLE, i)
        label = i % num_classes
        img = 0.5 + TOY_CONTRAST * templates[label]
        img = img + rng.normal(0.0, TOY_NOISE_SIGMA, size=img.shape)
        img = np.clip(img, 0.0, 1.0)
        samples.append(LabeledImage(Tensor._wrap(img), label))
    return samples
