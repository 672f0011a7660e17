"""Dataset ingestion and generation.

Covers IDX-format image/label files (MNIST, Fashion-MNIST), a seeded
Gaussian-cluster generator for fast synthetic tests, and a seeded procedural
glyph-digit generator (28x28, 10 classes) used as a desk-scale stand-in when
the real IDX files are not available locally, whose splits draw only the
rows a partition asks for. Pixels are always scaled to [0, 1] by dividing by
255; no mean/std standardization is applied.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxError(ValueError):
    """Base for malformed IDX input."""


class IdxMagicError(IdxError):
    """File does not start with the expected IDX magic number."""


class IdxTruncatedError(IdxError):
    """File ends before the payload its header promises."""


class IdxCountMismatchError(IdxError):
    """Image count and label count disagree."""


@dataclass
class Dataset:
    """A labelled dataset stored columnar: X is (n, d) with rows in [0, 1]."""

    X: np.ndarray
    y: np.ndarray
    class_count: int
    input_shape: tuple[int, ...]

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise ValueError(f"X/y shape mismatch: {self.X.shape} vs {self.y.shape}")
        if self.X.shape[1] != int(np.prod(self.input_shape)):
            raise ValueError(f"row width {self.X.shape[1]} != prod{self.input_shape}")
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= self.class_count):
            raise ValueError("label outside [0, class_count)")

    def __len__(self) -> int:
        return self.X.shape[0]

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], self.class_count, self.input_shape)

    def rows(self, order: np.ndarray, out: np.ndarray) -> None:
        """Write row k of `out` from row `order[k]` (repeats allowed)."""
        if len(order) and (order.min() < 0 or order.max() >= len(self)):
            raise IndexError(f"row indices must lie in [0, {len(self)})")
        # mode="clip" writes straight into `out`; "raise" would buffer a copy
        np.take(self.X, order, axis=0, out=out, mode="clip")


@dataclass(frozen=True)
class DatasetPair:
    """Official train/test splits of one dataset. A split is a Dataset or a
    GlyphSource; a partition reads either through `y`, `take` and `rows`."""

    train: Dataset | GlyphSource
    test: Dataset | GlyphSource

    def __post_init__(self):
        if self.train.class_count != self.test.class_count:
            raise ValueError("train/test class_count disagree")
        if tuple(self.train.input_shape) != tuple(self.test.input_shape):
            raise ValueError("train/test input_shape disagree")


# --------------------------------------------------------------------------
# IDX ingestion
# --------------------------------------------------------------------------

def _idx_dims(raw: bytes, path, expected_magic: int) -> tuple[int, ...]:
    """The dimensions in the header that starts `raw`, an IDX file's bytes."""
    if len(raw) < 4:
        raise IdxTruncatedError(f"{path}: shorter than a magic number")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise IdxMagicError(f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    ndim = magic & 0xFF
    if len(raw) < 4 + 4 * ndim:
        raise IdxTruncatedError(f"{path}: truncated dimension header")
    return struct.unpack(f">{ndim}I", raw[4:4 + 4 * ndim])


def _read_idx(path: Path, expected_magic: int) -> np.ndarray:
    raw = Path(path).read_bytes()
    dims = _idx_dims(raw, path, expected_magic)
    header_len = 4 + 4 * len(dims)
    count = int(np.prod(dims))
    if len(raw) < header_len + count:
        raise IdxTruncatedError(f"{path}: header promises {count} bytes, "
                                f"file holds {len(raw) - header_len}")
    data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=header_len)
    return data.reshape(dims)


def load_idx(images_path, labels_path, per_class_cap: int | None = None,
             seed: int = 0) -> Dataset:
    """Load an IDX image/label file pair into a Dataset (pixels / 255). With
    `per_class_cap`, keep the rows `subsample_per_class` would keep with
    `seed`, chosen from the labels so that only they become float64."""
    images = _read_idx(Path(images_path), IDX_IMAGES_MAGIC)
    labels = _read_idx(Path(labels_path), IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images.shape[0]} images vs {labels.shape[0]} labels")
    n, h, w = images.shape
    y = labels.astype(np.int64)
    class_count = int(y.max()) + 1 if n else 0
    if per_class_cap is not None:
        keep = per_class_indices(y, class_count, per_class_cap, seed)
        images, y = images[keep], y[keep]
    X = np.divide(images.reshape(len(y), h * w), 255.0, dtype=np.float64)
    return Dataset(X, y, class_count, (h, w))


def idx_class_count(labels_path) -> int:
    """The class count `load_idx` gives the labels in an IDX labels file."""
    labels = _read_idx(Path(labels_path), IDX_LABELS_MAGIC)
    return int(labels.max()) + 1 if len(labels) else 0


def idx_image_shape(images_path) -> tuple[int, int]:
    """The (h, w) `load_idx` gives an IDX images file, from its 16-byte header."""
    with open(images_path, "rb") as f:
        return tuple(_idx_dims(f.read(16), images_path, IDX_IMAGES_MAGIC)[1:])


def write_idx(dataset: Dataset, images_path, labels_path) -> None:
    """Write a Dataset back out as an IDX pair (pixels quantized to bytes)."""
    h, w = dataset.input_shape[-2], dataset.input_shape[-1]
    n = len(dataset)
    pixels = np.clip(np.rint(dataset.X * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(dataset.y.astype(np.uint8).tobytes())


MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def load_mnist_like(root, per_class_cap: int | None = None,
                    seeds: tuple[int, int] = (0, 0)) -> DatasetPair:
    """Load MNIST or Fashion-MNIST from the conventional four IDX files, each
    split capped as `load_idx` caps it, with its own seed."""
    paths = [Path(root) / f for f in MNIST_FILES]
    return DatasetPair(train=load_idx(*paths[:2], per_class_cap, seeds[0]),
                       test=load_idx(*paths[2:], per_class_cap, seeds[1]))


# --------------------------------------------------------------------------
# synthetic Gaussian clusters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianClusterSpec:
    """One synthetic cluster: isotropic Gaussian around `mean`, labelled by
    `label_rule(x) -> y`."""

    mean: tuple[float, ...]
    cov_scale: float
    label_rule: "callable"


def synth_clusters(cluster_specs: list[GaussianClusterSpec], n_per_cluster: int,
                   seed: int, class_count: int) -> tuple[Dataset, np.ndarray]:
    """Seeded Gaussian-cluster dataset; returns (dataset, cluster id per row).

    Draws are clipped into [0, 1] after an affine squash so the Dataset pixel
    invariant holds; label rules see the squashed values.
    """
    if not cluster_specs:
        raise ValueError("need at least one cluster spec")
    dim = len(cluster_specs[0].mean)
    rng = np.random.default_rng(seed)
    xs, ys, cids = [], [], []
    for cid, spec in enumerate(cluster_specs):
        if spec.cov_scale <= 0:
            raise ValueError(f"cluster {cid}: cov_scale must be > 0")
        if len(spec.mean) != dim:
            raise ValueError("cluster mean dimensions disagree")
        pts = rng.normal(loc=spec.mean, scale=np.sqrt(spec.cov_scale),
                         size=(n_per_cluster, dim))
        pts = np.clip(0.5 + 0.25 * pts, 0.0, 1.0)
        labels = np.array([spec.label_rule(p) for p in pts], dtype=np.int64)
        xs.append(pts)
        ys.append(labels)
        cids.append(np.full(n_per_cluster, cid, dtype=np.int64))
    X = np.vstack(xs)
    y = np.concatenate(ys)
    return Dataset(X, y, class_count, (dim,)), np.concatenate(cids)


# --------------------------------------------------------------------------
# right-angle image rotation
# --------------------------------------------------------------------------

def rotate_rows(X: np.ndarray, shape: tuple[int, int], angle: int) -> np.ndarray:
    """Rotate every flattened image row of X counterclockwise by `angle`
    degrees, a multiple of 90 (ValueError otherwise)."""
    if angle % 90:
        raise ValueError(f"rotation angle must be a multiple of 90, got {angle}")
    if angle == 0:
        return X.copy()
    h, w = shape
    rotated = np.rot90(X.reshape(-1, h, w), k=angle // 90, axes=(1, 2))
    out = np.empty(X.shape, dtype=X.dtype)
    out.reshape(rotated.shape)[...] = rotated
    return out


# --------------------------------------------------------------------------
# per-class subsampling
# --------------------------------------------------------------------------

def per_class_indices(y: np.ndarray, class_count: int, cap: int,
                      seed: int) -> np.ndarray:
    """Indices of at most `cap` samples per class, chosen uniformly at
    random: class by class, each class's kept indices ascending."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    rng = np.random.default_rng(seed)
    keep = []
    for c in range(class_count):
        idx = np.flatnonzero(y == c)
        if idx.shape[0] > cap:
            idx = rng.choice(idx, size=cap, replace=False)
        keep.append(np.sort(idx))
    return np.concatenate(keep)


def subsample_per_class(dataset, cap: int, seed: int):
    """Keep at most `cap` samples per class, chosen uniformly at random, from
    a Dataset (a copy) or a GlyphSource (composed indices, no pixels)."""
    return dataset.take(per_class_indices(dataset.y, dataset.class_count, cap, seed))


# --------------------------------------------------------------------------
# procedural glyph digits (28x28, 10 classes)
# --------------------------------------------------------------------------

# Segment layout of a 7-segment display on a 28x28 canvas. Horizontal bars
# are (row_start, row_end, col_start, col_end) slices; verticals likewise.
_SEG_BOXES = {
    "top":          (4, 7, 8, 20),
    "middle":       (13, 16, 8, 20),
    "bottom":       (22, 25, 8, 20),
    "top_left":     (5, 15, 6, 9),
    "top_right":    (5, 15, 19, 22),
    "bottom_left":  (14, 24, 6, 9),
    "bottom_right": (14, 24, 19, 22),
}

_DIGIT_SEGMENTS = {
    0: ("top", "top_left", "top_right", "bottom_left", "bottom_right", "bottom"),
    1: ("top_right", "bottom_right"),
    2: ("top", "top_right", "middle", "bottom_left", "bottom"),
    3: ("top", "top_right", "middle", "bottom_right", "bottom"),
    4: ("top_left", "top_right", "middle", "bottom_right"),
    5: ("top", "top_left", "middle", "bottom_right", "bottom"),
    6: ("top", "top_left", "middle", "bottom_left", "bottom_right", "bottom"),
    7: ("top", "top_right", "bottom_right"),
    8: ("top", "top_left", "top_right", "middle", "bottom_left", "bottom_right", "bottom"),
    9: ("top", "top_left", "top_right", "middle", "bottom_right", "bottom"),
}

GLYPH_SHAPE = (28, 28)
_GLYPH_SHIFTS = (-4, 5)  # translation per axis, as integers(low, high)


def _glyph_template(digit: int) -> np.ndarray:
    img = np.zeros(GLYPH_SHAPE)
    for seg in _DIGIT_SEGMENTS[digit]:
        r0, r1, c0, c1 = _SEG_BOXES[seg]
        img[r0:r1, c0:c1] = 1.0
    return img


class GlyphSource:
    """A seeded 28x28 digit-glyph split whose pixels are drawn only when rows
    are asked for, so no whole-split array need exist.

    The full split holds `n_per_class` samples of each digit, digit by digit.
    Each is a seven-segment digit with random translation (up to +-4 px),
    random stroke intensity, occlusion blotches and pixel noise, so a
    pixel-space classifier genuinely needs many samples per class to cover
    the variation. `invert=True` flips the contrast (white background), a
    second visual domain for domain-shift experiments. `index` maps this
    source's rows onto the full split (every row by default), so `take`
    composes indices and copies no pixels.
    """

    class_count = 10
    input_shape = GLYPH_SHAPE

    def __init__(self, n_per_class: int, seed: int, invert: bool = False,
                 index: np.ndarray | None = None):
        if n_per_class <= 0:
            raise ValueError("n_per_class must be positive")
        self.n_per_class, self.seed, self.invert = n_per_class, seed, invert
        self.index = np.arange(10 * n_per_class) if index is None else index
        self.y = self.index // n_per_class

    def __len__(self) -> int:
        return len(self.index)

    def take(self, idx: np.ndarray) -> "GlyphSource":
        return GlyphSource(self.n_per_class, self.seed, self.invert, self.index[idx])

    def rows(self, order: np.ndarray, out: np.ndarray) -> None:
        """Write row k of `out` from row `order[k]` (repeats allowed).

        The random draws are made sample by sample in a fixed order (shift,
        intensity, blotch count, each blotch's corner and value, noise), so
        every digit's samples are drawn whichever rows are asked for; the
        noise goes straight into a reused row block. A digit with selected
        rows then builds its images in one reused image buffer, each read
        from the shifted-template window of its sample, and its selected
        rows are copied out.
        """
        rng = np.random.default_rng(self.seed)
        h, w = GLYPH_SHAPE
        n = self.n_per_class
        src = self.index[order]
        rows, imgs = np.empty((n, h * w)), np.empty((n, h, w))
        for digit in range(10):
            # occasional occluding blotches so single segments are unreliable
            # cues, as (sample, row, col, value), kept in draw order
            blotches, tops, lefts, intensity = [], [], [], []
            for i in range(n):
                # np.roll by (dy, dx) is the 2x2 tiling's window at (-dy % h, -dx % w)
                tops.append(-rng.integers(*_GLYPH_SHIFTS) % h)
                lefts.append(-rng.integers(*_GLYPH_SHIFTS) % w)
                intensity.append(0.75 + 0.25 * rng.random())
                for _ in range(rng.integers(0, 3)):
                    br, bc = rng.integers(0, h - 3), rng.integers(0, w - 3)
                    blotches.append((i, br, bc, 0.7 * rng.random()))
                rng.standard_normal(h * w, out=rows[i])
            sel = np.flatnonzero(src // n == digit)
            if not len(sel):
                continue
            # index the view, never reshape it: that copies all 29x29 windows
            windows = sliding_window_view(np.tile(_glyph_template(digit), (2, 2)), GLYPH_SHAPE)
            np.multiply(windows[tops, lefts], np.array(intensity)[:, None, None], out=imgs)
            for i, br, bc, value in blotches:
                imgs[i, br:br + 3, bc:bc + 3] = value
            rows *= 0.06
            rows += imgs.reshape(n, h * w)
            np.clip(rows, 0.0, 1.0, out=rows)
            if self.invert:
                np.subtract(1.0, rows, out=rows)
            out[sel] = rows[src[sel] - digit * n]

    def dataset(self) -> Dataset:
        """Every row of this source, drawn into a Dataset."""
        X = np.empty((len(self), int(np.prod(GLYPH_SHAPE))))
        self.rows(np.arange(len(self)), X)
        return Dataset(X, self.y, self.class_count, GLYPH_SHAPE)


def glyph_pair(train_per_class: int, test_per_class: int, seed: int,
               invert: bool = False) -> DatasetPair:
    """Train/test glyph sources from disjoint child seeds."""
    ss = np.random.SeedSequence([int(seed), 0x91f])
    s_train, s_test = ss.spawn(2)
    return DatasetPair(
        train=GlyphSource(train_per_class, int(s_train.generate_state(1)[0]), invert),
        test=GlyphSource(test_per_class, int(s_test.generate_state(1)[0]), invert),
    )
