"""Helpers that only tests use: a whole glyph split as a Dataset, and the
per-image rotation that is the reference for `data.rotate_rows`."""

import numpy as np

from fedcond.data import Dataset, GlyphSource


def synth_glyphs(n_per_class: int, seed: int, invert: bool = False) -> Dataset:
    """Every row of `GlyphSource(n_per_class, seed, invert)`."""
    return GlyphSource(n_per_class, seed, invert).dataset()


def rotate_image(x: np.ndarray, angle: int) -> np.ndarray:
    """Rotate a 2-D image counterclockwise by a multiple of 90 degrees.

    Pure index permutation, no interpolation; rot(90) of [[a,b],[c,d]] is
    [[b,d],[a,c]].
    """
    if angle not in (0, 90, 180, 270):
        raise ValueError(f"angle must be one of 0/90/180/270, got {angle}")
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {x.shape}")
    return np.rot90(x, k=angle // 90).copy()
