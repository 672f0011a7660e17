"""Dataset ingestion/generation tests: IDX format, rotations, synthetics."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcond import data

from data_helpers import rotate_image, synth_glyphs


def write_bytes(path, blob):
    path.write_bytes(blob)
    return path


def idx_images_blob(images):
    """images: uint8 array (n, h, w) -> IDX byte blob."""
    n, h, w = images.shape
    return struct.pack(">IIII", 0x803, n, h, w) + images.astype(np.uint8).tobytes()


def idx_labels_blob(labels):
    return struct.pack(">II", 0x801, len(labels)) + bytes(labels)


# ------------------------------------------------------------------------ idx

def test_load_idx_two_image_fixture_exact_pixels(tmp_path):
    # hand-built: image 0 all byte 0, image 1 all byte 255, one mixed corner
    imgs = np.zeros((2, 2, 2), dtype=np.uint8)
    imgs[1] = 255
    imgs[0, 0, 0] = 51  # 51/255 = 0.2
    ip = write_bytes(tmp_path / "imgs", idx_images_blob(imgs))
    lp = write_bytes(tmp_path / "labels", idx_labels_blob([0, 1]))
    ds = data.load_idx(ip, lp)
    assert len(ds) == 2 and ds.input_shape == (2, 2)
    assert ds.X[0].tolist() == [0.2, 0.0, 0.0, 0.0]
    assert ds.X[1].tolist() == [1.0, 1.0, 1.0, 1.0]
    assert ds.y.tolist() == [0, 1]


def test_load_idx_bad_magic(tmp_path):
    ip = write_bytes(tmp_path / "imgs", b"\x00\x00\x08\x99" + b"\x00" * 16)
    lp = write_bytes(tmp_path / "labels", idx_labels_blob([0]))
    with pytest.raises(data.IdxMagicError):
        data.load_idx(ip, lp)


def test_load_idx_truncated(tmp_path):
    imgs = np.zeros((2, 2, 2), dtype=np.uint8)
    blob = idx_images_blob(imgs)[:-3]  # drop payload bytes
    ip = write_bytes(tmp_path / "imgs", blob)
    lp = write_bytes(tmp_path / "labels", idx_labels_blob([0, 1]))
    with pytest.raises(data.IdxTruncatedError):
        data.load_idx(ip, lp)


def test_load_idx_count_mismatch(tmp_path):
    imgs = np.zeros((2, 2, 2), dtype=np.uint8)
    ip = write_bytes(tmp_path / "imgs", idx_images_blob(imgs))
    lp = write_bytes(tmp_path / "labels", idx_labels_blob([0, 1, 1]))
    with pytest.raises(data.IdxCountMismatchError):
        data.load_idx(ip, lp)


def test_load_idx_scaling_matches_two_step_expression(tmp_path):
    # load_idx divides in one float64 pass; the bits must equal those of
    # the earlier astype(float64) / 255.0
    imgs = np.random.default_rng(3).integers(0, 256, size=(40, 5, 6), dtype=np.uint8)
    imgs[0] = 0
    imgs[1] = 255
    ip = write_bytes(tmp_path / "imgs", idx_images_blob(imgs))
    lp = write_bytes(tmp_path / "labels", idx_labels_blob([i % 10 for i in range(40)]))
    ds = data.load_idx(ip, lp)
    expected = imgs.reshape(40, 30).astype(np.float64) / 255.0
    assert ds.X.dtype == np.float64
    assert np.array_equal(ds.X, expected)
    assert np.array_equal(np.signbit(ds.X), np.signbit(expected))


def test_idx_round_trip(tmp_path):
    ds = synth_glyphs(3, seed=0)
    data.write_idx(ds, tmp_path / "i", tmp_path / "l")
    back = data.load_idx(tmp_path / "i", tmp_path / "l")
    assert back.y.tolist() == ds.y.tolist()
    assert np.abs(back.X - ds.X).max() <= 0.5 / 255  # byte quantization only


# ------------------------------------------------------------------- rotation

def test_rotation_angle_zero_is_identity():
    img = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(rotate_image(img, 0), img)


def test_rotation_90_on_2x2_hand_enumerated():
    # [[a, b],     rotate 90 ccw      [[b, d],
    #  [c, d]]   ---------------->     [a, c]]
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert rotate_image(img, 90).tolist() == [[2.0, 4.0], [1.0, 3.0]]
    hot = np.zeros((2, 2))
    hot[0, 0] = 1.0
    assert rotate_image(hot, 90).tolist() == [[0.0, 0.0], [1.0, 0.0]]


def test_rotation_rejects_other_angles():
    with pytest.raises(ValueError):
        rotate_image(np.zeros((2, 2)), 45)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_rotation_group_laws(seed):
    img = np.random.default_rng(seed).random((6, 6))
    r90 = lambda im: rotate_image(im, 90)
    assert np.array_equal(r90(r90(r90(r90(img)))), img)
    assert np.array_equal(rotate_image(img, 180), r90(r90(img)))
    assert np.array_equal(
        rotate_image(rotate_image(img, 180), 180), img)


def test_rotate_rows_matches_per_image_rotation():
    rng = np.random.default_rng(0)
    X = rng.random((5, 12))
    rot = data.rotate_rows(X, (3, 4), 90)
    for i in range(5):
        expected = rotate_image(X[i].reshape(3, 4), 90).ravel()
        assert np.array_equal(rot[i], expected)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("angle", [90, 180, 270])
def test_rotate_rows_returns_a_fresh_c_ordered_copy(angle, order):
    X = np.asarray(np.random.default_rng(1).random((5, 12)), order=order)
    rot = data.rotate_rows(X, (3, 4), angle)
    assert rot.flags.c_contiguous and not np.shares_memory(rot, X)
    for i in range(5):
        expected = rotate_image(X[i].reshape(3, 4), angle).ravel()
        assert np.array_equal(rot[i], expected)


def test_rotate_rows_takes_only_quarter_turns():
    X = np.random.default_rng(2).random((5, 12))
    with pytest.raises(ValueError, match="multiple of 90, got 45"):
        data.rotate_rows(X, (3, 4), 45)
    assert np.array_equal(data.rotate_rows(X, (3, 4), -90), data.rotate_rows(X, (3, 4), 270))


# ------------------------------------------------------------------ synthetic

def test_synth_clusters_deterministic_and_labeled():
    specs = [
        data.GaussianClusterSpec((0.2, 0.2), 0.05, lambda x: 0),
        data.GaussianClusterSpec((0.8, 0.8), 0.05, lambda x: 1),
    ]
    a, ca = data.synth_clusters(specs, 50, seed=3, class_count=2)
    b, cb = data.synth_clusters(specs, 50, seed=3, class_count=2)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert np.array_equal(ca, cb)
    assert set(a.y[ca == 0]) == {0} and set(a.y[ca == 1]) == {1}


def test_synth_clusters_concept_shift_construction():
    # same input distribution, opposing rules on the first coordinate
    rule_a = lambda x: int(x[0] > 0.5)
    rule_b = lambda x: int(x[0] <= 0.5)
    specs = [data.GaussianClusterSpec((0.5, 0.5), 0.2, rule_a),
             data.GaussianClusterSpec((0.5, 0.5), 0.2, rule_b)]
    ds, cids = data.synth_clusters(specs, 100, seed=1, class_count=2)
    xa = ds.X[cids == 0]
    ya = ds.y[cids == 0]
    yb = ds.y[cids == 1]
    xb = ds.X[cids == 1]
    assert np.array_equal(ya, (xa[:, 0] > 0.5).astype(int))
    assert np.array_equal(yb, (xb[:, 0] <= 0.5).astype(int))


def test_synth_clusters_rejects_degenerate_covariance():
    with pytest.raises(ValueError, match="cov_scale"):
        data.synth_clusters([data.GaussianClusterSpec((0.5,), 0.0, lambda x: 0)],
                            5, seed=0, class_count=1)


# --------------------------------------------------------------------- glyphs

def test_glyphs_deterministic_in_range_all_classes():
    a = synth_glyphs(20, seed=9)
    b = synth_glyphs(20, seed=9)
    assert np.array_equal(a.X, b.X)
    assert a.X.min() >= 0.0 and a.X.max() <= 1.0
    assert sorted(set(a.y.tolist())) == list(range(10))
    assert a.input_shape == (28, 28)


def test_glyphs_invert_flips_contrast_keeps_labels():
    plain = synth_glyphs(5, seed=4)
    inv = synth_glyphs(5, seed=4, invert=True)
    assert np.allclose(plain.X + inv.X, 1.0)
    assert np.array_equal(plain.y, inv.y)


def reference_synth_glyphs(n_per_class, seed, invert=False):
    """The per-sample glyph loop that synth_glyphs replaced: the oracle for
    its class-by-class construction."""
    rng = np.random.default_rng(seed)
    h, w = data.GLYPH_SHAPE
    templates = [data._glyph_template(d) for d in range(10)]
    n = 10 * n_per_class
    X = np.zeros((n, h * w))
    y = np.zeros(n, dtype=np.int64)
    row = 0
    for digit in range(10):
        base = templates[digit]
        for _ in range(n_per_class):
            dy, dx = rng.integers(-4, 5, size=2)
            img = np.roll(np.roll(base, dy, axis=0), dx, axis=1)
            img = img * rng.uniform(0.75, 1.0)
            for _ in range(rng.integers(0, 3)):
                br, bc = rng.integers(0, h - 3), rng.integers(0, w - 3)
                img[br:br + 3, bc:bc + 3] = rng.uniform(0.0, 0.7)
            img = img + rng.normal(0.0, 0.06, size=img.shape)
            img = np.clip(img, 0.0, 1.0)
            if invert:
                img = 1.0 - img
            X[row] = img.ravel()
            y[row] = digit
            row += 1
    return X, y


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("n_per_class", [1, 3, 40, 200])
def test_glyphs_bit_identical_to_per_sample_reference(n_per_class, invert):
    seed = 1000 + n_per_class
    ds = synth_glyphs(n_per_class, seed=seed, invert=invert)
    X, y = reference_synth_glyphs(n_per_class, seed, invert=invert)
    assert np.array_equal(ds.X, X)
    assert np.array_equal(np.signbit(ds.X), np.signbit(X))
    assert np.array_equal(ds.y, y)


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("n_per_class", [1, 3, 40])
def test_glyph_rows_match_the_whole_split_for_any_order(n_per_class, invert):
    """`rows` writes the whole split's rows bit for bit, signbit included, for
    an order that repeats a row and leaves out whole digits: a digit with no
    selected rows still makes its draws."""
    source = data.GlyphSource(n_per_class, seed=70 + n_per_class, invert=invert)
    whole = source.dataset().X
    rng = np.random.default_rng(n_per_class)
    kept = np.flatnonzero(~np.isin(source.y, [0, 4, 9]))
    order = rng.permutation(kept)[: max(1, len(kept) * 2 // 3)]
    order = np.append(order, order[0])
    out = np.empty((len(order), whole.shape[1]))
    source.rows(order, out)
    assert np.array_equal(out, whole[order])
    assert np.array_equal(np.signbit(out), np.signbit(whole[order]))


@pytest.mark.parametrize("n_per_class", [100, 1000])
def test_glyph_rows_peak_memory_is_about_three_digit_blocks(n_per_class):
    """Drawing a whole split holds about three blocks of one digit's rows at
    its peak (the noise block, the image buffer, and the gathered windows or
    copied-out rows in flight), never a copy of every shifted template."""
    # the first call in a process allocates for numpy's lazy imports
    data.GlyphSource(1, seed=0).rows(np.arange(10), np.empty((10, 784)))
    out = np.empty((10 * n_per_class, 784))
    source = data.GlyphSource(n_per_class, seed=8)
    tracemalloc.start()
    try:
        source.rows(np.arange(10 * n_per_class), out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * n_per_class * 784 * 8


def test_glyph_pair_train_test_disjoint_seeds():
    pair = data.glyph_pair(10, 5, seed=2)
    assert len(pair.train) == 100 and len(pair.test) == 50
    assert not np.array_equal(pair.train.dataset().X[:50], pair.test.dataset().X)


# ------------------------------------------------------------------ utilities

def test_subsample_per_class_caps_counts():
    ds = synth_glyphs(30, seed=0)
    capped = data.subsample_per_class(ds, 7, seed=1)
    counts = np.bincount(capped.y, minlength=10)
    assert counts.tolist() == [7] * 10


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((2, 4)), np.array([0, 5]), 2, (4,))



@pytest.mark.parametrize("bad", [-1, 3])
def test_dataset_rows_rejects_an_index_outside_the_split(bad):
    """`Dataset.rows` raises for a row index outside the split rather than
    writing a clamped row, and otherwise writes the rows asked for."""
    ds = data.Dataset(np.arange(12.0).reshape(3, 4), np.array([0, 1, 0]), 2, (4,))
    out = np.zeros((2, 4))
    with pytest.raises(IndexError):
        ds.rows(np.array([0, bad]), out)
    ds.rows(np.array([2, 0]), out)
    assert out.tolist() == [[8.0, 9.0, 10.0, 11.0], [0.0, 1.0, 2.0, 3.0]]
