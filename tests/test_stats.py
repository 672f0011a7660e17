"""Fingerprint tests: augmented matrix construction and PCA eigenvalue
properties, with explicit covariance and Gram eigendecompositions as the
reference oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcond import stats
from fedcond.data import DatasetPair, GaussianClusterSpec, synth_clusters
from fedcond.heterogeneity import ClientShard, partition_label_shift

from data_helpers import synth_glyphs


def explicit_cov_eigs(Z, l):
    """Independent oracle: explicit covariance, dense symmetric eigensolver."""
    n = Z.shape[0]
    Zc = Z - Z.mean(axis=0)
    cov = Zc.T @ Zc / (n - 1)
    vals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    out = np.zeros(l)
    k = min(l, Z.shape[1])
    out[:k] = np.clip(vals[:k], 0, None)
    return out


def explicit_gram_eigs(Z, l):
    """Independent oracle: n x n Gram matrix of the centered rows."""
    n, d = Z.shape
    Zc = Z - Z.mean(axis=0)
    vals = np.sort(np.linalg.eigvalsh(Zc @ Zc.T / (n - 1)))[::-1]
    out = np.zeros(l)
    k = min(l, n, d)
    out[:k] = np.clip(vals[:k], 0, None)
    return out


# ------------------------------------------------------------------ augmented

def test_augmented_row_layout_single_sample():
    Z = stats.build_augmented(np.array([[0.3, 0.7]]), np.array([1]), 2)
    assert Z.tolist() == [[0.3, 0.7, 0.0, 1.0]]


def test_augmented_width_is_feature_dim_plus_classes():
    ds = synth_glyphs(2, seed=0)
    Z = stats.build_augmented(ds.X, ds.y, 10)
    assert Z.shape == (len(ds), 784 + 10)


def test_augmented_feature_block_is_the_raw_input():
    ds = synth_glyphs(2, seed=0)
    Z = stats.build_augmented(ds.X, ds.y, 10)
    assert np.array_equal(Z[:, :784], ds.X)


def test_augmented_single_class_block_is_constant_column():
    X = np.random.default_rng(0).random((6, 3))
    y = np.full(6, 2)
    Z = stats.build_augmented(X, y, 4)
    label_block = Z[:, 3:]
    assert np.array_equal(label_block[:, 2], np.ones(6))
    assert label_block[:, [0, 1, 3]].sum() == 0.0


def test_augmented_rejects_empty_shard():
    with pytest.raises(ValueError, match="empty"):
        stats.build_augmented(np.zeros((0, 3)), np.array([], dtype=int), 2)


# ---------------------------------------------------------------- eigenvalues

def test_constant_rows_give_zero_eigenvalues():
    Z = np.tile([0.3, 0.5, 0.9], (8, 1))
    assert stats.pca_eigenvalues(Z, 4).tolist() == [0.0] * 4


def test_rank_one_diagonal_direction():
    # points t*(1,1) with per-coordinate variance v -> eigenvalues {2v, 0}
    t = np.array([-1.0, 1.0, -1.0, 1.0])
    Z = np.stack([t, t], axis=1) * 0.4
    v = Z[:, 0].var(ddof=1)
    eigs = stats.pca_eigenvalues(Z, 2)
    assert eigs[0] == pytest.approx(2 * v, rel=1e-12)
    assert abs(eigs[1]) < 1e-12


def test_eigenvalues_padded_when_rank_deficient():
    Z = np.random.default_rng(0).random((4, 3))
    eigs = stats.pca_eigenvalues(Z, 8)
    assert eigs.shape == (8,)
    assert np.array_equal(eigs[3:], np.zeros(5))


def test_l_must_be_positive():
    with pytest.raises(ValueError):
        stats.pca_eigenvalues(np.zeros((3, 2)), 0)


def test_single_row_yields_zero_vector():
    assert stats.pca_eigenvalues(np.array([[1.0, 2.0]]), 3).tolist() == [0.0] * 3


def test_rank_deficient_one_hot_block_gives_exact_zero():
    # two features plus a two-class one-hot block: the one-hot columns sum
    # to 1, so the centered 4-column matrix has rank 3. This is a client of
    # the concept-shift fixture in test_federation; unfloored, the dense
    # solver returns its trailing eigenvalue as round-off near 1e-18
    spec = GaussianClusterSpec((0.0, 0.0), 0.30, lambda x: int(x[0] <= 0.5))
    ds, _ = synth_clusters([spec], 300, 8 * 997 + 31, class_count=2)
    Z = stats.build_augmented(ds.X, ds.y, 2)
    eigs = stats.pca_eigenvalues(Z, 4)
    assert eigs[3] == 0.0
    assert eigs[2] > 1e-3


def test_dense_matches_explicit_covariance_oracle():
    rng = np.random.default_rng(42)
    Z = rng.normal(size=(50, 20))
    mine = stats.pca_eigenvalues(Z, 8)
    oracle = explicit_cov_eigs(Z, 8)
    assert np.allclose(mine, oracle, rtol=1e-12, atol=1e-12)


@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["n<d", "n=d", "n>d"]))
@settings(max_examples=30, deadline=None)
def test_gram_and_covariance_spectra_agree(seed, shape):
    # the solver decomposes whichever of the two matrices is smaller; both
    # oracles must agree with it on every retained eigenvalue, up to the
    # round-off the solver reports as exact zeros
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 60))
    n = {"n<d": int(rng.integers(2, d)), "n=d": d,
         "n>d": int(rng.integers(d + 1, 3 * d))}[shape]
    Z = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0, size=d)
    l = int(rng.integers(1, d + 5))
    mine = stats.pca_eigenvalues(Z, l)
    floor = d * np.finfo(np.float64).eps * mine[0]
    for oracle in (explicit_cov_eigs(Z, l), explicit_gram_eigs(Z, l)):
        assert np.allclose(mine, oracle, rtol=1e-10, atol=floor)


def test_sparse_client_rank_is_samples_minus_one():
    # a SuperSparse-sized client: 50 glyph rows against 784 + 10 columns has
    # centered rank 49, so 49 eigenvalues are nonzero and the rest are exact
    # zeros
    ds = synth_glyphs(5, seed=0)
    Z = stats.build_augmented(ds.X, ds.y, 10)
    assert Z.shape == (50, 794)
    eigs = stats.pca_eigenvalues(Z, 64)
    assert eigs.shape == (64,)
    assert np.all(eigs[:49] > 0.0)
    assert np.array_equal(eigs[49:], np.zeros(15))


def test_trace_identity():
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(40, 12))
    eigs = stats.pca_eigenvalues(Z, 12)
    total_var = Z.var(axis=0, ddof=1).sum()
    assert abs(eigs.sum() - total_var) <= 1e-9 * total_var


def test_descending_nonnegative():
    rng = np.random.default_rng(8)
    Z = rng.normal(size=(30, 10))
    eigs = stats.pca_eigenvalues(Z, 10)
    assert np.all(eigs >= 0)
    assert np.all(np.diff(eigs) <= 1e-12)


def test_row_permutation_invariance():
    rng = np.random.default_rng(9)
    Z = rng.normal(size=(25, 6))
    base = stats.pca_eigenvalues(Z, 6)
    shuffled = stats.pca_eigenvalues(Z[rng.permutation(25)], 6)
    assert np.allclose(base, shuffled, rtol=0, atol=1e-12)


def test_orthogonal_transform_of_all_columns_preserves_spectrum():
    rng = np.random.default_rng(10)
    Z = rng.normal(size=(30, 8))
    Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    base = stats.pca_eigenvalues(Z, 8)
    rotated = stats.pca_eigenvalues(Z @ Q, 8)
    assert np.allclose(base, rotated, rtol=1e-8, atol=1e-10)


def test_feature_block_rotation_preserves_feature_spectrum():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(40, 6))
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    base = stats.pca_eigenvalues(feats, 6)
    rotated = stats.pca_eigenvalues(feats @ Q, 6)
    assert np.allclose(base, rotated, rtol=1e-8, atol=1e-10)


def test_duplication_rescales_by_known_factor():
    # with the unbiased n-1 divisor, doubling every row rescales the whole
    # spectrum by 2(n-1)/(2n-1); for realistic shard sizes that factor is
    # within a tenth of a percent of 1
    rng = np.random.default_rng(12)
    Z = rng.normal(size=(500, 6))
    base = stats.pca_eigenvalues(Z, 6)
    doubled = stats.pca_eigenvalues(np.vstack([Z, Z]), 6)
    n = Z.shape[0]
    factor = 2 * (n - 1) / (2 * n - 1)
    assert np.allclose(doubled, base * factor, rtol=1e-9)
    assert np.allclose(doubled, base, rtol=2e-3)


# ---------------------------------------------------------------- fingerprint

def glyph_shards(per_class=40):
    pair = DatasetPair(train=synth_glyphs(per_class, seed=1),
                       test=synth_glyphs(10, seed=2))
    return partition_label_shift(pair, K=2, clients_per_cluster=3, seed=4)


def test_fingerprint_attached_and_deterministic():
    """`fingerprint_all` attaches exactly the rows it returns, and a second
    call gives the same bits."""
    shards = glyph_shards()
    F = stats.fingerprint_all(shards, l=16)
    assert all(s.stats.tobytes() == row.tobytes() for s, row in zip(shards, F))
    again = glyph_shards()
    assert stats.fingerprint_all(again, l=16).tobytes() == F.tobytes()
    assert all(s.stats.tobytes() == row.tobytes() for s, row in zip(again, F))


def test_identical_shards_identical_fingerprints():
    shards = glyph_shards()
    clone = type(shards[0])(client_id=99, cluster_id=0,
                            train=shards[0].train, test=shards[0].test)
    F = stats.fingerprint_all([*shards, clone], l=16)
    assert np.array_equal(F[0], F[-1]) and np.any(F[0] != 0.0)


def test_label_shift_fingerprints_separate_clusters():
    # needs a few hundred samples per client before jitter stops dominating
    shards = glyph_shards(per_class=200)
    F = stats.fingerprint_all(shards, l=16)
    cl = np.array([s.cluster_id for s in shards])
    D = np.linalg.norm(F[:, None, :] - F[None, :, :], axis=-1)
    within = max(D[i, j] for i in range(6) for j in range(6)
                 if i < j and cl[i] == cl[j])
    between = min(D[i, j] for i in range(6) for j in range(6)
                  if i < j and cl[i] != cl[j])
    assert between > within


def test_fingerprint_all_standardizes_across_clients():
    shards = glyph_shards()
    F = stats.fingerprint_all(shards, l=8)
    assert all(np.array_equal(s.stats, row) for s, row in zip(shards, F))
    raw = np.vstack([stats.pca_eigenvalues(stats.build_augmented(s.train.X, s.train.y, 10), 8)
                     for s in shards])
    assert np.allclose(F, (raw - raw.mean(axis=0)) / raw.std(axis=0))
    assert np.allclose(F.mean(axis=0), 0.0) and np.allclose(F.std(axis=0), 1.0)


def row_shards(sizes, per_class=100):
    """One shard per size, each the leading rows of one shuffle of a glyph
    split (1,000 rows of 784 features + 10 classes: d = 794)."""
    ds = synth_glyphs(per_class, seed=5)
    order = np.random.default_rng(5).permutation(len(ds))
    return [ClientShard(client_id=i, cluster_id=0, train=ds.take(order[:n]), test=ds)
            for i, n in enumerate(sizes)]


def test_buffered_fingerprints_equal_the_unbuffered_reference_bit_for_bit():
    """`fingerprint_all` reuses two buffers across shards of n = 1, n < d
    and n >= d, in both orders of size; its rows are those of fresh arrays."""
    shards = row_shards([50, 1000, 1, 300, 799, 7])
    want = stats.standardize_across_clients(np.vstack([
        stats.pca_eigenvalues(stats.build_augmented(s.train.X, s.train.y, 10), 12)
        for s in shards]))
    F = stats.fingerprint_all(shards, l=12)
    assert F.tobytes() == want.tobytes()
    assert all(s.stats.tobytes() == row.tobytes() for s, row in zip(shards, F))


@pytest.mark.parametrize("n", [1, 2, 50, 1000])
def test_buffers_leave_arguments_and_results_unchanged(n):
    X = synth_glyphs(100, seed=6).X[:n]
    y = np.arange(n) % 10
    X_before = X.copy()
    want_Z = stats.build_augmented(X, y, 10)
    out = np.full((n, 794), np.nan)
    Z = stats.build_augmented(X, y, 10, out=out)
    assert Z is out and Z.tobytes() == want_Z.tobytes()
    assert X.tobytes() == X_before.tobytes()
    with pytest.raises(ValueError, match="shape"):
        stats.build_augmented(X, y, 10, out=np.empty((n, 800)))
    want = stats.pca_eigenvalues(Z, 16)
    scratch = np.full((n, 794), np.nan)
    got = stats.pca_eigenvalues(Z, 16, scratch=scratch)
    assert got.tobytes() == want.tobytes()
    assert Z.tobytes() == want_Z.tobytes()


def test_fingerprint_all_holds_no_per_client_temporaries():
    """Besides its two reused buffers the pass holds one Gram or covariance
    matrix and small arrays, not a fresh augmented matrix per client."""
    sizes = [1000, 1000, 1000, 50]  # e1-rich-shaped shards, and a sparse one
    shards = row_shards(sizes)
    d = 784 + 10
    allowed = 8 * (2 * max(sizes) * d + max(min(n, d) for n in sizes) ** 2) + 2 ** 20
    tracemalloc.start()
    try:
        stats.fingerprint_all(shards, l=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= allowed, f"{peak / 2 ** 20:.1f} MiB against {allowed / 2 ** 20:.1f} MiB"


def test_zero_spread_coordinates_map_to_zero():
    # a single client has no spread at all; zero padding beyond the rank
    # (l > d here) gives columns that are 0 on every client
    shards = glyph_shards()
    one = stats.fingerprint_all(shards[:1], l=4)
    assert one.tolist() == [[0.0] * 4]
    F = stats.fingerprint_all(shards, l=800)
    assert np.all(np.isfinite(F))
    assert np.array_equal(F[:, 794:], np.zeros((len(shards), 6)))
    assert np.all(F[:, 0] != 0.0)
    # equal nonzero entries: the mean of six 13.3s rounds away from 13.3, so
    # the std is 2e-15 rather than 0, yet the column has no spread
    raw = np.tile([13.3, 0.1, 0.0], (6, 1))
    assert stats.standardize_across_clients(raw).tolist() == [[0.0] * 3] * 6

