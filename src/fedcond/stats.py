"""Per-client distribution fingerprints.

A client's fingerprint is the vector of top-l eigenvalues of the sample
covariance of its augmented feature-label matrix: each row concatenates the
raw features of one training sample with the one-hot encoding of its label.
Columns are mean-centered and the covariance uses the unbiased n-1 divisor;
eigenvalues are reported in nonincreasing order, zero-padded to length l when
the matrix rank falls short. Eigenvalues below the solver's accuracy (about
d * eps * lambda_1 for a d-column matrix) are round-off, not spectrum, and are
reported as exact zeros.

One exact solver computes the spectrum. For an n x d matrix with n < d (a
sparse client: 50 samples against 794 columns) the covariance has rank at
most n - 1, and its nonzero eigenvalues are those of the n x n Gram matrix
Zc @ Zc.T / (n - 1) (the snapshot method, Turk & Pentland 1991). A dense
symmetric eigendecomposition runs on the Gram matrix when n < d and on the
d x d covariance otherwise, so it costs O(min(n, d)^2 * max(n, d)) to form and
O(min(n, d)^3) to decompose.

The model is not conditioned on these raw eigenvalues. Every client's
eigenvalues sit on a large offset that all clients share, while what tells
clusters apart is a small difference between clients. `fingerprint_all`
therefore standardizes each coordinate across the run's clients (subtract the
mean, divide by the population std; a coordinate with zero spread maps to 0)
and attaches those rows to the shards. That takes one aggregate over the
clients: the sum of each client's l eigenvalues and of their squares, 2l
numbers per client, from which the mean and std are broadcast back.

`fingerprint_all` reuses two buffers sized for its largest client, not three
fresh client-sized arrays per client: one takes the augmented matrix, the
other its centered copy. Each is filled by the operation that would fill a
fresh C-ordered array, so every fingerprint keeps its bits.
"""

from __future__ import annotations

import numpy as np

from .heterogeneity import ClientShard


def build_augmented(X: np.ndarray, y: np.ndarray, class_count: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Rows [x || onehot(y)]; one row per training sample.

    Written into `out` (a float64 array of that shape) when given, else
    into a fresh array. Each entry is a copied feature or an exact 0.0 or
    1.0, so the bits are the same either way."""
    if X.shape[0] == 0:
        raise ValueError("cannot fingerprint an empty shard")
    y = np.asarray(y)
    if y.min() < 0 or y.max() >= class_count:
        raise ValueError(f"label outside [0, {class_count})")
    n, f = X.shape
    if out is None:
        out = np.empty((n, f + class_count))
    elif out.shape != (n, f + class_count):
        raise ValueError(f"out has shape {out.shape}, not {(n, f + class_count)}")
    out[:, :f] = X
    out[:, f:] = 0.0
    out[np.arange(n), f + y] = 1.0
    return out


def _noise_floor(n: int, d: int, scale: float, top: float) -> float:
    """Eigenvalues below this are round-off and become exact zeros.

    The larger of the centering round-off of an n x d matrix whose largest
    magnitude is `scale` and the symmetric solver's accuracy,
    d * eps * lambda_1, where `top` is the largest eigenvalue found.
    """
    eps = np.finfo(np.float64).eps
    return max(n * (scale * eps) ** 2, d * eps * top)


def pca_eigenvalues(Z: np.ndarray, l: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """Top-l covariance eigenvalues, sorted descending, zero-padded to l.

    Zc.T @ Zc (d x d) and Zc @ Zc.T (n x n) share their nonzero spectrum, so
    `eigvalsh` runs on the smaller one: the Gram matrix when n < d (the
    snapshot method), the covariance otherwise.

    `Z` is left unchanged. The centered Zc goes into `scratch` (a C-ordered
    array of Z's shape that nothing else reads) when given, else into a
    fresh one: the same subtraction into the same layout, so the product,
    the solver and the result keep their bits. The noise floor's scale,
    max |Z|, is max(-Z.min(), Z.max()) for any finite Z, with no |Z|
    temporary.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    n, d = Z.shape
    if n < 2:
        return np.zeros(l)
    scale = max(-Z.min(), Z.max())
    Zc = np.subtract(Z, Z.mean(axis=0, keepdims=True), out=scratch)
    gram = Zc @ Zc.T if n < d else Zc.T @ Zc
    gram /= n - 1
    vals = np.linalg.eigvalsh(gram)[::-1]
    vals[vals <= _noise_floor(n, d, scale, vals[0])] = 0.0
    k = min(l, n, d)
    out = np.zeros(l)
    out[:k] = vals[:k]
    return out


def fingerprint_all(shards: list[ClientShard], l: int) -> np.ndarray:
    """Standardized fingerprints for every shard, stacked (n_clients, l);
    row i is attached to shards[i], the one write of its conditioning vector.

    Each coordinate of the clients' raw eigenvalues is standardized across
    them. Computed once before training and reused at inference, so no
    test-time label enters. `report.json` and `fingerprints.json` record
    these rows."""
    class_count = shards[0].train.class_count
    rows = max(len(s.train) for s in shards)
    width = max(s.train.X.shape[1] for s in shards) + class_count
    out, scratch = np.empty((rows, width)), np.empty((rows, width))
    raw = []
    for s in shards:
        n = len(s.train)
        Z = build_augmented(s.train.X, s.train.y, class_count, out[:n])
        raw.append(pca_eigenvalues(Z, l, scratch[:n]))
    F = standardize_across_clients(np.vstack(raw))
    for shard, row in zip(shards, F):
        shard.stats = row
    return F


def standardize_across_clients(raw: np.ndarray) -> np.ndarray:
    """Z-score each column of (n_clients, l) over the clients.

    A column whose entries are all equal (a single client, or zero padding
    beyond the rank) has no spread and maps to 0.
    """
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    spread = raw.max(axis=0) > raw.min(axis=0)
    return np.where(spread, (raw - mean) / np.where(spread, std, 1.0), 0.0)
