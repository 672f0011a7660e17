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
"""

from __future__ import annotations

import numpy as np

from .heterogeneity import ClientShard


def one_hot(y: np.ndarray, class_count: int) -> np.ndarray:
    out = np.zeros((y.shape[0], class_count))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def build_augmented(X: np.ndarray, y: np.ndarray, class_count: int) -> np.ndarray:
    """Rows [x || onehot(y)]; one row per training sample."""
    if X.shape[0] == 0:
        raise ValueError("cannot fingerprint an empty shard")
    y = np.asarray(y)
    if y.min() < 0 or y.max() >= class_count:
        raise ValueError(f"label outside [0, {class_count})")
    return np.hstack([X, one_hot(y, class_count)])


def _noise_floor(Z: np.ndarray, top: float) -> float:
    """Eigenvalues below this are round-off and become exact zeros.

    The larger of the centering round-off of Z and the symmetric solver's
    accuracy, d * eps * lambda_1, where `top` is the largest eigenvalue found.
    """
    n, d = Z.shape
    eps = np.finfo(np.float64).eps
    scale = np.abs(Z).max(initial=0.0)
    return max(n * (scale * eps) ** 2, d * eps * top)


def pca_eigenvalues(Z: np.ndarray, l: int) -> np.ndarray:
    """Top-l covariance eigenvalues, sorted descending, zero-padded to l.

    Zc.T @ Zc (d x d) and Zc @ Zc.T (n x n) share their nonzero spectrum, so
    `eigvalsh` runs on the smaller one: the Gram matrix when n < d (the
    snapshot method), the covariance otherwise.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    n, d = Z.shape
    if n < 2:
        return np.zeros(l)
    Zc = Z - Z.mean(axis=0, keepdims=True)
    gram = (Zc @ Zc.T if n < d else Zc.T @ Zc) / (n - 1)
    vals = np.linalg.eigvalsh(gram)[::-1]
    vals[vals <= _noise_floor(Z, vals[0])] = 0.0
    k = min(l, n, d)
    out = np.zeros(l)
    out[:k] = vals[:k]
    return out


def fingerprint_client(shard: ClientShard, class_count: int, l: int) -> np.ndarray:
    """Compute and attach a client's raw fingerprint from its training shard.

    Returns the client's local eigenvalues, unstandardized; `fingerprint_all`
    replaces the attached vector with the standardized one. Computed once
    before training; the same vector is reused at inference, so no test-time
    label information enters the pipeline.
    """
    Z = build_augmented(shard.train.X, shard.train.y, class_count)
    stats = pca_eigenvalues(Z, l)
    shard.stats = stats
    return stats


def fingerprint_all(shards: list[ClientShard], class_count: int, l: int) -> np.ndarray:
    """Standardized fingerprints for every shard, stacked (n_clients, l).

    Each coordinate of the raw fingerprints is standardized across these
    clients, and row i is attached to shards[i] as its conditioning vector.
    These rows are what `report.json` and `fingerprints.json` record.
    """
    raw = np.vstack([fingerprint_client(s, class_count, l) for s in shards])
    F = standardize_across_clients(raw)
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
