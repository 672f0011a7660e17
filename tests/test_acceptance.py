"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers.

Desk-scale runs use real MNIST IDX files when $FEDCOND_DATA_ROOT points at
them (subsampled to 1000 samples/class) and otherwise fall back to the
package's procedural 28x28 glyph digits, which share MNIST's geometry and
class count; the dataset actually used is printed with every line. Training
runs are single-seed with the thresholds below.
"""

import csv
import json
import os
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from fedcond import nn, stats
from fedcond.config import ExperimentConfig
from fedcond.data import MNIST_FILES
from fedcond.experiment import run_experiment
from fedcond.federation import (StrategyConfig, child_seed, evaluate,
                                train_ditto, train_fedavg, train_gossip,
                                train_ifca, train_local, train_oracle)
from fedcond.heterogeneity import ClientShard
from fedcond.metrics import compute_ari

SEED = 7


def desk_dataset_spec():
    root = os.environ.get("FEDCOND_DATA_ROOT")
    if root and all((Path(root) / f).exists() for f in MNIST_FILES):
        return {"kind": "idx", "name": "mnist", "root": root,
                "per_class_cap": 1000}
    return {"kind": "glyphs", "name": "glyphs", "train_per_class": 1000,
            "test_per_class": 500, "per_class_cap": None}


def desk_run(name, het, strategies, tmp_path, lr_schedule="constant", seed=SEED):
    doc = {
        "name": name,
        "seed": seed,
        "dataset": desk_dataset_spec(),
        "heterogeneity": het,
        "stats": {"l": 32},
        "training": {"architecture": "mlp", "hidden_dim": 128, "epochs": 10,
                     "lr_schedule": lr_schedule},
        "strategies": strategies,
    }
    cfg = ExperimentConfig.from_dict(doc)
    report = run_experiment(cfg, out_dir=tmp_path / name)
    return report, {r.strategy: r.mean_accuracy for r in report.results}


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def e1_reports(outdir):
    out = {}
    for K in (2, 5, 10):
        out[K] = desk_run(f"e1_k{K}", {"family": "E1", "K": K, "clients_per_cluster": 5},
                          ["local", "fedavg", "oracle", "conditional"], outdir)
    return out


def announce(criterion, detail):
    print(f"[PASS] {criterion}: {detail} [dataset={desk_dataset_spec()['name']}]")


def dist(a, b):
    """Euclidean distance between two models' parameter vectors."""
    return float(np.linalg.norm(a.vector - b.vector))


# --------------------------------------------------------------- criterion 1

def covariance_oracle_eigs(Z, l):
    """Explicit d x d covariance through eigvalsh, with its own round-off
    (below d * eps * lambda_1) zeroed."""
    n, d = Z.shape
    Zc = Z - Z.mean(axis=0)
    vals = np.linalg.eigvalsh(Zc.T @ Zc / (n - 1))[::-1]
    vals[vals <= d * np.finfo(np.float64).eps * vals[0]] = 0.0
    out = np.zeros(l)
    out[:min(l, d)] = vals[:min(l, d)]
    return out


def test_criterion_01_pca_matches_covariance_oracle():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(300):
        d = int(rng.integers(5, 51))
        # half the draws have n <= d, where the solver takes the Gram route
        n = int(rng.integers(2, d + 1)) if i % 2 else int(rng.integers(d + 1, 201))
        Z = rng.normal(size=(n, d)) * rng.uniform(0.2, 4.0, size=d)
        l = int(rng.integers(1, min(d, 32) + 1))
        oracle = covariance_oracle_eigs(Z, l)
        mine = stats.pca_eigenvalues(Z, l)
        rel = np.abs(mine - oracle) / np.maximum(oracle, 1e-9 * max(oracle.max(), 1.0))
        worst = max(worst, rel.max())
    assert worst <= 1e-6
    announce("criterion 1 (PCA oracle equivalence)",
             f"300 matrices (150 with n <= d), worst rel err {worst:.2e} <= 1e-6")


# --------------------------------------------------------------- criterion 2

def test_criterion_02_gradient_correctness_every_layer_type():
    from test_nn import finite_diff_check
    rng = np.random.default_rng(SEED)
    worst = 0.0
    # dense/relu/flatten + the stats-concat junction
    arch = nn.mlp_architecture(12, 4, hidden_dim=9, stats_dim=6)
    params = nn.init_params(arch, 1)
    worst = max(worst, finite_diff_check(
        params, arch, rng.random((8, 12)), rng.integers(0, 4, 8),
        stats=rng.random((8, 6)), coords_per_layer=25, rng=rng))
    # conv/maxpool layers plus the junction on the 28x28 stack
    carch = nn.cnn_architecture(3, hidden_dim=6, stats_dim=4)
    cparams = nn.init_params(carch, 2)
    worst = max(worst, finite_diff_check(
        cparams, carch, rng.random((2, 784)), rng.integers(0, 3, 2),
        stats=rng.random((2, 4)), coords_per_layer=8, rng=rng))
    assert worst < 1e-4
    announce("criterion 2 (gradient correctness)",
             f"worst rel err {worst:.2e} < 1e-4 across dense/relu/conv/pool/"
             "flatten/concat")


# --------------------------------------------------------------- criterion 3

def test_criterion_03_e1_trend_reproduction(e1_reports):
    accs = {K: a for K, (_, a) in e1_reports.items()}
    for K in (2, 5, 10):
        assert accs[K]["conditional"] >= accs[K]["oracle"] - 0.015, \
            f"K={K}: conditional {accs[K]['conditional']:.4f} vs oracle {accs[K]['oracle']:.4f}"
    assert accs[10]["fedavg"] <= 0.70
    assert accs[10]["conditional"] >= 0.97
    assert accs[2]["fedavg"] > accs[5]["fedavg"] > accs[10]["fedavg"]
    announce("criterion 3 (E1 trends)",
             "cond-oracle gaps " +
             ", ".join(f"K={K}: {(accs[K]['conditional']-accs[K]['oracle'])*100:+.2f}pts"
                       for K in (2, 5, 10)) +
             f"; fedavg {accs[2]['fedavg']:.3f} > {accs[5]['fedavg']:.3f} > "
             f"{accs[10]['fedavg']:.3f} (K=10 <= 0.70)")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_e3b_concept_shift_collapse(outdir):
    _, accs = desk_run("e3b_k2", {"family": "E3b", "K": 2, "clients_per_cluster": 5},
                       ["local", "fedavg", "oracle",
                        {"kind": "conditional", "epochs": 60}],
                       outdir, lr_schedule="cosine")
    assert accs["fedavg"] <= 0.60
    assert accs["local"] >= 0.90
    assert accs["conditional"] >= accs["oracle"] - 0.01
    announce("criterion 4 (E3b collapse)",
             f"fedavg {accs['fedavg']:.3f} <= 0.60, local {accs['local']:.3f} >= 0.90, "
             f"cond-oracle {(accs['conditional']-accs['oracle'])*100:+.2f}pts >= -1.0")


# --------------------------------------------------------------- criterion 5

def test_criterion_05_sparsity_robustness(outdir):
    levels = ("Rich", "Medium", "Sparse", "VerySparse", "SuperSparse")
    curve = {}
    for level in levels:
        _, accs = desk_run(f"sp_{level}",
                           {"family": "E1", "K": 2, "sparsity": level},
                           ["local", "fedavg", "conditional"], outdir)
        curve[level] = accs
    cond = [curve[l]["conditional"] for l in levels]
    assert max(cond) - min(cond) <= 0.03
    local_drop = curve["Rich"]["local"] - curve["SuperSparse"]["local"]
    fedavg_drop = curve["Rich"]["fedavg"] - curve["SuperSparse"]["fedavg"]
    assert local_drop >= 0.08
    assert fedavg_drop >= 0.08
    announce("criterion 5 (sparsity robustness)",
             f"conditional span {(max(cond)-min(cond))*100:.2f}pts <= 3; "
             f"local drop {local_drop*100:.1f}pts, fedavg drop "
             f"{fedavg_drop*100:.1f}pts (both >= 8)")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_strategy_degeneracies():
    from data_helpers import synth_glyphs
    from fedcond.data import DatasetPair
    from fedcond.heterogeneity import partition_label_shift
    pair = DatasetPair(train=synth_glyphs(60, seed=1), test=synth_glyphs(15, seed=2))
    shards = partition_label_shift(pair, K=2, clients_per_cluster=2, seed=3)
    arch = nn.mlp_architecture(784, 10, hidden_dim=32)
    opt = nn.OptimizerState(0.01, 0.9, 64)

    fa = train_fedavg(shards, arch, opt, StrategyConfig("fedavg", rounds=6), SEED)
    ic = train_ifca(shards, arch, opt,
                    StrategyConfig("ifca", k_hypotheses=1,
                                   ifca_refinement_rounds=6), SEED)
    d_ifca = dist(fa.models[0], ic.models[0])

    lo = train_local(shards, arch, opt, StrategyConfig("local", epochs=6), SEED)
    di = train_ditto(shards, arch, opt,
                     StrategyConfig("ditto", rounds=6, ditto_lambda=0.0), SEED)
    d_ditto = max(dist(a, b) for a, b in zip(lo.models, di.models, strict=True))

    go = train_gossip(shards, arch, opt,
                      StrategyConfig("gossip", rounds=6, gossip_pairs_per_round=0),
                      SEED)
    d_gossip = max(dist(a, b) for a, b in zip(lo.models, go.models, strict=True))

    one_cluster = [ClientShard(s.client_id, 0, s.train, s.test) for s in shards]
    orc = train_oracle(one_cluster, arch, opt, StrategyConfig("oracle", epochs=6), SEED)
    X = np.vstack([s.train.X for s in one_cluster])
    y = np.concatenate([s.train.y for s in one_cluster])
    # centralized SGD, independent of the strategies' round loop
    central, rng = nn.init_params(arch, SEED), np.random.default_rng(SEED)
    state = opt.clone_config()
    for _ in range(6):
        central, _ = nn.train_sgd(central, arch, X, y, state, 1, rng)
    d_oracle = dist(orc.models[0], central)

    for name, d in [("ifca(K=1)=fedavg", d_ifca), ("ditto(0)=local", d_ditto),
                    ("gossip(0)=local", d_gossip), ("oracle(K=1)=centralized", d_oracle)]:
        assert d < 1e-9, f"{name}: distance {d}"
    announce("criterion 6 (degeneracies)",
             f"param distances ifca {d_ifca:.1e}, ditto {d_ditto:.1e}, "
             f"gossip {d_gossip:.1e}, oracle {d_oracle:.1e} (all < 1e-9)")


# --------------------------------------------------------------- criterion 7

def ari_pair_oracle(a, b):
    n = len(a)
    pairs = list(combinations(range(n), 2))
    both = sum(1 for i, j in pairs if a[i] == a[j] and b[i] == b[j])
    together_a = sum(1 for i, j in pairs if a[i] == a[j])
    together_b = sum(1 for i, j in pairs if b[i] == b[j])
    total = len(pairs)
    expected = together_a * together_b / total
    max_index = (together_a + together_b) / 2.0
    if max_index == expected:
        return 1.0
    return (both - expected) / (max_index - expected)


def test_criterion_07_ari_exactness():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        a = rng.integers(0, rng.integers(1, 5), n).tolist()
        b = rng.integers(0, rng.integers(1, 5), n).tolist()
        worst = max(worst, abs(compute_ari(a, b) - ari_pair_oracle(a, b)))
    assert worst <= 1e-12
    assert compute_ari([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0
    assert compute_ari(list(range(8)), [0] * 8) <= 0.0
    announce("criterion 7 (ARI correctness)",
             f"1000 labelings, max |diff| {worst:.1e} <= 1e-12; "
             "identical -> 1.0, singletons-vs-one <= 0")


# --------------------------------------------------------------- criterion 8

def test_criterion_08_fingerprint_separation(e1_reports):
    report, _ = e1_reports[2]
    F = np.array(report.fingerprints)
    cl = np.array(report.true_clusters)
    D = np.linalg.norm(F[:, None, :] - F[None, :, :], axis=-1)
    n = len(cl)
    within = max(D[i, j] for i in range(n) for j in range(n)
                 if i < j and cl[i] == cl[j])
    between = min(D[i, j] for i in range(n) for j in range(n)
                  if i < j and cl[i] != cl[j])
    assert between > within
    announce("criterion 8 (fingerprint separation)",
             f"min between-cluster {between:.3f} > max within-cluster {within:.3f}")


# --------------------------------------------------------------- criterion 9

def test_criterion_09_determinism_byte_identical_csv(outdir):
    doc = {
        "name": "det", "seed": 11,
        "dataset": {"kind": "glyphs", "name": "glyphs", "train_per_class": 60,
                     "test_per_class": 15, "per_class_cap": None},
        "heterogeneity": {"family": "E1", "K": 2, "clients_per_cluster": 2},
        "stats": {"l": 8},
        "training": {"architecture": "mlp", "hidden_dim": 16, "epochs": 3},
        "strategies": ["local", "fedavg", "oracle", "conditional"],
    }
    a, b = outdir / "det_a", outdir / "det_b"
    run_experiment(ExperimentConfig.from_dict(doc), out_dir=a)
    run_experiment(ExperimentConfig.from_dict(doc), out_dir=b)
    same = (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert same
    announce("criterion 9 (determinism)", "repeated run produced byte-identical "
             "summary.csv")


# -------------------------------------------------------------- criterion 10

NOT_REPRODUCED_AT_DESK_SCALE = (
    "CIFAR-scale absolute accuracy tables",
    "conditional-beats-oracle margins on label-permutation at CIFAR scale",
    "combined-heterogeneity results that rely on a learned feature encoder",
)


def test_criterion_10_e4b_analogue_with_declared_limits(outdir):
    _, accs = desk_run("e4b_c3",
                       {"family": "E4b", "covariate_clusters": 3,
                        "clients_per_cluster": 3,
                        "rules": ["parity", "threshold5"]},
                       ["oracle", {"kind": "conditional", "epochs": 120}],
                       outdir, lr_schedule="cosine")
    gap = accs["conditional"] - accs["oracle"]
    assert gap >= -0.01  # beating the oracle is deliberately NOT asserted
    announce("criterion 10 (combined-heterogeneity analogue)",
             f"2x3-cluster run: cond-oracle {gap*100:+.2f}pts >= -1.0; "
             "declared out of desk scope: " + "; ".join(NOT_REPRODUCED_AT_DESK_SCALE))


# ------------------------------------------------------- full-protocol smoke

def test_cnn_full_protocol_smoke():
    # the 28x28 conv stack exists and one epoch reduces pooled training loss
    from data_helpers import synth_glyphs
    ds = synth_glyphs(12, seed=5)
    arch = nn.cnn_architecture(10, hidden_dim=128, stats_dim=0)
    params = nn.init_params(arch, SEED)
    opt = nn.OptimizerState(0.01, 0.9, 32)
    first = nn.mean_cross_entropy(
        np.atleast_2d(nn.forward(params, arch, ds.X)), ds.y)
    params, losses = nn.train_sgd(params, arch, ds.X, ds.y, opt, 1,
                                  np.random.default_rng(SEED))
    after = nn.mean_cross_entropy(
        np.atleast_2d(nn.forward(params, arch, ds.X)), ds.y)
    assert after < first
    announce("cnn smoke (full-protocol path)",
             f"one epoch: loss {first:.3f} -> {after:.3f}")


def test_l_sweep_smoke(outdir):
    # smaller fingerprint width must run end to end and stay competitive
    doc = {
        "name": "lsweep", "seed": SEED,
        "dataset": {"kind": "glyphs", "name": "glyphs", "train_per_class": 100,
                     "test_per_class": 25, "per_class_cap": None},
        "heterogeneity": {"family": "E1", "K": 2, "clients_per_cluster": 2},
        "stats": {"l": 8},
        "training": {"architecture": "mlp", "hidden_dim": 32, "epochs": 5},
        "strategies": ["conditional", "oracle"],
    }
    report = run_experiment(ExperimentConfig.from_dict(doc), out_dir=outdir / "lsweep")
    accs = {r.strategy: r.mean_accuracy for r in report.results}
    assert all(len(fp) == 8 for fp in report.fingerprints)
    assert accs["conditional"] >= accs["oracle"] - 0.05
    announce("l-sweep smoke", f"l=8 conditional {accs['conditional']:.3f} vs "
             f"oracle {accs['oracle']:.3f}")
