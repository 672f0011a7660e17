"""Strategy tests: exact degeneracy identities, aggregation properties, and
small end-to-end sanity runs on synthetic data."""

import tracemalloc

import numpy as np
import pytest

from fedcond import federation as fed
from fedcond import nn
from fedcond.data import (Dataset, DatasetPair, GaussianClusterSpec, synth_clusters,
                          synth_glyphs)
from fedcond.heterogeneity import ClientShard, partition_domain_shift, partition_label_shift
from fedcond.metrics import compute_ari
from fedcond.stats import fingerprint_all

SEED = 123


def gaussian_shards(n_clients=4, n_per=60, concept_shift=False, seed=0):
    """Tiny 2-cluster Gaussian task; optionally with opposing label rules.

    The concept-shift variant gives the clusters the same center but clearly
    different spreads, so client fingerprints separate by cluster while any
    single unconditioned predictor faces contradictory labels everywhere.
    """
    rule_a = lambda x: int(x[0] > 0.5)
    rule_b = (lambda x: int(x[0] <= 0.5)) if concept_shift else rule_a
    if concept_shift:
        specs = [GaussianClusterSpec((0.0, 0.0), 0.08, rule_a),
                 GaussianClusterSpec((0.0, 0.0), 0.30, rule_b)]
    else:
        specs = [GaussianClusterSpec((-0.4, 0.4), 0.15, rule_a),
                 GaussianClusterSpec((0.4, -0.4), 0.15, rule_b)]
    per_cluster = n_clients // 2
    shards = []
    for cid in range(2):
        for j in range(per_cluster):
            tr, _ = synth_clusters([specs[cid]], n_per, seed * 997 + cid * 31 + j,
                                   class_count=2)
            te, _ = synth_clusters([specs[cid]], 30, seed * 997 + cid * 31 + j + 500,
                                   class_count=2)
            shards.append(ClientShard(client_id=cid * per_cluster + j, cluster_id=cid,
                                      train=tr, test=te))
    return shards


def arch_for(shards, stats_dim=0):
    return nn.mlp_architecture(shards[0].train.X.shape[1],
                               shards[0].train.class_count,
                               hidden_dim=16, stats_dim=stats_dim)


def opt():
    return nn.OptimizerState(0.05, 0.9, batch_size=16)


def dist(a, b):
    """Euclidean distance between two models' parameter vectors."""
    return float(np.linalg.norm(a.vector - b.vector))


# ------------------------------------------------------- degeneracy identities

def test_ifca_k1_equals_fedavg():
    shards = gaussian_shards()
    arch = arch_for(shards)
    fa = fed.train_fedavg(shards, arch, opt(),
                          fed.StrategyConfig("fedavg", rounds=6), SEED)
    ic = fed.train_ifca(shards, arch, opt(),
                        fed.StrategyConfig("ifca", k_hypotheses=1,
                                           ifca_refinement_rounds=6), SEED)
    assert dist(fa.client_params[0], ic.client_params[0]) == 0.0
    assert set(ic.assignments.values()) == {0}


def test_ditto_lambda0_equals_local():
    shards = gaussian_shards()
    arch = arch_for(shards)
    lo = fed.train_local(shards, arch, opt(),
                         fed.StrategyConfig("local", epochs=6), SEED)
    di = fed.train_ditto(shards, arch, opt(),
                         fed.StrategyConfig("ditto", rounds=6, ditto_lambda=0.0),
                         SEED)
    for cid in lo.client_params:
        assert dist(lo.client_params[cid], di.client_params[cid]) == 0.0


def test_gossip_zero_pairs_equals_local():
    shards = gaussian_shards()
    arch = arch_for(shards)
    lo = fed.train_local(shards, arch, opt(),
                         fed.StrategyConfig("local", epochs=6), SEED)
    go = fed.train_gossip(shards, arch, opt(),
                          fed.StrategyConfig("gossip", rounds=6,
                                             gossip_pairs_per_round=0), SEED)
    for cid in lo.client_params:
        assert dist(lo.client_params[cid], go.client_params[cid]) == 0.0


def test_oracle_k1_equals_centralized_equals_single_client_fedavg():
    shards = gaussian_shards()
    one_cluster = [ClientShard(s.client_id, 0, s.train, s.test) for s in shards]
    arch = arch_for(shards)
    orc = fed.train_oracle(one_cluster, arch, opt(),
                           fed.StrategyConfig("oracle", epochs=6), SEED)
    X = np.vstack([s.train.X for s in one_cluster])
    y = np.concatenate([s.train.y for s in one_cluster])
    central, _ = fed.train_pooled(X, y, arch, opt(), 6, SEED)
    assert dist(orc.client_params[0], central) == 0.0

    merged_train = Dataset("pool", X, y, 2, (2,))
    merged = [ClientShard(0, 0, merged_train, one_cluster[0].test)]
    fa = fed.train_fedavg(merged, arch, opt(),
                          fed.StrategyConfig("fedavg", rounds=1,
                                             local_epochs_per_round=6), SEED)
    assert dist(fa.client_params[0], central) == 0.0


def test_two_identical_clients_train_identical_local_models():
    shards = gaussian_shards()
    twin = [ClientShard(0, 0, shards[0].train, shards[0].test),
            ClientShard(1, 0, shards[0].train, shards[0].test)]
    out = fed.train_local(twin, arch_for(shards), opt(),
                          fed.StrategyConfig("local", epochs=4), SEED)
    assert dist(out.client_params[0], out.client_params[1]) == 0.0


def test_gossip_two_identical_clients_first_round_matches_fedavg():
    shards = gaussian_shards()
    twin = [ClientShard(0, 0, shards[0].train, shards[0].test),
            ClientShard(1, 0, shards[0].train, shards[0].test)]
    arch = arch_for(shards)
    fa = fed.train_fedavg(twin, arch, opt(),
                          fed.StrategyConfig("fedavg", rounds=1), SEED)
    go = fed.train_gossip(twin, arch, opt(),
                          fed.StrategyConfig("gossip", rounds=1), SEED)
    assert dist(fa.client_params[0], go.client_params[0]) < 1e-12


@pytest.mark.parametrize("kind", ["local", "fedavg", "gossip", "ifca", "dac", "ditto"])
def test_round_engine_logs_one_record_per_round(kind):
    shards = gaussian_shards()
    records = []
    cfg = fed.StrategyConfig(kind, epochs=3, rounds=3, ifca_refinement_rounds=3,
                             k_hypotheses=2)
    fed.run_strategy(shards, arch_for(shards), opt(), cfg, SEED,
                     log_sink=records.append)
    assert [r["round"] for r in records] == [0, 1, 2]
    for r in records:
        assert r.keys() == {"round", "strategy", "mean_train_loss"}
        assert r["strategy"] == kind and np.isfinite(r["mean_train_loss"])


# ----------------------------------------------------------------- aggregation

def test_dac_weight_rows_are_a_distribution():
    rng = np.random.default_rng(0)
    flat = rng.normal(size=(6, 40))
    w = fed._cosine_weight_matrix(flat, tau=0.1)
    assert np.all(w >= 0)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_dac_identical_models_mix_to_identity():
    shards = gaussian_shards()
    arch = arch_for(shards)
    params = nn.init_params(arch, 5)
    flat = np.tile(params.flatten(), (4, 1))
    block = flat.copy()
    w = fed._dac_mix(block, tau=0.1)
    assert np.allclose(w, 0.25)
    assert np.array_equal(block, flat)


def chunk_step(rows):
    """The column step `_column_chunks` takes for `rows` models."""
    return fed._column_chunks(rows, 2 * fed.MIX_CHUNK_ENTRIES)[0][1]


P_MLP = nn.init_params(nn.mlp_architecture(784, 10), 0).vector.size


@pytest.mark.parametrize("shape", [(2, 7), (5, 40), (16, 300), (17, 1000),
                                   (40, 4097), (200, 3 * chunk_step(200) + 5),
                                   (10, P_MLP), (3, chunk_step(3) + 1),
                                   (12, 2 * chunk_step(12) + 3)])
def test_dac_in_place_mix_is_bit_exact(shape):
    """The chunked in-place mix equals the unchunked expression bit for bit:
    one chunk, several with a short remainder, and a whole MLP. At 12 rows a
    4096-column chunk is a GEMM small enough for another BLAS kernel, whose
    last columns round differently."""
    rng = np.random.default_rng(shape[0])
    flat = 0.3 + rng.normal(scale=0.05, size=shape)
    block = flat.copy()
    w = fed._dac_mix(block, tau=0.1)
    assert np.array_equal(w, fed._cosine_weight_matrix(flat, tau=0.1))
    assert np.array_equal(block, flat[:1] + w @ (flat - flat[:1]))


@pytest.mark.parametrize("rows, width", [
    (2, 7), (2, chunk_step(2) + 1), (3, chunk_step(3) - 1), (3, chunk_step(3)),
    (12, 2 * chunk_step(12) - 1), (40, P_MLP), (200, 3 * chunk_step(200) + 5)])
def test_mix_column_chunks_are_aligned_and_wide(rows, width):
    chunks = fed._column_chunks(rows, width)
    assert chunks[0][0] == 0 and chunks[-1][1] == width
    assert all(b == c for (_, b), (c, _) in zip(chunks, chunks[1:]))
    assert all(a % 64 == 0 for a, _ in chunks)
    assert len(chunks) == 1 or all(rows * (b - a) >= fed.MIX_CHUNK_ENTRIES
                                   for a, b in chunks)


NORM_WIDTH = 3001
NORM_ROWS = fed.MIX_CHUNK_ENTRIES // NORM_WIDTH  # rows per `_row_norms` chunk


@pytest.mark.parametrize("rows", [1, 15, 16, 17, 40, NORM_ROWS - 1, NORM_ROWS,
                                  NORM_ROWS + 1, 2 * NORM_ROWS + 1])
def test_dac_chunked_norms_are_bit_exact(rows):
    rng = np.random.default_rng(rows)
    flat = rng.normal(size=(rows, NORM_WIDTH))
    flat[rows // 2] = 0.0
    norms = fed._row_norms(flat)
    assert np.array_equal(norms, np.linalg.norm(flat, axis=1))
    assert norms[rows // 2] == 0.0


@pytest.mark.parametrize("kind, rounds, max_blocks", [
    ("dac", 1, 1.5), ("dac", 3, 2.5), ("local", 3, 2.5), ("gossip", 3, 2.5)])
def test_round_peak_memory_is_one_block_plus_velocities(kind, rounds, max_blocks):
    """40 clients of a P = 118,282 MLP hold one (40, P) float64 block for
    the whole run, and their momentum velocities, another block, until each
    client's last pass: at most about 2 blocks at the peak (1 in a one-round
    run), plus DAC's row-norm chunk of `MIX_CHUNK_ENTRIES // P` rows (4 here)."""
    n_clients, d = 40, 784
    rng = np.random.default_rng(0)
    shards = []
    for cid in range(n_clients):
        data = [Dataset("noise", rng.random((8, d)), rng.integers(0, 10, 8), 10, (d,))
                for _ in range(2)]
        shards.append(ClientShard(client_id=cid, cluster_id=cid % 2,
                                  train=data[0], test=data[1]))
    arch = nn.mlp_architecture(d, 10, hidden_dim=128)
    block_bytes = n_clients * nn.init_params(arch, 0).vector.size * 8
    cfg = fed.StrategyConfig(kind, rounds=rounds, epochs=rounds)
    tracemalloc.start()
    try:
        fed.run_strategy(shards, arch, nn.OptimizerState(0.01, 0.9, batch_size=8),
                         cfg, SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / block_bytes <= max_blocks


def test_dac_small_temperature_concentrates_on_self():
    rng = np.random.default_rng(1)
    flat = rng.normal(size=(5, 30))
    w = fed._cosine_weight_matrix(flat, tau=1e-4)
    assert np.allclose(np.diag(w), 1.0, atol=1e-8)


def test_dac_zero_norm_model_warns_and_runs(caplog):
    flat = np.vstack([np.zeros(10), np.ones(10)])
    with caplog.at_level("WARNING"):
        w = fed._cosine_weight_matrix(flat, tau=0.1)
    assert "zero-norm" in caplog.text
    assert np.allclose(w.sum(axis=1), 1.0)


def test_affinity_clusters_components():
    w = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    labels = fed._affinity_clusters(w)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


# ----------------------------------------------------------------------- ifca

def test_ifca_pretrained_per_cluster_models_are_a_fixed_point():
    shards = gaussian_shards(n_clients=6, concept_shift=True, seed=3)
    arch = arch_for(shards)
    models = []
    for cid in (0, 1):
        members = [s for s in shards if s.cluster_id == cid]
        X = np.vstack([s.train.X for s in members])
        y = np.concatenate([s.train.y for s in members])
        params, _ = fed.train_pooled(X, y, arch, opt(), 20, SEED + cid)
        models.append(params)
    out = fed.train_ifca(shards, arch, opt(),
                         fed.StrategyConfig("ifca", k_hypotheses=2,
                                            ifca_refinement_rounds=1,
                                            local_epochs_per_round=1),
                         SEED, initial_models=models)
    truth = [s.cluster_id for s in shards]
    est = [out.assignments[s.client_id] for s in shards]
    assert compute_ari(truth, est) == 1.0


def test_ifca_assignment_is_argmin_stable():
    shards = gaussian_shards(n_clients=6, seed=4)
    arch = arch_for(shards)
    out = fed.train_ifca(shards, arch, opt(),
                         fed.StrategyConfig("ifca", k_hypotheses=2,
                                            ifca_refinement_rounds=3), SEED)
    # recompute the e-step against each client's assigned model set
    models = {}
    for s in shards:
        models[out.assignments[s.client_id]] = out.client_params[s.client_id]
    hypotheses = [models[k] for k in sorted(models)]
    for s in shards:
        losses = [fed.mean_shard_loss(m, arch, s) for m in hypotheses]
        assert sorted(models)[int(np.argmin(losses))] == out.assignments[s.client_id]


def test_ifca_on_domain_shift_recovers_clusters():
    a = DatasetPair(train=synth_glyphs(60, seed=1), test=synth_glyphs(15, seed=2))
    b = DatasetPair(train=synth_glyphs(60, seed=3, invert=True),
                    test=synth_glyphs(15, seed=4, invert=True))
    shards = partition_domain_shift(a, b, clients_per_cluster=3, seed=5)
    arch = nn.mlp_architecture(784, 10, hidden_dim=32)
    out = fed.train_ifca(shards, arch, nn.OptimizerState(0.01, 0.9, 64),
                         fed.StrategyConfig("ifca", k_hypotheses=2,
                                            ifca_refinement_rounds=5,
                                            local_epochs_per_round=2), SEED)
    truth = [s.cluster_id for s in shards]
    est = [out.assignments[s.client_id] for s in shards]
    assert compute_ari(truth, est) == 1.0


# ---------------------------------------------------------------------- ditto

def test_ditto_huge_lambda_pins_personal_to_global():
    shards = gaussian_shards()
    arch = arch_for(shards)
    out = fed.train_ditto(shards, arch, opt(),
                          fed.StrategyConfig("ditto", rounds=4, ditto_lambda=1e6),
                          SEED)
    fa = fed.train_fedavg(shards, arch, opt(),
                          fed.StrategyConfig("fedavg", rounds=4), SEED)
    for cid in out.client_params:
        assert dist(out.client_params[cid], fa.client_params[cid]) < 1e-3


# ---------------------------------------------------------------- conditional

def test_conditional_requires_fingerprints():
    shards = gaussian_shards()
    arch = arch_for(shards, stats_dim=4)
    with pytest.raises(ValueError, match="fingerprint"):
        fed.train_conditional(shards, arch, opt(),
                              fed.StrategyConfig("conditional", epochs=1), SEED)


def test_conditional_beats_fedavg_on_synthetic_concept_shift():
    shards = gaussian_shards(n_clients=6, n_per=300, concept_shift=True, seed=8)
    fingerprint_all(shards, 2, l=4)
    cond_arch = nn.mlp_architecture(2, 2, hidden_dim=32, stats_dim=4)
    base_arch = arch_for(shards)
    cond = fed.train_conditional(shards, cond_arch, opt(),
                                 fed.StrategyConfig("conditional", epochs=120,
                                                    lr_schedule="cosine"), SEED)
    fa = fed.train_fedavg(shards, base_arch, opt(),
                          fed.StrategyConfig("fedavg", rounds=20), SEED)
    _, acc_cond = fed.evaluate(cond, shards)
    _, acc_fa = fed.evaluate(fa, shards)
    assert acc_cond >= 0.95
    assert acc_fa <= 0.6


def test_conditional_single_client_is_centralized_with_constant_stats():
    shards = gaussian_shards()[:1]
    fingerprint_all(shards, 2, l=4)
    arch = arch_for(shards, stats_dim=4)
    out = fed.train_conditional(shards, arch, opt(),
                                fed.StrategyConfig("conditional", epochs=5), SEED)
    stats_rows = np.tile(shards[0].stats, (len(shards[0].train), 1))
    central, _ = fed.train_pooled(shards[0].train.X, shards[0].train.y, arch,
                                  opt(), 5, SEED, stats_rows=stats_rows)
    assert dist(out.client_params[0], central) == 0.0


# ----------------------------------------------------------------- evaluation

def constant_predictor_outcome(shards, cls=0):
    arch = arch_for(shards)
    params = nn.init_params(arch, 0)
    for v in params.values.values():
        v[...] = 0.0
    params.values["out.b"][cls] = 1.0
    return fed.TrainedOutcome("local", arch, {s.client_id: params for s in shards})


def test_evaluate_counted_fixture():
    shards = gaussian_shards()
    test = Dataset("fix", np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]),
                   np.array([0, 0, 0, 1]), 2, (2,))
    fixture = [ClientShard(0, 0, shards[0].train, test)]
    accs, mean = fed.evaluate(constant_predictor_outcome(fixture), fixture)
    assert accs[0] == 0.75 and mean == 0.75


def test_evaluate_perfect_predictor():
    shards = gaussian_shards()
    test = Dataset("fix", np.array([[0.1, 0.2], [0.3, 0.4]]),
                   np.array([1, 1]), 2, (2,))
    fixture = [ClientShard(0, 0, shards[0].train, test)]
    accs, mean = fed.evaluate(constant_predictor_outcome(fixture, cls=1), fixture)
    assert mean == 1.0


def test_evaluate_constant_predictor_on_balanced_ten_classes():
    ds = synth_glyphs(30, seed=0)
    shard = [ClientShard(0, 0, ds, ds)]
    arch = nn.mlp_architecture(784, 10)
    params = nn.init_params(arch, 0)
    for v in params.values.values():
        v[...] = 0.0
    out = fed.TrainedOutcome("local", arch, {0: params})
    _, mean = fed.evaluate(out, shard)
    assert mean == pytest.approx(0.1, abs=0.02)


def test_empty_test_shard_rejected_at_construction():
    ds = synth_glyphs(2, seed=0)
    empty = Dataset("none", np.zeros((0, 784)), np.array([], dtype=int), 10, (28, 28))
    with pytest.raises(ValueError, match="empty"):
        ClientShard(0, 0, ds, empty)


def test_evaluate_requires_outcome_for_every_client():
    shards = gaussian_shards()
    out = constant_predictor_outcome(shards[:2])
    with pytest.raises(ValueError, match="cover"):
        fed.evaluate(out, shards)


def test_oracle_rejects_unknown_cluster():
    shards = gaussian_shards()
    shards[0].cluster_id = -1
    with pytest.raises(ValueError, match="unknown cluster"):
        fed.train_oracle(shards, arch_for(shards), opt(),
                         fed.StrategyConfig("oracle", epochs=1), SEED)


def test_strategy_log_records_have_round_and_loss():
    shards = gaussian_shards()
    records = []
    fed.train_fedavg(shards, arch_for(shards), opt(),
                     fed.StrategyConfig("fedavg", rounds=3), SEED,
                     log_sink=records.append)
    assert len(records) == 3
    assert all({"round", "strategy", "mean_train_loss"} <= set(r) for r in records)
