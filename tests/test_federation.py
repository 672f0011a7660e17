"""Strategy tests: exact degeneracy identities, aggregation properties, and
small end-to-end sanity runs on synthetic data."""

import tracemalloc

import numpy as np
import pytest

from fedcond import federation as fed
from fedcond import nn
from fedcond.config import (STRATEGIES, STRATEGY_KINDS, ConfigError, TrainingSpec,
                            strategy_config)
from fedcond.data import Dataset, DatasetPair, GaussianClusterSpec, synth_clusters
from fedcond.heterogeneity import ClientShard, partition_domain_shift, partition_label_shift
from fedcond.metrics import compute_ari
from fedcond.stats import fingerprint_all

from data_helpers import synth_glyphs

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


def centralized(X, y, arch, opt, epochs, seed, stats_rows=None):
    """Reference centralized SGD, independent of the strategies' round loop:
    a seeded init, then `epochs` single passes of `nn.train_sgd` sharing one
    generator seeded with `seed` and one momentum state."""
    params = nn.init_params(arch, seed)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        params, _ = nn.train_sgd(params, arch, X, y, opt, 1, rng, stats_rows=stats_rows)
    return params


# ------------------------------------------------------- degeneracy identities

def test_ifca_k1_equals_fedavg():
    shards = gaussian_shards()
    arch = arch_for(shards)
    fa = fed.train_fedavg(shards, arch, opt(),
                          fed.StrategyConfig("fedavg", rounds=6), SEED)
    ic = fed.train_ifca(shards, arch, opt(),
                        fed.StrategyConfig("ifca", k_hypotheses=1,
                                           ifca_refinement_rounds=6), SEED)
    assert dist(fa.models[0], ic.models[0]) == 0.0
    assert ic.assignments == [0] * len(shards)


def test_ditto_lambda0_equals_local():
    shards = gaussian_shards()
    arch = arch_for(shards)
    lo = fed.train_local(shards, arch, opt(),
                         fed.StrategyConfig("local", epochs=6), SEED)
    di = fed.train_ditto(shards, arch, opt(),
                         fed.StrategyConfig("ditto", rounds=6, ditto_lambda=0.0),
                         SEED)
    for a, b in zip(lo.models, di.models, strict=True):
        assert dist(a, b) == 0.0


def test_ditto_global_branch_equals_fedavg():
    """Ditto's personal passes leave its global branch alone: at the same
    schedule its round records are FedAvg's but for the strategy name."""
    shards = gaussian_shards()
    arch = arch_for(shards)
    schedule = dict(rounds=3, local_epochs_per_round=2)
    fa = fed.train_fedavg(shards, arch, opt(), fed.StrategyConfig("fedavg", **schedule), SEED)
    di = fed.train_ditto(shards, arch, opt(), fed.StrategyConfig("ditto", **schedule), SEED)
    assert len(fa.log) == 3
    assert [dict(r, strategy="fedavg") for r in di.log] == fa.log


def test_gossip_zero_pairs_equals_local():
    shards = gaussian_shards()
    arch = arch_for(shards)
    lo = fed.train_local(shards, arch, opt(),
                         fed.StrategyConfig("local", epochs=6), SEED)
    go = fed.train_gossip(shards, arch, opt(),
                          fed.StrategyConfig("gossip", rounds=6,
                                             gossip_pairs_per_round=0), SEED)
    for a, b in zip(lo.models, go.models, strict=True):
        assert dist(a, b) == 0.0


def test_oracle_k1_equals_centralized_equals_single_client_fedavg():
    shards = gaussian_shards()
    one_cluster = [ClientShard(s.client_id, 0, s.train, s.test) for s in shards]
    arch = arch_for(shards)
    orc = fed.train_oracle(one_cluster, arch, opt(),
                           fed.StrategyConfig("oracle", epochs=6), SEED)
    X = np.vstack([s.train.X for s in one_cluster])
    y = np.concatenate([s.train.y for s in one_cluster])
    central = centralized(X, y, arch, opt(), 6, SEED)
    assert dist(orc.models[0], central) == 0.0

    merged_train = Dataset(X, y, 2, (2,))
    merged = [ClientShard(0, 0, merged_train, one_cluster[0].test)]
    fa = fed.train_fedavg(merged, arch, opt(),
                          fed.StrategyConfig("fedavg", rounds=1,
                                             local_epochs_per_round=6), SEED)
    assert dist(fa.models[0], central) == 0.0


def test_pooled_sets_of_a_partition_are_views_of_its_training_split():
    pair = DatasetPair(train=synth_glyphs(20, seed=1), test=synth_glyphs(5, seed=2))
    shards = partition_label_shift(pair, 2, 3, seed=4)
    for members in [shards] + [[s for s in shards if s.cluster_id == k] for k in (0, 1)]:
        pooled = fed._pooled(members)
        assert all(np.shares_memory(pooled.X, s.train.X) and
                   np.shares_memory(pooled.y, s.train.y) for s in members)
        assert len(pooled) == sum(len(s.train) for s in members)
        assert np.array_equal(pooled.X, np.vstack([s.train.X for s in members]))
        assert np.array_equal(pooled.y, np.concatenate([s.train.y for s in members]))


def test_pooled_sets_of_other_shards_are_stacked_copies():
    shards = gaussian_shards()
    partitioned = partition_label_shift(
        DatasetPair(train=synth_glyphs(20, seed=1), test=synth_glyphs(5, seed=2)), 2, 3, seed=4)
    for one in (shards[0], partitioned[0]):
        twin = [ClientShard(0, 0, one.train, one.test), ClientShard(1, 0, one.train, one.test)]
        pooled = fed._pooled(twin)
        assert not np.shares_memory(pooled.X, one.train.X)
        assert np.array_equal(pooled.X, np.vstack([one.train.X] * 2))
        assert np.array_equal(np.signbit(pooled.X), np.signbit(np.vstack([one.train.X] * 2)))
        assert np.array_equal(pooled.y, np.concatenate([one.train.y] * 2))
    skipping = [partitioned[0], partitioned[2]]
    assert np.array_equal(fed._pooled(skipping).X, np.vstack([s.train.X for s in skipping]))


def test_two_identical_clients_train_identical_local_models():
    shards = gaussian_shards()
    twin = [ClientShard(0, 0, shards[0].train, shards[0].test),
            ClientShard(1, 0, shards[0].train, shards[0].test)]
    out = fed.train_local(twin, arch_for(shards), opt(),
                          fed.StrategyConfig("local", epochs=4), SEED)
    assert dist(out.models[0], out.models[1]) == 0.0


def test_gossip_two_identical_clients_first_round_matches_fedavg():
    shards = gaussian_shards()
    twin = [ClientShard(0, 0, shards[0].train, shards[0].test),
            ClientShard(1, 0, shards[0].train, shards[0].test)]
    arch = arch_for(shards)
    fa = fed.train_fedavg(twin, arch, opt(),
                          fed.StrategyConfig("fedavg", rounds=1), SEED)
    go = fed.train_gossip(twin, arch, opt(),
                          fed.StrategyConfig("gossip", rounds=1), SEED)
    assert dist(fa.models[0], go.models[0]) < 1e-12


@pytest.mark.parametrize("kind", ["local", "fedavg", "gossip", "ifca", "dac", "ditto"])
def test_round_engine_logs_one_record_per_round(kind):
    shards = gaussian_shards()
    cfg = fed.StrategyConfig(kind, epochs=3, rounds=3, ifca_refinement_rounds=3,
                             k_hypotheses=2)
    records = fed.run_strategy(shards, arch_for(shards), opt(), cfg, SEED).log
    assert [r["round"] for r in records] == [0, 1, 2]
    for r in records:
        assert r.keys() == {"round", "strategy", "mean_train_loss"}
        assert r["strategy"] == kind and np.isfinite(r["mean_train_loss"])


def test_oracle_logs_each_clusters_rounds_tagged_with_its_id():
    shards = gaussian_shards()
    out = fed.train_oracle(shards, arch_for(shards), opt(),
                           fed.StrategyConfig("oracle", epochs=2), SEED)
    clusters = sorted({s.cluster_id for s in shards})
    assert len(clusters) > 1
    assert [(r["cluster_id"], r["round"]) for r in out.log] == \
        [(k, rnd) for k in clusters for rnd in range(2)]


@pytest.mark.parametrize("kind", [k for k in STRATEGY_KINDS if STRATEGIES[k].min_clients > 1])
def test_run_strategy_rejects_fewer_clients_than_its_kind_needs(kind):
    shards = gaussian_shards()[:1]
    with pytest.raises(ValueError, match=f"{kind} needs at least 2 clients, got 1"):
        fed.run_strategy(shards, arch_for(shards), opt(), fed.StrategyConfig(kind), SEED)


def test_every_strategy_kind_has_a_training_function():
    assert list(fed.STRATEGY_FNS) == list(STRATEGIES) == list(STRATEGY_KINDS)


def entry_may_set(kind, key):
    try:
        strategy_config({"kind": kind, key: 2}, TrainingSpec())
    except ConfigError as exc:
        assert "does not read keys" in str(exc)
        return False
    return True


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_schedule_reads_only_the_fields_its_kind_reads(kind):
    """Every schedule field gets a distinct value, so the values that come
    back name the fields the schedule read: each must be one that an entry
    of the kind may set, as `strategy_config` decides (or a constant single
    pass)."""
    values = {"epochs": 11, "rounds": 13, "local_epochs_per_round": 17,
              "ifca_refinement_rounds": 19}
    rounds, passes = fed.StrategyConfig(kind, **values).schedule
    field_of = {v: name for name, v in values.items()}
    keys = [key for key in values if entry_may_set(kind, key)]
    assert field_of[rounds] in keys
    assert passes == 1 or field_of[passes] in keys
    if passes == 1:
        assert "local_epochs_per_round" not in keys


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
    ("dac", 1, 1.5), ("dac", 3, 2.5), ("local", 3, 2.5), ("gossip", 3, 2.5),
    ("fedavg", 3, 0.3), ("ifca", 3, 0.4), ("ditto", 1, 1.3), ("ditto", 3, 2.3)])
def test_round_peak_memory_is_one_block_plus_velocities(kind, rounds, max_blocks):
    """40 clients of a P = 118,282 MLP. Local, Gossip and DAC train in one
    (40, P) float64 block for the whole run and hold their momentum
    velocities, another block, until each client's last pass: at most about
    2 blocks at the peak (1 in a one-round run), plus DAC's row-norm chunk
    of `MIX_CHUNK_ENTRIES // P` rows (4 here). FedAvg and IFCA (K = 2) fold
    each client into its group's mean as it finishes and hold no block, only
    a few P-vectors per group; Ditto adds the personal models and their
    velocities, 2 blocks, and drops each velocity after its last personal
    pass, so a one-round run holds about 1."""
    n_clients, d = 40, 784
    rng = np.random.default_rng(0)
    shards = []
    for cid in range(n_clients):
        data = [Dataset(rng.random((8, d)), rng.integers(0, 10, 8), 10, (d,))
                for _ in range(2)]
        shards.append(ClientShard(client_id=cid, cluster_id=cid % 2,
                                  train=data[0], test=data[1]))
    arch = nn.mlp_architecture(d, 10, hidden_dim=128)
    block_bytes = n_clients * nn.init_params(arch, 0).vector.size * 8
    cfg = fed.StrategyConfig(kind, rounds=rounds, epochs=rounds,
                             ifca_refinement_rounds=rounds, k_hypotheses=2)
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
        models.append(centralized(X, y, arch, opt(), 20, SEED + cid))
    out = fed.train_ifca(shards, arch, opt(),
                         fed.StrategyConfig("ifca", k_hypotheses=2,
                                            ifca_refinement_rounds=1,
                                            local_epochs_per_round=1),
                         SEED, initial_models=models)
    truth = [s.cluster_id for s in shards]
    assert compute_ari(truth, out.assignments) == 1.0


def test_ifca_hypothesis_without_members_keeps_its_vector(monkeypatch):
    """A hypothesis no client joins keeps its parameters bit for bit while
    the one every client joins is averaged each round."""
    shards = gaussian_shards(n_clients=4, seed=5)
    arch = arch_for(shards)
    shunned = nn.init_params(arch, 1)
    shunned.values["out.b"][0] = 100.0  # class 0 for every sample: a huge loss
    seen = {}

    def spy(*args, models, **kwargs):
        seen["models"], seen["before"] = models, [m.vector.tobytes() for m in models]
        return run_rounds(*args, models=models, **kwargs)

    run_rounds = fed._run_rounds
    monkeypatch.setattr(fed, "_run_rounds", spy)
    out = fed.train_ifca(shards, arch, opt(),
                         fed.StrategyConfig("ifca", k_hypotheses=2,
                                            ifca_refinement_rounds=3),
                         SEED, initial_models=[nn.init_params(arch, 0), shunned])
    assert set(out.assignments) == {0}
    used, idle = seen["models"]
    assert idle.vector.tobytes() == seen["before"][1]
    assert used.vector.tobytes() != seen["before"][0]


@pytest.mark.parametrize("clusters", [1, 2, 3])
def test_ifca_defaults_to_one_hypothesis_per_true_cluster(monkeypatch, clusters):
    shards = [ClientShard(s.client_id, s.client_id % clusters, s.train, s.test)
              for s in gaussian_shards(n_clients=6, seed=5)]
    seen = {}

    def spy(*args, models, **kwargs):
        seen["K"] = len(models)
        return run_rounds(*args, models=models, **kwargs)

    run_rounds = fed._run_rounds
    monkeypatch.setattr(fed, "_run_rounds", spy)
    out = fed.train_ifca(shards, arch_for(shards), opt(),
                         fed.StrategyConfig("ifca", ifca_refinement_rounds=1), SEED)
    assert seen["K"] == clusters
    assert set(out.assignments) <= set(range(clusters))


def test_ifca_assignment_is_argmin_stable():
    shards = gaussian_shards(n_clients=6, seed=4)
    arch = arch_for(shards)
    out = fed.train_ifca(shards, arch, opt(),
                         fed.StrategyConfig("ifca", k_hypotheses=2,
                                            ifca_refinement_rounds=3), SEED)
    # recompute the e-step against each client's assigned model set
    models = dict(zip(out.assignments, out.models, strict=True))
    hypotheses = [models[k] for k in sorted(models)]
    for s, assigned in zip(shards, out.assignments, strict=True):
        losses = [fed.mean_shard_loss(m, arch, s) for m in hypotheses]
        assert sorted(models)[int(np.argmin(losses))] == assigned


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
    assert compute_ari(truth, out.assignments) == 1.0


# ---------------------------------------------------------------------- ditto

def test_ditto_huge_lambda_pins_personal_to_global():
    shards = gaussian_shards()
    arch = arch_for(shards)
    out = fed.train_ditto(shards, arch, opt(),
                          fed.StrategyConfig("ditto", rounds=4, ditto_lambda=1e6),
                          SEED)
    fa = fed.train_fedavg(shards, arch, opt(),
                          fed.StrategyConfig("fedavg", rounds=4), SEED)
    for a, b in zip(out.models, fa.models, strict=True):
        assert dist(a, b) < 1e-3


# ---------------------------------------------------------------- conditional

def test_conditional_requires_fingerprints():
    shards = gaussian_shards()
    arch = arch_for(shards, stats_dim=4)
    with pytest.raises(ValueError, match="fingerprint"):
        fed.train_conditional(shards, arch, opt(),
                              fed.StrategyConfig("conditional", epochs=1), SEED)


def test_conditional_widens_the_backbone_by_the_fingerprint_length():
    shards = gaussian_shards()
    fingerprint_all(shards, l=3)
    out = fed.train_conditional(shards, arch_for(shards), opt(),
                                fed.StrategyConfig("conditional", epochs=1), SEED)
    assert out.arch == arch_for(shards, stats_dim=3) and out.arch.conditional
    shards[1].stats = shards[1].stats[:2]
    with pytest.raises(ValueError, match=r"fingerprint lengths differ: \[2, 3\]"):
        fed.train_conditional(shards, arch_for(shards), opt(),
                              fed.StrategyConfig("conditional", epochs=1), SEED)


def test_conditional_beats_fedavg_on_synthetic_concept_shift():
    shards = gaussian_shards(n_clients=6, n_per=300, concept_shift=True, seed=8)
    fingerprint_all(shards, l=4)
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
    fingerprint_all(shards, l=4)
    arch = arch_for(shards, stats_dim=4)
    out = fed.train_conditional(shards, arch, opt(),
                                fed.StrategyConfig("conditional", epochs=5), SEED)
    stats_rows = np.tile(shards[0].stats, (len(shards[0].train), 1))
    central = centralized(shards[0].train.X, shards[0].train.y, arch, opt(), 5, SEED,
                          stats_rows=stats_rows)
    assert dist(out.models[0], central) == 0.0


# ----------------------------------------------------------------- evaluation

def constant_predictor_outcome(shards, cls=0):
    arch = arch_for(shards)
    params = nn.init_params(arch, 0)
    for v in params.values.values():
        v[...] = 0.0
    params.values["out.b"][cls] = 1.0
    return fed.TrainedOutcome("local", arch, [params] * len(shards))


def test_evaluate_counted_fixture():
    shards = gaussian_shards()
    test = Dataset(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]),
                   np.array([0, 0, 0, 1]), 2, (2,))
    fixture = [ClientShard(0, 0, shards[0].train, test)]
    accs, mean = fed.evaluate(constant_predictor_outcome(fixture), fixture)
    assert accs[0] == 0.75 and mean == 0.75


def test_evaluate_perfect_predictor():
    shards = gaussian_shards()
    test = Dataset(np.array([[0.1, 0.2], [0.3, 0.4]]),
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
    out = fed.TrainedOutcome("local", arch, [params])
    _, mean = fed.evaluate(out, shard)
    assert mean == pytest.approx(0.1, abs=0.02)


def test_empty_test_shard_rejected_at_construction():
    ds = synth_glyphs(2, seed=0)
    empty = Dataset(np.zeros((0, 784)), np.array([], dtype=int), 10, (28, 28))
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
    records = fed.train_fedavg(shards, arch_for(shards), opt(),
                               fed.StrategyConfig("fedavg", rounds=3), SEED).log
    assert len(records) == 3
    assert all({"round", "strategy", "mean_train_loss"} <= set(r) for r in records)
