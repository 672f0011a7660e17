"""Training strategies and per-client evaluation. Conditional and Oracle
train pooled data with `train_pooled`; Local, FedAvg, Gossip, IFCA, DAC and
Ditto share one round loop, `_run_rounds` (local passes, then a mix that only
the strategy defines).

Seeding conventions (all deliberate, so the degeneracy identities hold
bit-exactly): every strategy initializes parameters from the run seed, and
every client-local pass draws batch shuffles from a fresh generator seeded
with the same run seed. Aggregations always iterate clients in fixed order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_field_types
from .heterogeneity import ClientShard
from .nn import (Architecture, ModelParams, OptimizerState, average_params,
                 forward, init_params, mean_cross_entropy, train_sgd)

log = logging.getLogger(__name__)

STRATEGY_KINDS = ("conditional", "local", "fedavg", "gossip", "oracle",
                  "ifca", "dac", "ditto")


def child_seed(*keys: int) -> int:
    """Deterministic 64-bit child seed from a tuple of integer keys."""
    return int(np.random.SeedSequence([int(k) for k in keys])
               .generate_state(1, dtype=np.uint64)[0])


@dataclass
class StrategyConfig:
    """Hyperparameters for one strategy run.

    `epochs` is the pooled/local pass budget; federated kinds run `rounds`
    rounds of `local_epochs_per_round` passes each. IFCA spends its budget as
    `ifca_refinement_rounds` rounds of `local_epochs_per_round` passes.
    """

    kind: str
    epochs: int = 20
    rounds: int = 20
    local_epochs_per_round: int = 1
    k_hypotheses: int | None = None
    ifca_refinement_rounds: int = 5
    ditto_lambda: float = 1.0
    gossip_pairs_per_round: int | None = None  # None = full random matching
    dac_temperature: float = 0.1
    lr_schedule: str = "constant"  # constant | cosine (decay to 5% over the run)

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        check_field_types(self)
        for name in ("epochs", "rounds", "local_epochs_per_round",
                     "ifca_refinement_rounds"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        pairs = self.gossip_pairs_per_round
        if pairs is not None and pairs < 0:
            raise ValueError(f"gossip_pairs_per_round must be null or an "
                             f"integer >= 0, got {pairs!r}")
        if self.ditto_lambda < 0:
            raise ValueError("ditto_lambda must be >= 0")
        if self.dac_temperature <= 0:
            raise ValueError("dac_temperature must be > 0")
        if self.k_hypotheses is not None and self.k_hypotheses < 1:
            raise ValueError("k_hypotheses must be >= 1")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")


LR_FLOOR = 0.05


def lr_at(base_lr: float, step: int, total: int, schedule: str) -> float:
    """Learning rate for epoch/round `step` of `total` under the schedule."""
    if schedule == "constant" or total <= 1:
        return base_lr
    cos = (1 + math.cos(math.pi * step / (total - 1))) / 2
    return base_lr * (LR_FLOOR + (1 - LR_FLOOR) * cos)


@dataclass
class TrainedOutcome:
    """What a strategy hands to evaluation: one usable prediction function per
    client (possibly all sharing one parameter set), plus diagnostics."""

    strategy: str
    arch: Architecture
    client_params: dict[int, ModelParams]
    client_stats: dict[int, np.ndarray] | None = None
    assignments: dict[int, int] | None = None
    log: list[dict] = field(default_factory=list)

    def predict_logits(self, client_id: int, X: np.ndarray) -> np.ndarray:
        params = self.client_params[client_id]
        stats = self.client_stats[client_id] if self.client_stats is not None else None
        return forward(params, self.arch, X, stats=stats)


def _emit(sink, records: list[dict], record: dict):
    records.append(record)
    if sink is not None:
        sink(record)


def mean_shard_loss(params: ModelParams, arch: Architecture, shard: ClientShard,
                    stats: np.ndarray | None = None) -> float:
    logits = forward(params, arch, shard.train.X, stats=stats)
    return mean_cross_entropy(np.atleast_2d(logits), shard.train.y)


def train_pooled(X: np.ndarray, y: np.ndarray, arch: Architecture,
                 opt: OptimizerState, epochs: int, seed: int,
                 stats_rows: np.ndarray | None = None,
                 log_sink=None, tag: str = "pooled",
                 lr_schedule: str = "constant") -> tuple[ModelParams, list[dict]]:
    """Centralized SGD on one pooled dataset; the building block for the
    conditional and oracle strategies."""
    params = init_params(arch, np.random.default_rng(seed))
    state = opt.clone_config()
    rng = np.random.default_rng(seed)
    records: list[dict] = []
    for epoch in range(epochs):
        state.learning_rate = lr_at(opt.learning_rate, epoch, epochs, lr_schedule)
        params, losses = train_sgd(params, arch, X, y, state, 1, rng,
                                   stats_rows=stats_rows)
        _emit(log_sink, records, {"round": epoch, "strategy": tag,
                                  "mean_train_loss": losses[0]})
    return params, records


def _by_client(shards: list[ClientShard], values: list) -> dict:
    return {s.client_id: v for s, v in zip(shards, values)}


def _run_rounds(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                cfg: StrategyConfig, seed: int, mix, log_sink, *,
                starts: list[ModelParams] | None = None, rounds: int | None = None,
                epochs_per_round: int | None = None, keep_momentum: bool = False,
                round_loss=lambda losses: float(np.mean(losses))
                ) -> tuple[list[ModelParams], list[dict]]:
    """The round loop of the federated baselines: local passes, then a mix.

    Each round every client runs `epochs_per_round` passes of `train_sgd`
    (default `cfg.local_epochs_per_round`) from its start parameters (default
    the seeded init for all), drawing batches from its own generator seeded
    with the run seed. Momentum resets with each broadcast unless
    `keep_momentum`; a client's optimizer state is dropped after its last
    pass. The trained models go into one `(clients, P)` block allocated for
    the whole run, row i holding client i, so `train_sgd`'s copy is freed as
    soon as the client is done. `mix(trained, block, lr)`, given the rows as
    `ModelParams` views and the block itself, returns the next round's
    starts: client i's start is a fresh array or row i itself (Local, Gossip
    and DAC mix in place), never another client's row, so writing row i
    after client i's pass, which `train_sgd` has copied, overwrites nothing
    still to be read. With kept momentum N clients hold about 2 blocks:
    velocities and the run's block. `round_loss` of the clients' mean
    training losses is logged. Runs `rounds` rounds (default `cfg.rounds`)
    and returns the last mix's output and the log records.
    """
    rounds = rounds or cfg.rounds
    epochs_per_round = epochs_per_round or cfg.local_epochs_per_round
    if starts is None:
        starts = [init_params(arch, np.random.default_rng(seed))] * len(shards)
    rngs = [np.random.default_rng(seed) for _ in shards]
    states = [opt.clone_config() for _ in shards]
    block = np.empty((len(shards), starts[0].vector.size))
    trained = [starts[0].from_flat(row) for row in block]
    records: list[dict] = []
    for rnd in range(rounds):
        lr = lr_at(opt.learning_rate, rnd, rounds, cfg.lr_schedule)
        losses = []
        for i, shard in enumerate(shards):
            state = states[i] if keep_momentum else opt.clone_config()
            state.learning_rate = lr
            params, epoch_losses = train_sgd(starts[i], arch, shard.train.X,
                                             shard.train.y, state,
                                             epochs_per_round, rngs[i])
            block[i] = params.vector
            losses.append(np.mean(epoch_losses))
            if rnd == rounds - 1:
                states[i] = None  # nothing reads a client's momentum after its last pass
        del starts, params  # the block holds the round's models; the mix makes the starts
        loss = round_loss(losses)
        starts = mix(trained, block, lr)
        _emit(log_sink, records, {"round": rnd, "strategy": cfg.kind,
                                  "mean_train_loss": loss})
    return starts, records


# --------------------------------------------------------------------------
# strategies
# --------------------------------------------------------------------------

def train_conditional(shards: list[ClientShard], arch: Architecture,
                      opt: OptimizerState, cfg: StrategyConfig, seed: int,
                      log_sink=None) -> TrainedOutcome:
    """Pooled training of a single model conditioned on client fingerprints.

    Every sample becomes (x, s_i, y) with its owner's fingerprint; the pooled
    set is shuffled per epoch and one shared parameter set is trained.
    """
    if not arch.conditional:
        raise ValueError("conditional strategy needs a conditional architecture")
    for s in shards:
        if s.stats is None:
            raise ValueError(f"client {s.client_id} is missing its fingerprint")
        if s.stats.shape != (arch.stats_dim,):
            raise ValueError(f"client {s.client_id}: fingerprint length "
                             f"{s.stats.shape} != stats_dim {arch.stats_dim}")
    X = np.vstack([s.train.X for s in shards])
    y = np.concatenate([s.train.y for s in shards])
    stats_rows = np.vstack([np.tile(s.stats, (len(s.train), 1)) for s in shards])
    params, records = train_pooled(X, y, arch, opt, cfg.epochs, seed,
                                   stats_rows=stats_rows, log_sink=log_sink,
                                   tag="conditional", lr_schedule=cfg.lr_schedule)
    return TrainedOutcome(
        strategy="conditional", arch=arch,
        client_params={s.client_id: params for s in shards},
        client_stats={s.client_id: s.stats for s in shards},
        log=records)


def train_local(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                cfg: StrategyConfig, seed: int, log_sink=None) -> TrainedOutcome:
    """Each client trains independently on its own shard: `epochs` rounds of
    one pass, mixed with the identity."""
    params, records = _run_rounds(shards, arch, opt, cfg, seed,
                                  lambda trained, block, lr: trained, log_sink,
                                  rounds=cfg.epochs, epochs_per_round=1,
                                  keep_momentum=True)
    return TrainedOutcome("local", arch, _by_client(shards, params), log=records)


def train_fedavg(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                 cfg: StrategyConfig, seed: int, log_sink=None) -> TrainedOutcome:
    """Server-side sample-weighted averaging of per-round local updates."""
    weights = [len(s.train) for s in shards]
    params, records = _run_rounds(
        shards, arch, opt, cfg, seed,
        lambda trained, block, lr: [average_params(trained, weights)] * len(trained),
        log_sink, round_loss=lambda losses: float(np.average(losses, weights=weights)))
    return TrainedOutcome("fedavg", arch, _by_client(shards, params), log=records)


def _random_matching(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    order = rng.permutation(n)
    return [(int(order[i]), int(order[i + 1])) for i in range(0, n - 1, 2)]


def train_gossip(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                 cfg: StrategyConfig, seed: int, log_sink=None) -> TrainedOutcome:
    """Decentralized random pairwise averaging: every round each client trains
    locally, then a random perfect matching is drawn (odd client out skips)
    and matched pairs adopt their unweighted mean."""
    if len(shards) < 2:
        raise ValueError("gossip needs at least 2 clients")
    match_rng = np.random.default_rng(child_seed(seed, 0x6055))

    def mix(trained, block, lr):
        pairs = _random_matching(len(trained), match_rng)
        if cfg.gossip_pairs_per_round is not None:
            pairs = pairs[:cfg.gossip_pairs_per_round]
        for a, b in pairs:
            block[a] = block[b] = average_params([trained[a], trained[b]],
                                                 [1.0, 1.0]).vector
        return trained

    params, records = _run_rounds(shards, arch, opt, cfg, seed, mix, log_sink,
                                  keep_momentum=True)
    return TrainedOutcome("gossip", arch, _by_client(shards, params), log=records)


def train_oracle(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                 cfg: StrategyConfig, seed: int, log_sink=None) -> TrainedOutcome:
    """One model per ground-truth cluster, trained on the cluster's pooled data."""
    for s in shards:
        if s.cluster_id is None or s.cluster_id < 0:
            raise ValueError(f"client {s.client_id}: unknown cluster id")
    records: list[dict] = []
    cluster_ids = sorted({s.cluster_id for s in shards})
    client_params: dict[int, ModelParams] = {}
    for k in cluster_ids:
        members = [s for s in shards if s.cluster_id == k]
        X = np.vstack([s.train.X for s in members])
        y = np.concatenate([s.train.y for s in members])
        params, recs = train_pooled(X, y, arch, opt, cfg.epochs, seed,
                                    log_sink=None, tag="oracle",
                                    lr_schedule=cfg.lr_schedule)
        for r in recs:
            r["cluster_id"] = k
            _emit(log_sink, records, r)
        for s in members:
            client_params[s.client_id] = params
    return TrainedOutcome("oracle", arch, client_params, log=records)


def train_ifca(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
               cfg: StrategyConfig, seed: int, log_sink=None,
               initial_models: list[ModelParams] | None = None) -> TrainedOutcome:
    """K model hypotheses; each refinement round every client joins the
    hypothesis with the lowest mean training loss (ties break to the lowest
    index) and each hypothesis is FedAvg-updated over its members. Empty
    hypotheses keep their stale parameters."""
    K = cfg.k_hypotheses if cfg.k_hypotheses is not None else 1
    if initial_models is not None:
        if len(initial_models) != K:
            raise ValueError("initial_models length must equal k_hypotheses")
        models = [m.copy() for m in initial_models]
    else:
        # hypotheses start as small perturbations of one seeded init; fully
        # independent inits let whichever draw has uniformly lower loss absorb
        # every client at the first assignment and the clustering collapses
        base = init_params(arch, np.random.default_rng(seed))
        models = [base]
        for h in range(1, K):
            rng = np.random.default_rng(child_seed(seed, 1000 + h))
            jittered = base.copy()
            for v in jittered.values.values():
                v += 0.05 * v.std() * rng.standard_normal(v.shape)
            models.append(jittered)
    weights = [len(s.train) for s in shards]
    assign: list[int] = []

    def reassign():
        assign[:] = [int(np.argmin([mean_shard_loss(m, arch, s) for m in models]))
                     for s in shards]
        return [models[h] for h in assign]

    def mix(trained, block, lr):
        for h in range(K):
            members = [i for i, a in enumerate(assign) if a == h]
            if members:
                models[h] = average_params([trained[i] for i in members],
                                           [weights[i] for i in members])
        return reassign()

    # grouped by hypothesis: the float mean depends on summation order, and
    # the logged losses keep the order IFCA trains its members in
    def round_loss(losses):
        return float(np.mean([losses[i] for i in
                              sorted(range(len(losses)), key=assign.__getitem__)]))

    params, records = _run_rounds(shards, arch, opt, cfg, seed, mix, log_sink,
                                  starts=reassign(),
                                  rounds=cfg.ifca_refinement_rounds,
                                  round_loss=round_loss)
    return TrainedOutcome("ifca", arch, _by_client(shards, params),
                          assignments=_by_client(shards, assign), log=records)


MIX_CHUNK_ENTRIES = 1 << 19  # entries of one (N, chunk) temporary of the DAC mix


def _row_norms(flat: np.ndarray) -> np.ndarray:
    """`np.linalg.norm(flat, axis=1)`, bit for bit, `MIX_CHUNK_ENTRIES // P`
    rows (at least one) at a time, so the squares take at most a mix chunk's
    temporary, not a full (N, P) one: each row's sum of squares is reduced
    on its own, whichever rows share the chunk."""
    rows = max(1, MIX_CHUNK_ENTRIES // flat.shape[1])
    return np.concatenate([np.linalg.norm(flat[i:i + rows], axis=1)
                           for i in range(0, flat.shape[0], rows)])


def _cosine_weight_matrix(flat: np.ndarray, tau: float) -> np.ndarray:
    """Row-softmax of pairwise parameter cosines / tau. `flat` is (N, P)."""
    norms = _row_norms(flat)
    if (norms == 0.0).any():
        log.warning("zero-norm parameter vector; treating its cosine similarities as 0")
    safe = np.where(norms == 0.0, 1.0, norms)
    gram = flat @ flat.T
    sims = gram / np.outer(safe, safe)
    sims[norms == 0.0, :] = 0.0
    sims[:, norms == 0.0] = 0.0
    z = sims / tau
    z -= z.max(axis=1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=1, keepdims=True)


def _column_chunks(rows: int, width: int) -> list[tuple[int, int]]:
    """`[a, b)` column ranges covering `width` columns of a `rows`-row mix.
    Every boundary but the last is a multiple of one step, a multiple of 64
    holding at least `MIX_CHUNK_ENTRIES / rows` columns, and the last chunk
    takes the remainder. So every chunk starts on the full product's unrolled
    column blocks and is a GEMM of rows * rows * chunk >= 2**20 multiply-adds
    (rows >= 2), or the whole product: OpenBLAS gives a GEMM of at most 10**6
    to a small-matrix kernel, which rounds the last columns differently."""
    step = -(-MIX_CHUNK_ENTRIES // (64 * rows)) * 64
    bounds = [k * step for k in range(max(1, width // step))]
    return list(zip(bounds, bounds[1:] + [width]))


def _dac_mix(block: np.ndarray, tau: float) -> np.ndarray:
    """One DAC mix of the (N, P) `block` of client models, in place: returns
    the weights W of `_cosine_weight_matrix` over the whole block and
    overwrites the block with `block[:1] + W @ (block - block[:1])`, which is
    exactly the identity when all rows coincide. The product runs over
    `_column_chunks`, so besides the block only one chunk's difference and
    product exist, and each entry comes out of the same BLAS kernel as in
    the unchunked expression, so the bits are its bits."""
    weights = _cosine_weight_matrix(block, tau)
    base = block[0].copy()
    for a, b in _column_chunks(*block.shape):
        np.add(weights @ (block[:, a:b] - base[a:b]), base[a:b], out=block[:, a:b])
    return weights


def _affinity_clusters(weights: np.ndarray) -> list[int]:
    """Hard grouping from a soft affinity matrix: link mutually above-uniform
    pairs, then take connected components."""
    n = weights.shape[0]
    thresh = 1.0 / n
    adj = (np.minimum(weights, weights.T) > thresh)
    labels = [-1] * n
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            u = stack.pop()
            for v in range(n):
                if adj[u, v] and labels[v] == -1:
                    labels[v] = current
                    stack.append(v)
        current += 1
    return labels


def train_dac(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
              cfg: StrategyConfig, seed: int, log_sink=None) -> TrainedOutcome:
    """Decentralized averaging with adaptive weights: after each local round,
    client i adopts sum_j w_ij * theta_j with w_i = softmax over clients of
    cos(theta_i, theta_j) / tau (self included, full topology)."""
    if len(shards) < 2:
        raise ValueError("dac needs at least 2 clients")
    weights_matrix = None

    def mix(trained, block, lr):
        nonlocal weights_matrix
        weights_matrix = _dac_mix(block, cfg.dac_temperature)
        return trained

    params, records = _run_rounds(shards, arch, opt, cfg, seed, mix, log_sink,
                                  keep_momentum=True)
    clusters = _affinity_clusters(weights_matrix)
    return TrainedOutcome("dac", arch, _by_client(shards, params),
                          assignments=_by_client(shards, clusters), log=records)


def train_ditto(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                cfg: StrategyConfig, seed: int, log_sink=None) -> TrainedOutcome:
    """FedAvg global model plus per-client personal models pulled toward the
    broadcast global parameters with proximal strength ditto_lambda. One
    personal pass per round follows the client's global-branch update;
    evaluation uses the personal models."""
    weights = [len(s.train) for s in shards]
    personal = [init_params(arch, np.random.default_rng(seed)) for _ in shards]
    personal_rngs = [np.random.default_rng(seed) for _ in shards]
    personal_states = [opt.clone_config() for _ in shards]

    def mix(trained, block, lr):
        global_params = average_params(trained, weights)
        # personal pull targets the freshly aggregated global parameters
        for i, shard in enumerate(shards):
            personal_states[i].learning_rate = lr
            personal[i], _ = train_sgd(personal[i], arch, shard.train.X, shard.train.y,
                                       personal_states[i], cfg.local_epochs_per_round,
                                       personal_rngs[i], prox_target=global_params,
                                       prox_lambda=cfg.ditto_lambda)
        return [global_params] * len(trained)

    _, records = _run_rounds(
        shards, arch, opt, cfg, seed, mix, log_sink,
        round_loss=lambda losses: float(np.average(losses, weights=weights)))
    return TrainedOutcome("ditto", arch, _by_client(shards, personal), log=records)


STRATEGY_FNS = {
    "conditional": train_conditional,
    "local": train_local,
    "fedavg": train_fedavg,
    "gossip": train_gossip,
    "oracle": train_oracle,
    "ifca": train_ifca,
    "dac": train_dac,
    "ditto": train_ditto,
}


def run_strategy(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                 cfg: StrategyConfig, seed: int, log_sink=None) -> TrainedOutcome:
    return STRATEGY_FNS[cfg.kind](shards, arch, opt, cfg, seed, log_sink=log_sink)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def evaluate(outcome: TrainedOutcome, shards: list[ClientShard]) -> tuple[dict[int, float], float]:
    """Per-client test accuracy (argmax correctness on the client's own test
    shard) and the unweighted mean across clients."""
    accs: dict[int, float] = {}
    for shard in shards:
        if len(shard.test) == 0:
            raise ValueError(f"client {shard.client_id}: empty test shard")
        if shard.client_id not in outcome.client_params:
            raise ValueError(f"outcome does not cover client {shard.client_id}")
        logits = outcome.predict_logits(shard.client_id, shard.test.X)
        pred = np.atleast_2d(logits).argmax(axis=1)
        accs[shard.client_id] = float(np.mean(pred == shard.test.y))
    return accs, float(np.mean(list(accs.values())))
