"""Training strategies over the shared engine: pooled conditional training
plus the Local, FedAvg, Gossip, Oracle, IFCA, DAC and Ditto baselines, and
per-client evaluation.

Seeding conventions (all deliberate, so the degeneracy identities hold
bit-exactly): every strategy initializes parameters from the run seed, and
every client-local pass draws batch shuffles from a fresh generator seeded
with the same run seed. Aggregations always iterate clients in fixed order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .heterogeneity import ClientShard
from .nn import (Architecture, ModelParams, OptimizerState, average_params,
                 forward, init_params, loss_and_grad, mean_cross_entropy,
                 sgd_step, train_sgd)

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
        for name in ("epochs", "rounds", "local_epochs_per_round",
                     "ifca_refinement_rounds"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        pairs = self.gossip_pairs_per_round
        if pairs is not None and (not isinstance(pairs, Integral) or pairs < 0):
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


def _local_pass(params: ModelParams, arch: Architecture, shard: ClientShard,
                opt: OptimizerState, epochs: int, rng: np.random.Generator):
    return train_sgd(params, arch, shard.train.X, shard.train.y, opt, epochs, rng)


def _train_weights(shards: list[ClientShard]) -> list[int]:
    return [len(s.train) for s in shards]


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
    """Each client trains independently on its own shard."""
    records: list[dict] = []
    client_params = {}
    for shard in shards:
        params = init_params(arch, np.random.default_rng(seed))
        state = opt.clone_config()
        rng = np.random.default_rng(seed)
        for epoch in range(cfg.epochs):
            state.learning_rate = lr_at(opt.learning_rate, epoch, cfg.epochs,
                                        cfg.lr_schedule)
            params, losses = _local_pass(params, arch, shard, state, 1, rng)
        client_params[shard.client_id] = params
        _emit(log_sink, records, {"round": cfg.epochs - 1, "strategy": "local",
                                  "mean_train_loss": losses[-1],
                                  "client_id": shard.client_id})
    return TrainedOutcome("local", arch, client_params, log=records)


def train_fedavg(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                 cfg: StrategyConfig, seed: int, log_sink=None) -> TrainedOutcome:
    """Server-side sample-weighted averaging of per-round local updates."""
    global_params = init_params(arch, np.random.default_rng(seed))
    client_rngs = {s.client_id: np.random.default_rng(seed) for s in shards}
    weights = _train_weights(shards)
    records: list[dict] = []
    for rnd in range(cfg.rounds):
        round_lr = lr_at(opt.learning_rate, rnd, cfg.rounds, cfg.lr_schedule)
        locals_, round_losses = [], []
        for shard in shards:
            state = opt.clone_config()  # momentum resets with each broadcast
            state.learning_rate = round_lr
            p, losses = _local_pass(global_params, arch, shard, state,
                                    cfg.local_epochs_per_round,
                                    client_rngs[shard.client_id])
            locals_.append(p)
            round_losses.append(np.mean(losses))
        global_params = average_params(locals_, weights)
        _emit(log_sink, records, {
            "round": rnd, "strategy": "fedavg",
            "mean_train_loss": float(np.average(round_losses, weights=weights))})
    return TrainedOutcome("fedavg", arch,
                          {s.client_id: global_params for s in shards}, log=records)


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
    init = init_params(arch, np.random.default_rng(seed))
    params = {s.client_id: init for s in shards}
    states = {s.client_id: opt.clone_config() for s in shards}
    rngs = {s.client_id: np.random.default_rng(seed) for s in shards}
    match_rng = np.random.default_rng(child_seed(seed, 0x6055))
    ids = [s.client_id for s in shards]
    records: list[dict] = []
    for rnd in range(cfg.rounds):
        round_lr = lr_at(opt.learning_rate, rnd, cfg.rounds, cfg.lr_schedule)
        round_losses = []
        for shard in shards:
            cid = shard.client_id
            states[cid].learning_rate = round_lr
            params[cid], losses = _local_pass(params[cid], arch, shard, states[cid],
                                              cfg.local_epochs_per_round, rngs[cid])
            round_losses.append(np.mean(losses))
        pairs = _random_matching(len(ids), match_rng)
        if cfg.gossip_pairs_per_round is not None:
            pairs = pairs[:cfg.gossip_pairs_per_round]
        for a, b in pairs:
            ca, cb = ids[a], ids[b]
            mixed = average_params([params[ca], params[cb]], [1.0, 1.0])
            params[ca] = mixed
            params[cb] = mixed
        _emit(log_sink, records, {"round": rnd, "strategy": "gossip",
                                  "mean_train_loss": float(np.mean(round_losses))})
    return TrainedOutcome("gossip", arch, params, log=records)


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
            jittered = {k: v + 0.05 * v.std() * rng.standard_normal(v.shape)
                        for k, v in base.values.items()}
            models.append(ModelParams(base.architecture_id, jittered))
    client_rngs = {s.client_id: np.random.default_rng(seed) for s in shards}
    records: list[dict] = []

    def e_step() -> dict[int, int]:
        out = {}
        for s in shards:
            losses = [mean_shard_loss(m, arch, s) for m in models]
            out[s.client_id] = int(np.argmin(losses))
        return out

    for rnd in range(cfg.ifca_refinement_rounds):
        round_lr = lr_at(opt.learning_rate, rnd, cfg.ifca_refinement_rounds,
                         cfg.lr_schedule)
        assign = e_step()
        round_losses = []
        for h in range(K):
            members = [s for s in shards if assign[s.client_id] == h]
            if not members:
                continue
            locals_, weights = [], []
            for shard in members:
                state = opt.clone_config()
                state.learning_rate = round_lr
                p, losses = _local_pass(models[h], arch, shard, state,
                                        cfg.local_epochs_per_round,
                                        client_rngs[shard.client_id])
                locals_.append(p)
                weights.append(len(shard.train))
                round_losses.append(np.mean(losses))
            models[h] = average_params(locals_, weights)
        _emit(log_sink, records, {"round": rnd, "strategy": "ifca",
                                  "mean_train_loss": float(np.mean(round_losses))})
    final_assign = e_step()
    return TrainedOutcome(
        "ifca", arch,
        {s.client_id: models[final_assign[s.client_id]] for s in shards},
        assignments=final_assign, log=records)


def _cosine_weight_matrix(flat: np.ndarray, tau: float) -> np.ndarray:
    """Row-softmax of pairwise parameter cosines / tau. `flat` is (N, P)."""
    norms = np.linalg.norm(flat, axis=1)
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


def _affinity_clusters(weights: np.ndarray) -> dict[int, int]:
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
    return {i: labels[i] for i in range(n)}


def train_dac(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
              cfg: StrategyConfig, seed: int, log_sink=None) -> TrainedOutcome:
    """Decentralized averaging with adaptive weights: after each local round,
    client i adopts sum_j w_ij * theta_j with w_i = softmax over clients of
    cos(theta_i, theta_j) / tau (self included, full topology)."""
    if len(shards) < 2:
        raise ValueError("dac needs at least 2 clients")
    init = init_params(arch, np.random.default_rng(seed))
    ids = [s.client_id for s in shards]
    params = {cid: init for cid in ids}
    states = {cid: opt.clone_config() for cid in ids}
    rngs = {cid: np.random.default_rng(seed) for cid in ids}
    records: list[dict] = []
    weights_matrix = np.full((len(ids), len(ids)), 1.0 / len(ids))
    for rnd in range(cfg.rounds):
        round_lr = lr_at(opt.learning_rate, rnd, cfg.rounds, cfg.lr_schedule)
        round_losses = []
        for shard in shards:
            cid = shard.client_id
            states[cid].learning_rate = round_lr
            params[cid], losses = _local_pass(params[cid], arch, shard, states[cid],
                                              cfg.local_epochs_per_round, rngs[cid])
            round_losses.append(np.mean(losses))
        flat = np.stack([params[cid].flatten() for cid in ids])
        weights_matrix = _cosine_weight_matrix(flat, cfg.dac_temperature)
        # offset form: exactly the identity when all peers coincide
        mixed_flat = flat[:1] + weights_matrix @ (flat - flat[:1])
        params = {cid: params[cid].from_flat(mixed_flat[i])
                  for i, cid in enumerate(ids)}
        _emit(log_sink, records, {"round": rnd, "strategy": "dac",
                                  "mean_train_loss": float(np.mean(round_losses))})
    assignments = {ids[i]: c for i, c in _affinity_clusters(weights_matrix).items()}
    return TrainedOutcome("dac", arch, params, assignments=assignments, log=records)


def _proximal_epoch(params: ModelParams, target: ModelParams, arch: Architecture,
                    shard: ClientShard, opt: OptimizerState, lam: float,
                    rng: np.random.Generator) -> tuple[ModelParams, float]:
    """One pass of momentum SGD on the data loss with the proximal pull
    (lam/2)*||theta - target||^2 handled implicitly, so any lam >= 0 is
    stable and lam -> inf pins theta to the target."""
    n = len(shard.train)
    order = rng.permutation(n)
    shrink = 1.0 / (1.0 + opt.learning_rate * lam)
    pull = opt.learning_rate * lam
    epoch_loss = 0.0
    for start in range(0, n, opt.batch_size):
        idx = order[start:start + opt.batch_size]
        loss, grads = loss_and_grad(params, arch, shard.train.X[idx],
                                    shard.train.y[idx])
        stepped = sgd_step(params, grads, opt)
        params = stepped.add(target.scale(pull)).scale(shrink)
        epoch_loss += loss * idx.shape[0]
    return params, epoch_loss / n


def train_ditto(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                cfg: StrategyConfig, seed: int, log_sink=None) -> TrainedOutcome:
    """FedAvg global model plus per-client personal models pulled toward the
    broadcast global parameters with proximal strength ditto_lambda. One
    personal pass per round follows the client's global-branch update;
    evaluation uses the personal models."""
    lam = cfg.ditto_lambda
    global_params = init_params(arch, np.random.default_rng(seed))
    personal = {s.client_id: init_params(arch, np.random.default_rng(seed))
                for s in shards}
    global_rngs = {s.client_id: np.random.default_rng(seed) for s in shards}
    personal_rngs = {s.client_id: np.random.default_rng(seed) for s in shards}
    personal_states = {s.client_id: opt.clone_config() for s in shards}
    weights = _train_weights(shards)
    records: list[dict] = []
    for rnd in range(cfg.rounds):
        round_lr = lr_at(opt.learning_rate, rnd, cfg.rounds, cfg.lr_schedule)
        locals_, round_losses = [], []
        for shard in shards:
            state = opt.clone_config()
            state.learning_rate = round_lr
            p, losses = _local_pass(global_params, arch, shard, state,
                                    cfg.local_epochs_per_round,
                                    global_rngs[shard.client_id])
            locals_.append(p)
            round_losses.append(np.mean(losses))
        global_params = average_params(locals_, weights)
        # personal pull targets the freshly aggregated global parameters
        for shard in shards:
            cid = shard.client_id
            personal_states[cid].learning_rate = round_lr
            for _ in range(cfg.local_epochs_per_round):
                personal[cid], _ = _proximal_epoch(
                    personal[cid], global_params, arch, shard,
                    personal_states[cid], lam, personal_rngs[cid])
        _emit(log_sink, records, {
            "round": rnd, "strategy": "ditto",
            "mean_train_loss": float(np.average(round_losses, weights=weights))})
    return TrainedOutcome("ditto", arch, personal, log=records)


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
