"""Training strategies and per-client evaluation. All eight strategies train
in one round loop, `_run_rounds` (passes over each training set, then a mix
that only the strategy defines). Conditional and Oracle are pooled: one
training set of the clients' rows (per cluster for Oracle) with the identity
mix, a view of the partition's split since their rows are consecutive in it.

Seeding conventions (all deliberate, so the degeneracy identities hold
bit-exactly): every strategy initializes parameters from the run seed, and
every client-local pass draws batch shuffles from a fresh generator seeded
with the same run seed. Aggregations always iterate clients in fixed order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import STRATEGIES, StrategyConfig
from .data import Dataset
from .heterogeneity import ClientShard
from .nn import (Architecture, Fold, ModelParams, OptimizerState, forward,
                 init_params, mean_cross_entropy, train_sgd)

log = logging.getLogger(__name__)


def child_seed(*keys: int) -> int:
    """Deterministic 64-bit child seed from a tuple of integer keys."""
    return int(np.random.SeedSequence([int(k) for k in keys])
               .generate_state(1, dtype=np.uint64)[0])


LR_FLOOR = 0.05


def lr_at(base_lr: float, step: int, total: int, schedule: str) -> float:
    """Learning rate for epoch/round `step` of `total` under the schedule."""
    if schedule == "constant" or total <= 1:
        return base_lr
    cos = (1 + math.cos(math.pi * step / (total - 1))) / 2
    return base_lr * (LR_FLOOR + (1 - LR_FLOOR) * cos)


@dataclass
class TrainedOutcome:
    """What a strategy hands to evaluation: in shard order, each client's model
    (a kind that serves one model repeats it) and IFCA's or DAC's cluster
    assignment; the architecture they run under (conditioned on each client's
    fingerprint iff `arch.conditional`); and the round records."""

    strategy: str
    arch: Architecture
    models: list[ModelParams]
    assignments: list[int] | None = None
    log: list[dict] = field(default_factory=list)


def mean_shard_loss(params: ModelParams, arch: Architecture, shard: ClientShard) -> float:
    return mean_cross_entropy(forward(params, arch, shard.train.X), shard.train.y)


def _span(parts: list[np.ndarray]) -> np.ndarray:
    """`parts` stacked: the view of their common base that spans them when
    they are consecutive row slices of it, else a stacked copy."""
    base = parts[0].base
    if base is not None and base.flags.c_contiguous and all(
            p.base is base and p.flags.c_contiguous and p.dtype == base.dtype
            and p.shape[1:] == base.shape[1:] for p in parts):
        starts = [p.__array_interface__["data"][0] for p in parts]
        row, rem = divmod(starts[0] - base.__array_interface__["data"][0], base.strides[0])
        if rem == 0 and all(a + p.nbytes == b for a, p, b in zip(starts, parts, starts[1:])):
            return base[row:row + sum(map(len, parts))]
    return np.concatenate(parts)


def _pooled(shards: list[ClientShard]) -> Dataset:
    """The clients' training sets stacked in client order; a view, with no
    copy, of the split that `build_partition` cut them from in client order."""
    first = shards[0].train
    return Dataset(_span([s.train.X for s in shards]), _span([s.train.y for s in shards]),
                   first.class_count, first.input_shape)


def _run_rounds(sets: list[Dataset], arch: Architecture, opt: OptimizerState,
                cfg: StrategyConfig, seed: int, mix, *,
                stats_rows: list[np.ndarray | None] | None = None,
                models: list[ModelParams] | None = None, assign: list[int] | None = None,
                round_loss=lambda losses: float(np.mean(losses))
                ) -> tuple[list[ModelParams], list[dict]]:
    """The round loop of all eight strategies: passes over each training set
    (each client's, or one set pooled from clients), then a mix.

    Runs the rounds of `cfg.schedule`. Each round every set runs the
    schedule's passes of `train_sgd`, with `stats_rows[i]` as the
    conditioning rows of set i's samples when given, drawing batches from
    its own generator seeded with the run seed; `round_loss` of the sets' mean
    training losses is logged, then `mix(mixed, lr)` runs. Returns each set's
    model after the last mix, and the log records. Sets hold their models in
    one of two ways, and no pass allocates a model:

    - Block (no `assign`: Local, Gossip, DAC, the pooled kinds). All sets'
      models live in one `(sets, P)` block allocated for the run, row i
      seeded and then trained in place for set i, with momentum kept across
      rounds and dropped after the set's last pass. `mix` gets the block to
      mix in place. N sets hold about 2 blocks at the peak (the block and
      the velocities), 1 in a one-round run.
    - Fold (`assign` given: FedAvg, IFCA, Ditto's global branch). Set i
      trains from `models[assign[i]]` (`models` defaults to the seeded init
      alone) into one work vector, with momentum reset by zeroing one
      shared velocity before each pass, and is folded at once into its
      group's `Fold` with its sample count as weight. Sets run in order,
      so each group's mean has the bits of `average_params` over its
      members. After the round each group with members takes its mean and
      an empty group keeps its vector; `mix` gets `models` and may change
      `models` and `assign` in place. No block exists: the run holds the
      groups' models and a few P-vectors.
    """
    rounds, passes = cfg.schedule
    init = init_params(arch, np.random.default_rng(seed))
    stats_rows = stats_rows or [None] * len(sets)
    rngs = [np.random.default_rng(seed) for _ in sets]
    if assign is None:
        mixed = np.empty((len(sets), init.vector.size))
        mixed[...] = init.vector
        starts = dests = [init.from_flat(row) for row in mixed]
        states = [opt.clone_config() for _ in sets]
    else:
        mixed = models = models or [init]
        weights = [len(s) for s in sets]
        starts = [models[a] for a in assign]
        dests = [init.from_flat(np.empty_like(init.vector))] * len(sets)
        reset = opt.clone_config()  # every pass zeroes its velocity first
        reset.velocity = np.empty_like(init.vector)
        states = [reset] * len(sets)
    del init
    records: list[dict] = []
    for rnd in range(rounds):
        lr = lr_at(opt.learning_rate, rnd, rounds, cfg.lr_schedule)
        if assign is not None:
            folds = {h: Fold([w for w, a in zip(weights, assign) if a == h])
                     for h in set(assign)}
        losses = []
        for i, data in enumerate(sets):
            state = states[i]
            state.learning_rate = lr
            if assign is not None:
                state.velocity[...] = 0.0
            trained, epoch_losses = train_sgd(starts[i], arch, data.X, data.y, state,
                                              passes, rngs[i],
                                              stats_rows=stats_rows[i], out=dests[i])
            if assign is not None:
                folds[assign[i]].add(trained.vector, trained.vector)
            losses.append(np.mean(epoch_losses))
            if rnd == rounds - 1:
                states[i] = None  # nothing reads a set's momentum after its last pass
        if assign is not None:
            for h, fold in folds.items():
                models[h] = models[h].from_flat(fold.vector)
            del folds  # frees each fold's copy of its first member before the mix
        loss = round_loss(losses)
        mix(mixed, lr)
        if assign is not None:
            starts = [models[a] for a in assign]
        records.append({"round": rnd, "strategy": cfg.kind, "mean_train_loss": loss})
    return starts, records


# --------------------------------------------------------------------------
# strategies
# --------------------------------------------------------------------------

def train_conditional(shards: list[ClientShard], arch: Architecture,
                      opt: OptimizerState, cfg: StrategyConfig, seed: int) -> TrainedOutcome:
    """Pooled training of a single model conditioned on client fingerprints.

    The backbone `arch` is widened by the fingerprint length. Every sample
    becomes (x, s_i, y) with its owner's fingerprint; the pooled set is
    shuffled per epoch and one shared parameter set is trained.
    """
    for s in shards:
        if s.stats is None:
            raise ValueError(f"client {s.client_id} is missing its fingerprint")
    lengths = sorted({len(s.stats) for s in shards})
    if len(lengths) != 1:
        raise ValueError(f"clients' fingerprint lengths differ: {lengths}")
    arch = replace(arch, stats_dim=lengths[0])
    stats_rows = np.repeat(np.stack([s.stats for s in shards]),
                           [len(s.train) for s in shards], axis=0)
    (params,), records = _run_rounds([_pooled(shards)], arch, opt, cfg, seed,
                                      lambda block, lr: None, stats_rows=[stats_rows])
    return TrainedOutcome("conditional", arch, [params] * len(shards), log=records)


def train_local(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                cfg: StrategyConfig, seed: int) -> TrainedOutcome:
    """Each client trains independently on its own shard: `epochs` rounds of
    one pass, mixed with the identity."""
    params, records = _run_rounds([s.train for s in shards], arch, opt, cfg, seed,
                                  lambda block, lr: None)
    return TrainedOutcome("local", arch, params, log=records)


def train_fedavg(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                 cfg: StrategyConfig, seed: int) -> TrainedOutcome:
    """Server-side sample-weighted averaging of per-round local updates."""
    weights = [len(s.train) for s in shards]
    params, records = _run_rounds(
        [s.train for s in shards], arch, opt, cfg, seed, lambda models, lr: None,
        assign=[0] * len(shards),
        round_loss=lambda losses: float(np.average(losses, weights=weights)))
    return TrainedOutcome("fedavg", arch, params, log=records)


def _random_matching(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    order = rng.permutation(n)
    return [(int(order[i]), int(order[i + 1])) for i in range(0, n - 1, 2)]


def train_gossip(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                 cfg: StrategyConfig, seed: int) -> TrainedOutcome:
    """Decentralized random pairwise averaging: every round each client trains
    locally, then a random perfect matching is drawn (odd client out skips)
    and matched pairs adopt their unweighted mean."""
    match_rng = np.random.default_rng(child_seed(seed, 0x6055))

    def mix(block, lr):
        pairs = _random_matching(len(block), match_rng)
        if cfg.gossip_pairs_per_round is not None:
            pairs = pairs[:cfg.gossip_pairs_per_round]
        for a, b in pairs:
            pair = Fold([1.0, 1.0])
            pair.add(block[a])
            pair.add(block[b])
            block[a] = block[b] = pair.vector

    params, records = _run_rounds([s.train for s in shards], arch, opt, cfg, seed, mix)
    return TrainedOutcome("gossip", arch, params, log=records)


def train_oracle(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                 cfg: StrategyConfig, seed: int) -> TrainedOutcome:
    """One model per ground-truth cluster, trained on the cluster's pooled data."""
    for s in shards:
        if s.cluster_id is None or s.cluster_id < 0:
            raise ValueError(f"client {s.client_id}: unknown cluster id")
    records: list[dict] = []
    models: dict[int, ModelParams] = {}
    for k in sorted({s.cluster_id for s in shards}):
        members = [s for s in shards if s.cluster_id == k]
        (models[k],), recs = _run_rounds([_pooled(members)], arch, opt, cfg, seed,
                                         lambda block, lr: None)
        records += [dict(r, cluster_id=k) for r in recs]
    return TrainedOutcome("oracle", arch, [models[s.cluster_id] for s in shards],
                          log=records)


def train_ifca(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
               cfg: StrategyConfig, seed: int,
               initial_models: list[ModelParams] | None = None) -> TrainedOutcome:
    """K model hypotheses; each refinement round every client joins the
    hypothesis with the lowest mean training loss (ties break to the lowest
    index) and each hypothesis is FedAvg-updated over its members. Empty
    hypotheses keep their stale parameters. K is `k_hypotheses`, or else the
    number of true clusters among the shards."""
    K = cfg.k_hypotheses or len({s.cluster_id for s in shards})
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
    assign: list[int] = []

    def reassign():
        assign[:] = [int(np.argmin([mean_shard_loss(m, arch, s) for m in models]))
                     for s in shards]

    # grouped by hypothesis: the float mean depends on summation order, and
    # the logged losses keep the order IFCA trains its members in
    def round_loss(losses):
        return float(np.mean([losses[i] for i in
                              sorted(range(len(losses)), key=assign.__getitem__)]))

    reassign()
    params, records = _run_rounds([s.train for s in shards], arch, opt, cfg, seed,
                                  lambda models, lr: reassign(),
                                  models=models, assign=assign, round_loss=round_loss)
    return TrainedOutcome("ifca", arch, params, assignments=assign, log=records)


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
              cfg: StrategyConfig, seed: int) -> TrainedOutcome:
    """Decentralized averaging with adaptive weights: after each local round,
    client i adopts sum_j w_ij * theta_j with w_i = softmax over clients of
    cos(theta_i, theta_j) / tau (self included, full topology)."""
    weights_matrix = None

    def mix(block, lr):
        nonlocal weights_matrix
        weights_matrix = _dac_mix(block, cfg.dac_temperature)

    params, records = _run_rounds([s.train for s in shards], arch, opt, cfg, seed, mix)
    clusters = _affinity_clusters(weights_matrix)
    return TrainedOutcome("dac", arch, params, assignments=clusters, log=records)


def train_ditto(shards: list[ClientShard], arch: Architecture, opt: OptimizerState,
                cfg: StrategyConfig, seed: int) -> TrainedOutcome:
    """FedAvg global model plus per-client personal models pulled toward the
    broadcast global parameters with proximal strength ditto_lambda. The
    personal passes of each round follow the client's global-branch update;
    evaluation uses the personal models."""
    weights = [len(s.train) for s in shards]
    personal = [init_params(arch, np.random.default_rng(seed)) for _ in shards]
    personal_rngs = [np.random.default_rng(seed) for _ in shards]
    personal_states = [opt.clone_config() for _ in shards]
    rounds, passes = cfg.schedule
    mixes = 0

    def mix(models, lr):
        # personal pull targets the freshly aggregated global parameters
        nonlocal mixes
        mixes += 1
        for i, shard in enumerate(shards):
            personal_states[i].learning_rate = lr
            train_sgd(personal[i], arch, shard.train.X, shard.train.y,
                      personal_states[i], passes,
                      personal_rngs[i], prox_target=models[0],
                      prox_lambda=cfg.ditto_lambda, out=personal[i])
            if mixes == rounds:
                personal_states[i] = None  # nothing reads its momentum after its last pass

    _, records = _run_rounds(
        [s.train for s in shards], arch, opt, cfg, seed, mix,
        assign=[0] * len(shards),
        round_loss=lambda losses: float(np.average(losses, weights=weights)))
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
                 cfg: StrategyConfig, seed: int) -> TrainedOutcome:
    least = STRATEGIES[cfg.kind].min_clients
    if len(shards) < least:
        raise ValueError(f"{cfg.kind} needs at least {least} clients, got {len(shards)}")
    return STRATEGY_FNS[cfg.kind](shards, arch, opt, cfg, seed)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def evaluate(outcome: TrainedOutcome, shards: list[ClientShard]) -> tuple[list[float], float]:
    """Each client's test accuracy in shard order (argmax correctness on the
    client's own test shard, conditioned on its fingerprint iff the model is
    conditional) and the unweighted mean across clients."""
    if len(outcome.models) != len(shards):
        raise ValueError(f"outcome covers {len(outcome.models)} clients, not {len(shards)}")
    accs = []
    for model, shard in zip(outcome.models, shards):
        stats = shard.stats if outcome.arch.conditional else None
        logits = forward(model, outcome.arch, shard.test.X, stats=stats)
        pred = logits.argmax(axis=1)
        accs.append(float(np.mean(pred == shard.test.y)))
    return accs, float(np.mean(accs))
