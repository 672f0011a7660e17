"""Deterministic client-partition generators for the heterogeneity families:

E1   label shift (disjoint class blocks per cluster)
E2a  covariate shift via disjoint subclasses under a shared superclass task
E2b  covariate shift via right-angle image rotations
E3a  concept shift via different semantic label rules on the same inputs
E3b  concept shift via label permutations
E4a  domain shift (two datasets side by side)
E4b  concept shift stacked on covariate shift (2*C clusters)

Every generator takes (data, ..., clients_per_cluster, seed) and returns a
list of ClientShard ordered by client id. Client train shards are cut from the
dataset's official train split and test shards from the official test split,
both through the same transform, so each client is evaluated on data matching
its own distribution. Within a cluster, samples are shuffled with a child seed
derived from (seed, cluster_id) and dealt round-robin, giving equal shard
sizes up to one sample. Clusters are index arrays into the source, never
copies of it. Each split is written once: one `rows` call per source fills
one array in client order, and every shard is a read-only row slice of it,
so a pooled set of consecutive clients is a view too. A source row may be
written more than once, as E4b gives each covariate set's rows to both
concept groups.

`FAMILIES` maps each family to the `HeterogeneitySpec` keys it reads, the
generator call they feed, and the check that config validation runs on its
preconditions: one function each, which the generator calls as well.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset, DatasetPair, rotate_rows

ROTATION_ORDER = (0, 180, 90, 270)

# named sparsity levels as clients per cluster
SPARSITY_LEVELS = {
    "Rich": 5,
    "Medium": 10,
    "Sparse": 25,
    "VerySparse": 50,
    "SuperSparse": 100,
}


@dataclass
class ClientShard:
    """One client's train/test data plus its ground-truth cluster identity."""

    client_id: int
    cluster_id: int
    train: Dataset
    test: Dataset
    stats: np.ndarray | None = None
    # set only by the combined family, where the cluster id factors into axes
    concept_id: int | None = None
    covariate_id: int | None = None

    def __post_init__(self):
        if len(self.train) == 0 or len(self.test) == 0:
            raise ValueError(f"client {self.client_id}: empty shard")


@dataclass(frozen=True)
class LabelRule:
    """A relabeling rule as an explicit lookup table old_label -> new_label."""

    name: str
    table: tuple[int, ...]

    @property
    def arity(self) -> int:
        return max(self.table) + 1

    def apply(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int64)[y]


def identity_rule(class_count: int) -> LabelRule:
    return LabelRule("identity", tuple(range(class_count)))


def parity_rule(class_count: int) -> LabelRule:
    return LabelRule("parity", tuple(c % 2 for c in range(class_count)))


def antiparity_rule(class_count: int) -> LabelRule:
    """Parity with flipped labels: conflicts with parity on every class."""
    return LabelRule("antiparity", tuple(1 - c % 2 for c in range(class_count)))


def threshold_rule(class_count: int, cut: int = 5) -> LabelRule:
    return LabelRule(f"threshold{cut}", tuple(int(c >= cut) for c in range(class_count)))


def permutation_rule(perm: tuple[int, ...], name: str | None = None) -> LabelRule:
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation: {perm}")
    return LabelRule(name or f"perm{list(perm)}", tuple(perm))


NAMED_RULES = {
    "identity": identity_rule,
    "parity": parity_rule,
    "antiparity": antiparity_rule,
    "threshold5": lambda c: threshold_rule(c, 5),
}


def rule_arity(rules: list[LabelRule], count: int | None = None) -> int:
    """The output arity that `rules` share: ValueError unless there are
    `count` of them (if given), at least one, agreeing on an arity >= 2."""
    if count is not None and len(rules) != count:
        raise ValueError(f"needs exactly {count} concept rules, got {len(rules)}")
    if not rules:
        raise ValueError("needs at least one label rule")
    arities = sorted({r.arity for r in rules})
    if len(arities) != 1:
        raise ValueError(f"label rules disagree on output arity: {arities}")
    if arities[0] < 2:
        raise ValueError(f"label rules {[r.name for r in rules]} map all "
                         f"{len(rules[0].table)} classes to one label")
    return arities[0]


# --------------------------------------------------------------------------
# shared machinery
# --------------------------------------------------------------------------

def _cluster_rng(seed: int, cluster_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(cluster_id)]))


def _deal(n: int, clients: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Seeded shuffle of range(n), dealt round-robin into `clients` hands."""
    order = rng.permutation(n)
    return [order[j::clients] for j in range(clients)]


@dataclass(frozen=True)
class _Cluster:
    """One cluster as row indices into a source pair, its clients' rows
    rotated by `angle` and relabeled by `rule`."""

    source: DatasetPair
    train_idx: np.ndarray
    test_idx: np.ndarray
    rule: LabelRule | None = None
    angle: int = 0


def _assemble(clusters: list[_Cluster], clients_per_cluster: int,
              seed: int) -> list[ClientShard]:
    """Deal each cluster's rows round-robin to its clients; cluster k's
    clients get ids k*clients_per_cluster onward."""
    train_hands, test_hands = [], []
    for cid, c in enumerate(clusters):
        rng = _cluster_rng(seed, cid)
        train_hands += [c.train_idx[h] for h in _deal(len(c.train_idx), clients_per_cluster, rng)]
        test_hands += [c.test_idx[h] for h in _deal(len(c.test_idx), clients_per_cluster, rng)]
    owners = [c for c in clusters for _ in range(clients_per_cluster)]
    trains = _write_split([c.source.train for c in owners], train_hands, owners)
    tests = _write_split([c.source.test for c in owners], test_hands, owners)
    return [ClientShard(client_id=i, cluster_id=i // clients_per_cluster, train=tr, test=te)
            for i, (tr, te) in enumerate(zip(trains, tests))]


def _write_split(sources: list, hands: list[np.ndarray],
                 owners: list[_Cluster]) -> list[Dataset]:
    """One split of every client, client i holding rows `hands[i]` of
    `sources[i]`: written once, in client order, into one array that the
    returned sets are read-only row slices of. Consecutive clients that draw
    on one source are written by one `rows` call."""
    bounds = np.cumsum([0] + [len(h) for h in hands])
    X = np.empty((bounds[-1], int(np.prod(sources[0].input_shape))))
    y = np.empty(bounds[-1], dtype=np.int64)
    first = 0
    for _, run in itertools.groupby(range(len(hands)), key=lambda i: id(sources[i])):
        last = list(run)[-1] + 1
        source, order = sources[first], np.concatenate(hands[first:last])
        source.rows(order, X[bounds[first]:bounds[last]])
        y[bounds[first]:bounds[last]] = source.y[order]
        first = last
    clients = list(zip(sources, owners, bounds, bounds[1:]))
    for source, c, a, b in clients:
        if c.angle:
            X[a:b] = rotate_rows(X[a:b], source.input_shape, c.angle)
        if c.rule is not None:
            y[a:b] = c.rule.apply(y[a:b])
    X.flags.writeable = y.flags.writeable = False  # before slicing: views inherit it
    return [Dataset(X[a:b], y[a:b], c.rule.arity if c.rule else source.class_count,
                    source.input_shape) for source, c, a, b in clients]


def _seeded_split(data: DatasetPair, K: int, seed: int,
                  tag: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """A seeded random split of the train and test pools into K near-equal
    parts: (train indices, test indices) per part."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), tag]))
    train = np.array_split(rng.permutation(len(data.train)), K)
    test = np.array_split(rng.permutation(len(data.test)), K)
    return list(zip(train, test))


def _contiguous_chunks(items: list, K: int) -> list[list]:
    """`items` cut into K contiguous chunks whose sizes differ by at most
    one, the longer chunks first."""
    base, rem = divmod(len(items), K)
    bounds = [k * base + min(k, rem) for k in range(K + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _check_disjoint(sets: list[list[int]], what: str) -> None:
    """Raise ValueError naming the classes that two of `sets` share."""
    seen: set[int] = set()
    for s in sets:
        overlap = seen.intersection(s)
        if overlap:
            raise ValueError(f"{what} on classes {sorted(overlap)}")
        seen.update(s)


def class_blocks(class_count: int, K: int) -> list[list[int]]:
    """Contiguous class blocks; remainder classes go one-per-leading-cluster.

    C=10, K=3 -> [[0,1,2,3], [4,5,6], [7,8,9]].
    """
    if K > class_count:
        raise ValueError(f"needs K <= the class count {class_count}, got {K}")
    return _contiguous_chunks(list(range(class_count)), K)


def _restrict_to_classes(ds: Dataset, classes: list[int]) -> np.ndarray:
    """Row indices of `ds` whose label is in `classes`, ascending."""
    return np.flatnonzero(np.isin(ds.y, classes))


def _class_cluster(data: DatasetPair, classes: list[int],
                   rule: LabelRule | None = None) -> _Cluster:
    return _Cluster(data, _restrict_to_classes(data.train, classes),
                    _restrict_to_classes(data.test, classes), rule)


# --------------------------------------------------------------------------
# partition generators
# --------------------------------------------------------------------------

def partition_label_shift(data: DatasetPair, K: int, clients_per_cluster: int,
                          seed: int) -> list[ClientShard]:
    """E1: cluster k gets the k-th contiguous block of classes."""
    blocks = class_blocks(data.train.class_count, K)
    return _assemble([_class_cluster(data, b) for b in blocks], clients_per_cluster, seed)


def partition_covariate_subclass(data: DatasetPair, superclass: LabelRule,
                                 subclass_sets: list[list[int]],
                                 clients_per_cluster: int, seed: int) -> list[ClientShard]:
    """E2a: every cluster predicts the shared superclass labels but only sees
    its own disjoint set of original subclasses."""
    rule_arity([superclass])
    _check_disjoint(subclass_sets, "subclass assignment overlaps")
    clusters = [_class_cluster(data, classes, superclass) for classes in subclass_sets]
    return _assemble(clusters, clients_per_cluster, seed)


def rotation_angles(K: int, input_shape: tuple[int, ...]) -> tuple[int, ...]:
    """The rotations of E2b's K clusters of images of `input_shape`."""
    if K > len(ROTATION_ORDER):
        raise ValueError(f"needs K <= {len(ROTATION_ORDER)}, one rotation per cluster, got {K}")
    if len(input_shape) != 2:
        raise ValueError(f"needs 2-D images to rotate, got input_shape {tuple(input_shape)}")
    return ROTATION_ORDER[:K]


def partition_covariate_rotation(data: DatasetPair, K: int, clients_per_cluster: int,
                                 seed: int) -> list[ClientShard]:
    """E2b: cluster k sees images rotated by [0, 180, 90, 270][k]."""
    angles = rotation_angles(K, data.train.input_shape)
    # cluster membership: random equal split of the pool across clusters
    clusters = [_Cluster(data, train, test, angle=angle) for (train, test), angle
                in zip(_seeded_split(data, K, seed, 0xE2B), angles)]
    return _assemble(clusters, clients_per_cluster, seed)


def partition_concept_semantic(data: DatasetPair, rules: list[LabelRule],
                               clients_per_cluster: int, seed: int) -> list[ClientShard]:
    """E3a: each cluster sees the full input distribution but relabels it with
    its own semantic rule; all rules must share the output arity."""
    rule_arity(rules)
    clusters = [_Cluster(data, train, test, rule) for (train, test), rule
                in zip(_seeded_split(data, len(rules), seed, 0xE3A), rules)]
    return _assemble(clusters, clients_per_cluster, seed)


def check_derangements(class_count: int, count: int) -> None:
    """Raise ValueError unless `count` (E3b's K - 1) pairwise-distinct
    derangements of `class_count` classes exist: there are !C of them, by
    !n = n * !(n - 1) + (-1)**n from !0 = 1."""
    available = 1
    for n in range(1, class_count + 1):
        available = n * available + (-1) ** n
    if not 0 <= count <= available:
        raise ValueError(f"needs K - 1 in [0, {available}], the number of derangements "
                         f"of {class_count} classes, got {count}")


def sample_derangements(class_count: int, count: int, seed: int) -> list[LabelRule]:
    """Seeded pairwise-distinct derangements of {0..C-1} (no fixed points)."""
    check_derangements(class_count, count)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xE3B]))
    rules: list[LabelRule] = []
    seen = set()
    guard = 0
    while len(rules) < count:
        guard += 1
        if guard > 10000 * max(count, 1):
            raise RuntimeError("failed to sample enough distinct derangements")
        perm = tuple(int(v) for v in rng.permutation(class_count))
        if any(p == i for i, p in enumerate(perm)) or perm in seen:
            continue
        seen.add(perm)
        rules.append(permutation_rule(perm, name=f"derangement{len(rules)}"))
    return rules


def partition_concept_permutation(data: DatasetPair, K: int, clients_per_cluster: int,
                                  seed: int) -> list[ClientShard]:
    """E3b: cluster 0 keeps identity labels; clusters 1..K-1 apply seeded,
    pairwise-distinct derangements of the label set."""
    C = data.train.class_count
    rules = [identity_rule(C)] + sample_derangements(C, K - 1, seed)
    return partition_concept_semantic(data, rules, clients_per_cluster, seed)


def check_same_space(a: tuple[int, tuple], b: tuple[int, tuple]) -> None:
    """Raise ValueError unless E4a's datasets agree on (class count, input shape)."""
    if (a[0], tuple(a[1])) != (b[0], tuple(b[1])):
        raise ValueError(f"needs domain-shift datasets that share class_count and "
                         f"input_shape, got {a} and {b}")


def partition_domain_shift(data_a: DatasetPair, data_b: DatasetPair,
                           clients_per_cluster: int, seed: int) -> list[ClientShard]:
    """E4a: cluster 0 is dataset A, cluster 1 is dataset B; labels untouched."""
    check_same_space(*((d.train.class_count, d.train.input_shape) for d in (data_a, data_b)))
    clusters = [_Cluster(d, np.arange(len(d.train)), np.arange(len(d.test)))
                for d in (data_a, data_b)]
    return _assemble(clusters, clients_per_cluster, seed)


def partition_combined(data: DatasetPair, concept_rules: list[LabelRule],
                       covariate_sets: list[list[int]], clients_per_cluster: int,
                       seed: int) -> list[ClientShard]:
    """E4b: 2 concept groups x C covariate clusters = 2C clusters.

    Cluster id is concept_index * C + covariate_index; both axes are also
    recorded separately on the shards for clustering diagnostics.
    """
    rule_arity(concept_rules, count=2)
    _check_disjoint(covariate_sets, "covariate sets overlap")
    C = len(covariate_sets)
    clusters = [_class_cluster(data, classes, rule)
                for rule in concept_rules for classes in covariate_sets]
    shards = _assemble(clusters, clients_per_cluster, seed)
    for s in shards:
        s.concept_id, s.covariate_id = divmod(s.cluster_id, C)
    return shards


def paired_covariate_sets(class_count: int, C: int) -> list[list[int]]:
    """Digit-pair covariate sets {d, C-1-d} grouped into C clusters.

    Each pair mixes one low/high and one even/odd class, so parity and
    threshold concept rules stay non-constant inside every covariate cluster.
    """
    if class_count % 2:
        raise ValueError(f"needs an even class count, got {class_count}")
    pairs = [(d, class_count - 1 - d) for d in range(class_count // 2)]
    if not 2 <= C <= len(pairs):
        bound = ">= 2," if C < 2 else f"<= {len(pairs)}, half the class count,"
        raise ValueError(f"needs covariate_clusters {bound} got {C}")
    return [sorted(v for p in chunk for v in p) for chunk in _contiguous_chunks(pairs, C)]


class Family(NamedTuple):
    """The `HeterogeneitySpec` keys a family reads besides `clients_per_cluster`
    and `sparsity`; `partition(data, clients_per_cluster, seed, **values)`
    given their values (rule names; `dataset_b` as its loaded pair);
    `check(classes, shape, **values)`, which raises the ValueError the
    partition would on data of that class count and input shape (as which
    `dataset_b` comes too); and `clusters(**values)`, the cluster count."""

    keys: tuple[str, ...]
    partition: Callable[..., list[ClientShard]]
    check: Callable[..., object]
    clusters: Callable[..., int] = lambda K, **_: K


def _rules(names: list[str], class_count: int) -> list[LabelRule]:
    return [NAMED_RULES[name](class_count) for name in names]


# a check of two preconditions makes both calls in one tuple display
FAMILIES = {
    "E1": Family(("K",), lambda d, cpc, seed, K: partition_label_shift(d, K, cpc, seed),
                 lambda classes, shape, K: class_blocks(classes, K)),
    "E2a": Family(("K", "superclass"), lambda d, cpc, seed, K, superclass:
                  partition_covariate_subclass(d, *_rules([superclass], d.train.class_count),
                                               class_blocks(d.train.class_count, K), cpc, seed),
                  lambda classes, shape, K, superclass: (
                      class_blocks(classes, K), rule_arity(_rules([superclass], classes)))),
    "E2b": Family(("K",), lambda d, cpc, seed, K: partition_covariate_rotation(d, K, cpc, seed),
                  lambda classes, shape, K: rotation_angles(K, shape)),
    "E3a": Family(("rules",), lambda d, cpc, seed, rules:
                  partition_concept_semantic(d, _rules(rules, d.train.class_count), cpc, seed),
                  lambda classes, shape, rules: rule_arity(_rules(rules, classes)),
                  clusters=lambda rules: len(rules)),
    "E3b": Family(("K",), lambda d, cpc, seed, K: partition_concept_permutation(d, K, cpc, seed),
                  lambda classes, shape, K: check_derangements(classes, K - 1)),
    "E4a": Family(("dataset_b",), lambda d, cpc, seed, dataset_b:
                  partition_domain_shift(d, dataset_b, cpc, seed),
                  lambda classes, shape, dataset_b: check_same_space((classes, shape), dataset_b),
                  clusters=lambda dataset_b: 2),
    "E4b": Family(("rules", "covariate_clusters"), lambda d, cpc, seed, rules, covariate_clusters:
                  partition_combined(d, _rules(rules, d.train.class_count), paired_covariate_sets(
                      d.train.class_count, covariate_clusters), cpc, seed),
                  lambda classes, shape, rules, covariate_clusters: (
                      paired_covariate_sets(classes, covariate_clusters),
                      rule_arity(_rules(rules, classes), count=2)),
                  clusters=lambda rules, covariate_clusters: 2 * covariate_clusters),
}
