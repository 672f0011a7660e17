"""Declarative experiment configuration.

Configs are plain JSON documents; every run is fully reconstructible from the
config plus its seed. `ExperimentConfig.from_dict` validates a parsed
document and `to_dict` round-trips it (the echo embedded in reports is this
dict). `strategy_config` turns one strategy entry into its `StrategyConfig`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path
from typing import NamedTuple

from .data import (GLYPH_SHAPE, MNIST_FILES, GlyphSource, IdxError, child_seed,
                   idx_class_count, idx_image_shape)
from .heterogeneity import FAMILIES, NAMED_RULES, SPARSITY_LEVELS
from .nn import ARCHITECTURE_KINDS, backbone

DATA_ROOT_ENV = "FEDCOND_DATA_ROOT"

# the DatasetSpec fields each kind reads besides `kind`, `name` and `per_class_cap`
DATASET_KEYS = {"idx": ("root",), "glyphs": ("train_per_class", "test_per_class", "invert"),
                "synthetic": ("train_per_class", "test_per_class")}
GENERATED_FACTS = {"glyphs": (GlyphSource.class_count, GLYPH_SHAPE), "synthetic": (4, (16,))}
LR_SCHEDULES = ("constant", "cosine")


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


# declared scalar type -> (accepts, description); bools are not numbers here
_SCALAR_TYPES = {
    "int": (lambda v: isinstance(v, Integral) and not isinstance(v, bool),
            "an integer"),
    "float": (lambda v: isinstance(v, Real) and not isinstance(v, bool)
              and math.isfinite(v), "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def check_unread_keys(spec, reads: tuple[str, ...], what: str) -> None:
    """Raise ConfigError naming the fields of `spec` outside `reads` that are
    off their default (not merely present: a `to_dict` echo lists them all)."""
    default = type(spec)()
    unread = [f.name for f in fields(spec) if f.name not in reads
              and getattr(spec, f.name) != getattr(default, f.name)]
    if unread:
        raise ConfigError(f"{what} does not read keys: {unread}")


def read_json(path, what: str = "config"):
    """The JSON document in the `what` file at `path`, else ConfigError."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {str(path)!r}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigError(f"{what} {str(path)!r} is not JSON: {exc}") from None


def bounded(default, low, high=None, strict=False):
    """A dataclass field whose value must be >= `low` (> with `strict`) and,
    given `high`, < `high`; `check_field_types` checks the bound."""
    text = (f"{'>' if strict else '>='} {low}" if high is None
            else f"in {'(' if strict else '['}{low}, {high})")
    return field(default=default, metadata={"bound": (
        lambda v: (v > low if strict else v >= low) and (high is None or v < high), text)})


def one_of(default, values):
    """A dataclass field whose value must be one of `values` (a dict: one of
    its keys); `check_field_types` checks it as it checks a `bounded` range."""
    return field(default=default, metadata={"bound": (lambda v: v in values,
                                                      f"one of {list(values)}")})


def check_field_types(obj, where: str = "") -> None:
    """Raise ConfigError for a scalar dataclass field whose value does not
    have its declared type (`int`, `float`, `bool` or `str`, optionally
    `| None`; annotations are strings under `from __future__ import
    annotations`) or fails its `bounded` range or `one_of` set. Other fields
    are left to the owner's checks."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        optional = f.type.endswith(" | None")
        if optional and value is None:
            continue
        checks = (_SCALAR_TYPES.get(f.type.removesuffix(" | None"), (None, None)),
                  f.metadata.get("bound", (None, None)))
        for accepts, description in checks:  # the type first: a bound compares or hashes
            if accepts is not None and not accepts(value):
                raise ConfigError(f"{where}{f.name} must be {description}"
                                  f"{' or null' if optional else ''}, got {value!r}")


@dataclass
class DatasetSpec:
    kind: str = one_of("glyphs", DATASET_KEYS)
    name: str = "glyphs"
    root: str | None = None          # idx: directory with the four MNIST-style files
    per_class_cap: int | None = bounded(1000, 1)
    train_per_class: int = bounded(1000, 1)  # glyphs, synthetic
    test_per_class: int = bounded(200, 1)    # glyphs, synthetic
    invert: bool = False             # glyphs: inverted-contrast domain

    def resolved_root(self) -> Path:
        root = self.root or os.environ.get(DATA_ROOT_ENV)
        if root is None:
            raise ConfigError(f"dataset kind 'idx' needs a root path "
                              f"(config dataset.root or ${DATA_ROOT_ENV})")
        return Path(root)

    def validate(self):
        check_unread_keys(self, ("kind", "name", "per_class_cap", *DATASET_KEYS[self.kind]),
                          f"dataset kind {self.kind!r}")
        if self.kind == "idx":
            root = self.resolved_root()
            for fname in MNIST_FILES:
                if not (root / fname).exists():
                    raise ConfigError(f"missing dataset file: {root / fname}")

    def facts(self) -> tuple[int, tuple[int, ...]] | None:
        """(class count, input shape) of the pair this spec loads: fixed for a
        generated kind; for `idx`, from the labels files and the images
        headers, which must agree between train and test (else ConfigError),
        or None for a file that cannot be read (the dataset stage fails)."""
        if self.kind != "idx":
            return GENERATED_FACTS[self.kind]
        root = self.resolved_root()
        try:
            counts = [idx_class_count(root / MNIST_FILES[i]) for i in (1, 3)]
            shapes = [idx_image_shape(root / MNIST_FILES[i]) for i in (0, 2)]
        except IdxError:
            return None
        for what, (train, test) in (("class count", counts), ("image shape", shapes)):
            if train != test:
                raise ConfigError(f"idx files under {str(root)!r} disagree on the {what}: "
                                  f"train {train}, test {test}")
        return counts[0], shapes[0]


@dataclass
class HeterogeneitySpec:
    family: str = one_of("E1", FAMILIES)
    K: int = bounded(2, 1)
    clients_per_cluster: int = bounded(5, 1)
    sparsity: str | None = one_of(None, SPARSITY_LEVELS)  # replaces clients_per_cluster
    # the keys below are read only by the families that `FAMILIES` lists them for
    superclass: str = "parity"
    rules: list[str] = field(default_factory=lambda: ["parity", "threshold5"])
    covariate_clusters: int = 2
    dataset_b: DatasetSpec | None = None

    def validate(self):
        # a sparsity level sets the client count, so clients_per_cluster goes unread
        level = "" if self.sparsity is None else f" with sparsity {self.sparsity!r}"
        check_unread_keys(self, ("family", "sparsity" if level else "clients_per_cluster",
                                 *FAMILIES[self.family].keys), f"family {self.family!r}{level}")
        if not isinstance(self.rules, list):
            raise ConfigError(f"heterogeneity.rules must be a list of rule names, "
                              f"got {self.rules!r}")
        for rule in [*self.rules, self.superclass]:
            if not isinstance(rule, str) or rule not in NAMED_RULES:
                raise ConfigError(f"heterogeneity: unknown label rule {rule!r}; "
                                  f"known: {sorted(NAMED_RULES)}")
        if "dataset_b" in FAMILIES[self.family].keys:
            if self.dataset_b is None:
                raise ConfigError(f"family {self.family} needs heterogeneity.dataset_b")
            try:
                self.dataset_b.validate()
            except ConfigError as exc:
                raise ConfigError(f"heterogeneity.dataset_b: {exc}") from None

    def effective_clients_per_cluster(self) -> int:
        if self.sparsity is not None:
            return SPARSITY_LEVELS[self.sparsity]
        return self.clients_per_cluster

    def family_values(self) -> dict:
        """The values of the keys the family reads (`FAMILIES`)."""
        return {key: getattr(self, key) for key in FAMILIES[self.family].keys}

    def client_count(self) -> int:
        return (FAMILIES[self.family].clusters(**self.family_values())
                * self.effective_clients_per_cluster())


@dataclass
class StatsSpec:
    l: int = bounded(32, 1)


@dataclass
class TrainingSpec:
    architecture: str = one_of("mlp", ARCHITECTURE_KINDS)
    hidden_dim: int = bounded(128, 1)
    learning_rate: float = bounded(0.01, 0, strict=True)
    momentum: float = bounded(0.9, 0, 1)
    batch_size: int = bounded(64, 1)
    epochs: int = bounded(10, 1)
    lr_schedule: str = one_of("constant", LR_SCHEDULES)  # applies to all strategies


class StrategyKind(NamedTuple):
    """A strategy kind's static facts (`federation.STRATEGY_FNS` holds how it
    trains): the `StrategyConfig` fields that count its rounds and its passes
    per round (None: one pass), the other fields an entry of the kind may set
    besides `kind`, and the fewest clients it trains."""

    rounds: str
    passes: str | None = None
    reads: tuple[str, ...] = ()
    min_clients: int = 1


_PASSES = "local_epochs_per_round"
STRATEGIES = {
    "conditional": StrategyKind("epochs"),
    "local": StrategyKind("epochs"),
    "fedavg": StrategyKind("rounds", _PASSES),
    "gossip": StrategyKind("rounds", _PASSES, ("gossip_pairs_per_round",), min_clients=2),
    "oracle": StrategyKind("epochs"),
    "ifca": StrategyKind("ifca_refinement_rounds", _PASSES, ("k_hypotheses",)),
    "dac": StrategyKind("rounds", _PASSES, ("dac_temperature",), min_clients=2),
    "ditto": StrategyKind("rounds", _PASSES, ("ditto_lambda",)),
}
STRATEGY_KINDS = tuple(STRATEGIES)


@dataclass
class StrategyConfig:
    """Hyperparameters for one strategy run; `schedule` says how many rounds
    of how many passes the kind runs."""

    kind: str
    epochs: int = bounded(20, 1)
    rounds: int = bounded(20, 1)
    local_epochs_per_round: int = bounded(1, 1)
    k_hypotheses: int | None = bounded(None, 1)
    ifca_refinement_rounds: int = bounded(5, 1)
    ditto_lambda: float = bounded(1.0, 0)
    gossip_pairs_per_round: int | None = bounded(None, 0)  # None = full random matching
    dac_temperature: float = bounded(0.1, 0, strict=True)
    lr_schedule: str = one_of("constant", LR_SCHEDULES)  # cosine decays to 5% over the run

    def __post_init__(self):
        where = f"strategy {self.kind!r}: "
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"{where}unknown strategy kind {self.kind!r}")
        check_field_types(self, where)

    @property
    def schedule(self) -> tuple[int, int]:
        """(rounds, passes per round): the values of the fields the kind's
        `STRATEGIES` row names, one pass where it names none."""
        row = STRATEGIES[self.kind]
        return getattr(self, row.rounds), getattr(self, row.passes) if row.passes else 1


def strategy_config(entry: dict, training: TrainingSpec) -> StrategyConfig:
    """Per-strategy `StrategyConfig`: training-spec defaults plus overrides.

    Every federated baseline defaults to `epochs` rounds of one local epoch,
    as many passes over local data as the `epochs` epochs of `conditional`,
    `local` and `oracle`. IFCA defaults to `ifca_refinement_rounds` (5)
    rounds of round(epochs / 5) passes, at least 1: the same budget only
    where 5 * round(epochs / 5) == epochs, so at `epochs: 1` it runs 5 passes
    to the others' 1. Every strategy runs the run's
    `training.lr_schedule`. An unknown key, a key the kind does not read
    (its `STRATEGIES` row, which names `lr_schedule` for no kind), or a value
    that `StrategyConfig` rejects, raises ConfigError.
    """
    entry = dict(entry)
    kind = entry.pop("kind", None)
    bad = set(entry) - set(StrategyConfig.__dataclass_fields__)
    if bad:
        raise ConfigError(f"unknown {kind} strategy keys: {sorted(bad)}")
    defaults = dict(epochs=training.epochs, rounds=training.epochs,
                    local_epochs_per_round=1)
    cfg = StrategyConfig(kind=kind, **{**defaults, **entry,
                                       "lr_schedule": training.lr_schedule})
    row = STRATEGIES[kind]
    ignored = set(entry) - {row.rounds, row.passes, *row.reads}
    if ignored:
        raise ConfigError(f"{kind} strategy does not read keys: {sorted(ignored)}")
    if kind == "ifca" and "local_epochs_per_round" not in entry:
        cfg.local_epochs_per_round = max(1, round(training.epochs
                                                  / cfg.ifca_refinement_rounds))
    return cfg


@dataclass
class ExperimentConfig:
    name: str = "run"
    seed: int = bounded(0, 0)
    out_dir: str | None = None
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    heterogeneity: HeterogeneitySpec = field(default_factory=HeterogeneitySpec)
    stats: StatsSpec = field(default_factory=StatsSpec)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    strategies: list[dict] = field(default_factory=list)

    def validate(self):
        check_field_types(self)
        sections = {"dataset": self.dataset, "heterogeneity": self.heterogeneity,
                    "heterogeneity.dataset_b": self.heterogeneity.dataset_b,
                    "stats": self.stats, "training": self.training}
        for where, spec in sections.items():
            if spec is not None:
                check_field_types(spec, f"{where}.")
        if not self.strategies:
            raise ConfigError("strategy list is empty")
        self.dataset.validate()
        het = self.heterogeneity
        het.validate()
        # the family's and the backbone's preconditions on the data's (class
        # count, input shape), or at the dataset stage for an unreadable idx
        # file; the backbone takes the data's count, as a relabeling family
        # has checked that its rules give at least 2 labels
        facts, values = self.dataset.facts(), het.family_values()
        if "dataset_b" in values:
            values["dataset_b"] = het.dataset_b.facts()
        if facts is not None and values.get("dataset_b", facts) is not None:
            try:
                FAMILIES[het.family].check(*facts, **values)
            except ValueError as exc:
                raise ConfigError(f"family {het.family} {exc}") from None
            try:
                backbone(self.training.architecture, facts[1], facts[0],
                         self.training.hidden_dim)
            except ValueError as exc:
                raise ConfigError(f"training: {exc}") from None
        clients = het.client_count()
        for entry in self.strategies:
            kind = strategy_config(entry, self.training).kind
            least = STRATEGIES[kind].min_clients
            if clients < least:
                raise ConfigError(f"{kind} needs at least {least} clients, got {clients}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("a config must be a JSON object")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        def build(klass, sub):
            sub = {} if sub is None else sub
            if not isinstance(sub, dict):
                raise ConfigError(f"{klass.__name__} must be an object, got {sub!r}")
            bad = set(sub) - set(klass.__dataclass_fields__)
            if bad:
                raise ConfigError(f"unknown {klass.__name__} keys: {sorted(bad)}")
            return klass(**sub)

        het = build(HeterogeneitySpec, doc.get("heterogeneity"))
        if het.dataset_b is not None:
            het.dataset_b = build(DatasetSpec, het.dataset_b)

        entries = doc.get("strategies", [])
        if not (isinstance(entries, list)
                and all(isinstance(s, (str, dict)) for s in entries)):
            raise ConfigError(f"strategies must be a list of kind names or "
                              f"objects, got {entries!r}")
        strategies = [{"kind": s} if isinstance(s, str) else dict(s) for s in entries]

        cfg = cls(
            name=doc.get("name", "run"),
            seed=doc.get("seed", 0),
            out_dir=doc.get("out_dir"),
            dataset=build(DatasetSpec, doc.get("dataset")),
            heterogeneity=het,
            stats=build(StatsSpec, doc.get("stats")),
            training=build(TrainingSpec, doc.get("training")),
            strategies=strategies,
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path))


@dataclass
class SuiteConfig:
    """A Cartesian grid over a base experiment config.

    Grid keys are dotted config paths (e.g. "heterogeneity.K"). A run takes
    the `seed` the grid sets, else a distinct child seed derived from
    (seed, run_index). `runs` holds each grid point's validated config.
    """

    name: str
    seed: int = bounded(MISSING, 0)
    base: dict
    grid: dict[str, list]
    runs: list[ExperimentConfig] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        check_field_types(self, "suite ")
        if not isinstance(self.base, dict):
            raise ConfigError(f"suite base must be an object, got {self.base!r}")
        if not (isinstance(self.grid, dict)
                and all(isinstance(v, list) for v in self.grid.values())):
            raise ConfigError(f"suite grid must map config paths to lists of "
                              f"values, got {self.grid!r}")
        empty = sorted(k for k, v in self.grid.items() if not v)
        if empty:
            raise ConfigError(f"suite grid lists no values for {', '.join(empty)}; "
                              f"the suite would run nothing")
        docs = self.expand()
        names = [doc["name"] for doc in docs]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ConfigError(f"suite grid repeats run {repeated[0]!r}; every grid "
                              f"point needs its own run name and directory")
        if "seed" not in self.grid:  # the points run at child seeds; the base's is unused
            check_field_types(ExperimentConfig(seed=self.base.get("seed", 0)), "suite base ")
            for i, doc in enumerate(docs):
                doc["seed"] = child_seed(self.seed, i)
        for doc in docs:
            try:
                self.runs.append(ExperimentConfig.from_dict(doc))
            except ConfigError as exc:
                raise ConfigError(f"suite run {doc['name']!r}: {exc}") from None

    @classmethod
    def from_file(cls, path) -> "SuiteConfig":
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ConfigError("a suite config must be a JSON object")
        for key in ("base", "grid"):
            if key not in doc:
                raise ConfigError(f"suite config needs a {key!r} section")
        return cls(name=doc.get("name", "suite"), seed=doc.get("seed", 0),
                   base=doc["base"], grid=doc["grid"])

    def expand(self) -> list[dict]:
        """All grid points as full config dicts, in deterministic order. A
        grid path through a value that is not an object raises ConfigError."""
        keys = sorted(self.grid)
        combos: list[dict] = [{}]
        for k in keys:
            combos = [dict(c, **{k: v}) for c in combos for v in self.grid[k]]
        docs = []
        for combo in combos:
            doc = json.loads(json.dumps(self.base))  # deep copy
            for dotted, value in combo.items():
                node = doc
                parts = dotted.split(".")
                for i, p in enumerate(parts[:-1]):
                    node = node.setdefault(p, {})
                    if not isinstance(node, dict):
                        raise ConfigError(f"suite grid path {dotted!r} runs through "
                                          f"{'.'.join(parts[:i + 1])!r}, which is "
                                          f"{node!r}, not an object")
                node[parts[-1]] = value
            label = "_".join(f"{k.split('.')[-1]}={combo[k]}" for k in keys)
            doc["name"] = f"{self.name}_{label}" if label else self.name
            docs.append(doc)
        return docs
