"""Experiment orchestration: config -> partition -> fingerprints -> strategies
-> evaluation -> report files.

Stages are wrapped so any failure surfaces as a StageError naming the stage.
A run writes its files only once it has finished, and a failure while writing
them leaves none behind. Suites expand a config grid, run each point at the
seed the grid sets or else at a distinct child seed, and record per-run
failures without aborting the remaining runs.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import (GENERATED_FACTS, DatasetSpec, ExperimentConfig, StrategyConfig,
                     SuiteConfig, strategy_config)
from .data import (Dataset, DatasetPair, GaussianClusterSpec, child_seed, glyph_pair,
                   load_mnist_like, subsample_per_class, synth_clusters)
from .federation import OptimizerState, TrainedOutcome, evaluate, run_strategy
from .heterogeneity import FAMILIES, ClientShard
from .metrics import compute_ari
from .nn import Architecture, backbone
from .report import (PROVENANCE, RunReport, StrategyResult, aggregate_reports,
                     build_identifier, emit_report, thread_env)
from .stats import fingerprint_all


class StageError(RuntimeError):
    """An experiment stage failed; the stage name is part of the message."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str, timings: dict[str, float] | None = None):
    """Run one stage: a failure becomes a StageError naming it, and its wall
    seconds are added to `timings[name]` when `timings` is given."""
    start = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    finally:
        if timings is not None:
            timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


# --------------------------------------------------------------------------
# dataset / partition construction
# --------------------------------------------------------------------------

def load_dataset_pair(spec: DatasetSpec, seed: int) -> DatasetPair:
    cap_seeds = (child_seed(seed, 0xCA9, 0), child_seed(seed, 0xCA9, 1))
    if spec.kind == "idx":
        # capped while the pixels are still bytes: only kept rows become float64
        return load_mnist_like(spec.resolved_root(), per_class_cap=spec.per_class_cap,
                               seeds=cap_seeds)
    if spec.kind == "glyphs":
        pair = glyph_pair(spec.train_per_class, spec.test_per_class,
                          child_seed(seed, 0xDA7A), invert=spec.invert)
    else:  # synthetic; the config's `kind` is one of `DATASET_KEYS`
        pair = _synthetic_blob_pair(spec, seed)
    if spec.per_class_cap is not None:
        pair = DatasetPair(
            train=subsample_per_class(pair.train, spec.per_class_cap, cap_seeds[0]),
            test=subsample_per_class(pair.test, spec.per_class_cap, cap_seeds[1]),
        )
    return pair


def _synthetic_blob_pair(spec: DatasetSpec, seed: int) -> DatasetPair:
    """Small Gaussian-blob classification task, one blob per class."""
    classes, (dim,) = GENERATED_FACTS["synthetic"]
    rng = np.random.default_rng(child_seed(seed, 0xB70B))
    means = rng.uniform(-1.5, 1.5, size=(classes, dim))
    specs = [GaussianClusterSpec(tuple(means[c]), 0.25, lambda x, c=c: c)
             for c in range(classes)]

    def make(n, s):
        ds, _ = synth_clusters(specs, n, s, class_count=classes)
        return ds

    return DatasetPair(train=make(spec.train_per_class, child_seed(seed, 0xB70B, 0)),
                       test=make(spec.test_per_class, child_seed(seed, 0xB70B, 1)))


def build_partition(config: ExperimentConfig,
                    pair: DatasetPair) -> list[ClientShard]:
    """The client shards of `pair` under the config's family: the family's
    `FAMILIES` call with the spec keys it reads, `dataset_b` loaded first."""
    het = config.heterogeneity
    values = het.family_values()
    if "dataset_b" in values:
        values["dataset_b"] = load_dataset_pair(het.dataset_b,
                                                child_seed(config.seed, 0xB))
    return FAMILIES[het.family].partition(pair, het.effective_clients_per_cluster(),
                                          config.seed, **values)


def build_architectures(config: ExperimentConfig,
                        shards: list[ClientShard]) -> Architecture:
    """The backbone for the partition's label space, which every strategy
    gets; a conditional strategy widens it by the fingerprint length."""
    train = shards[0].train
    return backbone(config.training.architecture, train.input_shape, train.class_count,
                    config.training.hidden_dim)


def _fingerprinted_shards(config: ExperimentConfig, timings: dict | None = None
                          ) -> tuple[list[ClientShard], np.ndarray]:
    """The dataset, partition and fingerprint stages: the client shards, each
    with its standardized fingerprint set, and those fingerprints' rows."""
    with _stage("dataset", timings):
        pair = load_dataset_pair(config.dataset, config.seed)
    with _stage("partition", timings):
        shards = build_partition(config, pair)
        del pair  # the shards hold their rows in their own arrays; nothing reads the source
    with _stage("fingerprint", timings):
        fingerprints = fingerprint_all(shards, l=config.stats.l)
    return shards, fingerprints


# --------------------------------------------------------------------------
# single run
# --------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig, out_dir=None) -> RunReport:
    """Run one experiment and write its four files (`emit_report`) to
    `out_dir` (default: the config's, else runs/<name>)."""
    t0 = time.time()
    config.validate()
    out = Path(out_dir or config.out_dir or Path("runs") / config.name)
    timings: dict[str, float] = {}
    shards, fingerprints = _fingerprinted_shards(config, timings)
    with _stage("partition", timings):  # report.json keeps its stage names
        arch = build_architectures(config, shards)
    opt = OptimizerState(config.training.learning_rate, config.training.momentum,
                         config.training.batch_size)
    true_ids = [s.cluster_id for s in shards]
    results: list[StrategyResult] = []
    for entry in config.strategies:
        cfg = strategy_config(entry, config.training)
        with _stage(f"train:{cfg.kind}", timings):
            outcome = run_strategy(shards, arch, opt, cfg, config.seed)
        with _stage(f"evaluate:{cfg.kind}", timings):
            accs, mean_acc = evaluate(outcome, shards)
        results.append(_strategy_result(outcome, cfg, accs, mean_acc, true_ids))
    report = RunReport(
        run_id=config.name,
        config=config.to_dict(),
        provenance=dict(PROVENANCE, lr_schedule=config.training.lr_schedule,
                        thread_env=thread_env()),
        dataset=config.dataset.name,
        family=config.heterogeneity.family,
        cluster_count=len(set(true_ids)),
        sparsity=config.heterogeneity.sparsity,
        client_ids=[s.client_id for s in shards],
        true_clusters=[int(c) for c in true_ids],
        fingerprints=[[float(v) for v in row] for row in fingerprints],
        results=results,
        wall_clock_sec=time.time() - t0,
        build=build_identifier(),
        timings=timings,
    )
    with _stage("report"):
        emit_report(report, out)
    return report


def _strategy_result(outcome: TrainedOutcome, cfg: StrategyConfig, accs, mean_acc,
                     true_ids) -> StrategyResult:
    ari = None
    if outcome.assignments is not None and len(true_ids) > 1:  # ARI compares pairs of clients
        ari = compute_ari(true_ids, outcome.assignments)
    return StrategyResult(
        strategy=outcome.strategy,
        per_client_accuracy=accs,
        mean_accuracy=mean_acc,
        ari=ari,
        assignments=outcome.assignments,
        schedule=list(cfg.schedule),
        train_log=outcome.log,
    )


def fingerprint_only(config: ExperimentConfig, out_dir=None) -> Path:
    """Partition and fingerprint, then write fingerprints.json (stats only).

    Each client's `fingerprint` is its standardized conditioning vector, as in
    `report.json`, not its raw eigenvalues.
    """
    config.validate()
    out = Path(out_dir or config.out_dir or Path("runs") / config.name)
    shards, fingerprints = _fingerprinted_shards(config)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "fingerprints.json"
    doc = {
        "run_id": config.name,
        "l": config.stats.l,
        "clients": [
            {"client_id": int(s.client_id), "cluster_id": int(s.cluster_id),
             "fingerprint": [float(v) for v in row]}
            for s, row in zip(shards, fingerprints)
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return path


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------

def run_suite(suite: SuiteConfig, out_root, threads: int = 1) -> dict:
    """Run every grid point (`suite.runs`, each at its own seed) in its own
    output directory.

    Individual failures are recorded and do not abort the suite; the returned
    summary lists per-run status.
    """
    out_root = Path(out_root)
    runs = list(enumerate(suite.runs))

    def one(item):
        i, cfg = item
        run_dir = out_root / "runs" / cfg.name
        try:
            report = run_experiment(cfg, out_dir=run_dir)
            return {"index": i, "run_id": cfg.name, "seed": cfg.seed,
                    "status": "ok", "dir": str(run_dir),
                    "report": str(run_dir / "report.json"),
                    "mean_accuracy": {r.strategy: r.mean_accuracy
                                      for r in report.results}}
        except Exception as exc:
            return {"index": i, "run_id": cfg.name, "seed": cfg.seed,
                    "status": "error", "dir": str(run_dir), "error": str(exc)}

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            statuses = list(pool.map(one, runs))
    else:
        statuses = [one(item) for item in runs]

    out_root.mkdir(parents=True, exist_ok=True)
    summary = {"suite": suite.name, "seed": suite.seed, "runs": statuses,
               "failed": sum(1 for s in statuses if s["status"] != "ok")}
    with open(out_root / "suite.json", "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    ok_reports = [Path(s["report"]) for s in statuses if s["status"] == "ok"]
    if ok_reports:
        aggregate_reports(ok_reports, out_root / "suite_summary.csv")
    return summary


def reaggregate(directory, out_path=None) -> Path:
    """Rebuild the aggregate summary CSV from report.json files under `directory`."""
    directory = Path(directory)
    reports = sorted(directory.rglob("report.json"))
    if not reports:
        raise FileNotFoundError(f"no report.json files under {directory}")
    return aggregate_reports(reports, Path(out_path or directory / "suite_summary.csv"))
