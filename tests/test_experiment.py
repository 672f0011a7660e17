"""Harness tests: config validation, report emission, determinism, suites,
and the command-line interface."""

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fedcond import experiment
from fedcond.config import (STRATEGY_KINDS, ConfigError, DatasetSpec, ExperimentConfig,
                            StrategyConfig, SuiteConfig)
from fedcond.data import (MNIST_FILES, Dataset, glyph_pair, load_mnist_like,
                          subsample_per_class, write_idx)
from fedcond.experiment import (StageError, build_architectures, build_partition,
                                fingerprint_only,
                                load_dataset_pair, reaggregate, run_experiment,
                                run_suite)
from fedcond.federation import child_seed
from fedcond.heterogeneity import FAMILIES, NAMED_RULES
from fedcond.nn import ARCHITECTURE_KINDS
from fedcond.report import (THREAD_ENV_VARS, RunReport, build_identifier, emit_report,
                            thread_env)

# the CLI subprocesses import fedcond from this checkout, never from site-packages
SRC = str(Path(__file__).resolve().parents[1] / "src")
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))

TINY = {
    "name": "tiny",
    "seed": 3,
    "dataset": {"kind": "glyphs", "name": "glyphs", "train_per_class": 40,
                 "test_per_class": 10, "per_class_cap": None},
    "heterogeneity": {"family": "E1", "K": 2, "clients_per_cluster": 2},
    "stats": {"l": 8},
    "training": {"architecture": "mlp", "hidden_dim": 16, "epochs": 2},
    "strategies": ["local", "fedavg", "oracle", "conditional"],
}


def tiny_config(**overrides):
    doc = json.loads(json.dumps(TINY))
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    report = run_experiment(tiny_config(), out_dir=out)
    return report, out


# --------------------------------------------------------------------- config

def test_empty_strategy_list_rejected_before_compute():
    with pytest.raises(ConfigError, match="strategy list is empty"):
        tiny_config(strategies=[])


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        tiny_config(bogus=1)


def test_unknown_strategy_kind_rejected():
    with pytest.raises(ConfigError, match="unknown strategy kind"):
        tiny_config(strategies=["frobnicate"])


def test_missing_idx_files_rejected_at_validation(tmp_path):
    doc = json.loads(json.dumps(TINY))
    doc["dataset"] = {"kind": "idx", "name": "mnist", "root": str(tmp_path)}
    with pytest.raises(ConfigError, match="missing dataset file"):
        ExperimentConfig.from_dict(doc)


# per family, a value other than the default for every key that `FAMILIES`
# lists for it; E4a has no default `dataset_b`, so its configs always set one.
# The rules share their arity, 2, at any class count from 2 up.
CHANGED_KEYS = {
    "E1": {"K": 3},
    "E2a": {"K": 3, "superclass": "antiparity"},
    "E2b": {"K": 4},
    "E3a": {"rules": ["antiparity", "parity"]},
    "E3b": {"K": 3},
    "E4a": {"dataset_b": dict(TINY["dataset"], invert=True)},
    "E4b": {"rules": ["antiparity", "parity"], "covariate_clusters": 3},
}
DATASETS = {
    "glyphs": TINY["dataset"],
    "synthetic": {"kind": "synthetic", "name": "blobs", "train_per_class": 12,
                  "test_per_class": 4, "per_class_cap": None},
    "idx": {"kind": "idx", "name": "mnist", "per_class_cap": 20},
}


def family_config(family, **keys):
    """TINY under `family`, with the heterogeneity keys given."""
    het = dict(family=family, clients_per_cluster=2, **keys)
    if family == "E4a":
        het.setdefault("dataset_b", TINY["dataset"])
    return tiny_config(heterogeneity=het)


@pytest.mark.parametrize("kind, family", [
    (kind, family) for kind in sorted(DATASETS) for family in sorted(FAMILIES)
    if (kind, family) != ("synthetic", "E2b")])  # flat data has nothing to rotate
def test_config_round_trips_through_dict(tmp_path, family, kind):
    """Every family's and every dataset kind's `to_dict` echo, which lists
    the keys they do not read at their defaults, loads again."""
    for fname in MNIST_FILES:
        (tmp_path / fname).touch()
    dataset = dict(DATASETS[kind], **({"root": str(tmp_path)} if kind == "idx" else {}))
    keys = CHANGED_KEYS[family]
    if (family, kind) == ("E4b", "synthetic"):  # 4 classes make at most 2 covariate clusters
        keys = dict(keys, covariate_clusters=2)
    doc = family_config(family, **keys).to_dict()
    if family == "E4a":  # the second domain shares the first's classes and shape
        doc["heterogeneity"]["dataset_b"] = dataset
    cfg = ExperimentConfig.from_dict(dict(doc, dataset=dataset))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def shard_signature(shards):
    return [(s.cluster_id, s.train.y.tobytes(), s.train.X.tobytes(),
             s.test.y.tobytes(), s.test.X.tobytes()) for s in shards]


@pytest.mark.parametrize("family, key", [(f, k) for f, family in FAMILIES.items()
                                         for k in family.keys])
def test_every_key_a_family_reads_changes_its_partition(family, key):
    """A key that `FAMILIES` lists for a family is one its build reads: giving
    it another valid value changes the shards' cluster ids, labels or rows."""
    base = family_config(family)
    changed = family_config(family, **{key: CHANGED_KEYS[family][key]})
    shards = [build_partition(cfg, load_dataset_pair(cfg.dataset, cfg.seed))
              for cfg in (base, changed)]
    assert shard_signature(shards[0]) != shard_signature(shards[1])


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("changed", [False, True])
def test_client_count_is_the_partitions_shard_count(family, changed):
    """`HeterogeneitySpec.client_count`, which config validation reads, is
    the number of shards the family's partition makes."""
    cfg = family_config(family, **(CHANGED_KEYS[family] if changed else {}))
    shards = build_partition(cfg, load_dataset_pair(cfg.dataset, cfg.seed))
    assert len(shards) == cfg.heterogeneity.client_count()


# small datasets of each generated kind, and a value strategy for every
# heterogeneity key, from boundary values to ones a family rejects
SMALL_DATASETS = [DATASETS["synthetic"], dict(TINY["dataset"], train_per_class=12, test_per_class=4),
                  dict(TINY["dataset"], train_per_class=12, test_per_class=4, invert=True)]
KEY_VALUES = {
    "K": st.integers(1, 11),
    "superclass": st.sampled_from(sorted(NAMED_RULES)),
    "rules": st.lists(st.sampled_from(sorted(NAMED_RULES)), max_size=3),
    "covariate_clusters": st.integers(0, 6),
    "dataset_b": st.sampled_from(SMALL_DATASETS),
}


@st.composite
def heterogeneity_documents(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    het = {"family": family, "clients_per_cluster": 1,
           **{key: draw(KEY_VALUES[key]) for key in FAMILIES[family].keys}}
    training = dict(TINY["training"], architecture=draw(st.sampled_from(ARCHITECTURE_KINDS)))
    return dict(json.loads(json.dumps(TINY)), dataset=draw(st.sampled_from(SMALL_DATASETS)),
                heterogeneity=het, training=training, strategies=["local"])


@settings(max_examples=60, deadline=None)
@given(doc=heterogeneity_documents())
def test_heterogeneity_documents_are_rejected_at_load_or_partition(doc):
    """Every family on every generated kind, with any values of the keys it
    reads, is a ConfigError at load or cuts `client_count()` shards that its
    backbone takes."""
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except ConfigError:
        event("rejected")
        return
    event("partitioned")
    shards = build_partition(cfg, load_dataset_pair(cfg.dataset, cfg.seed))
    assert len(shards) == cfg.heterogeneity.client_count()
    build_architectures(cfg, shards)


def test_rule_arities_are_checked_with_the_idx_class_count(tmp_path):
    """For `idx` data the rules' arities follow from the class count in the
    train labels file; an unreadable labels file leaves the check to the
    dataset stage."""
    source = glyph_pair(3, 2, seed=1)
    for split, (images, labels) in zip((source.train, source.test),
                                       (MNIST_FILES[:2], MNIST_FILES[2:])):
        write_idx(split.dataset(), tmp_path / images, tmp_path / labels)
    doc = json.loads(json.dumps(TINY))
    doc["dataset"] = {"kind": "idx", "name": "mnist", "root": str(tmp_path)}
    doc["heterogeneity"] = {"family": "E3a", "rules": ["identity", "parity"]}
    with pytest.raises(ConfigError, match=r"output arity: \[2, 10\]"):
        ExperimentConfig.from_dict(doc)
    (tmp_path / MNIST_FILES[1]).write_bytes(b"")
    ExperimentConfig.from_dict(doc)


def test_family_and_backbone_checks_read_the_idx_facts(tmp_path):
    """For `idx` data the family and backbone checks read the class count
    from the train labels and the image shape from the train images header:
    nine 14x14 classes are an odd count for E4b and no input for mnist_cnn."""
    source = glyph_pair(3, 2, seed=1)
    for split, (images, labels) in zip((source.train, source.test),
                                       (MNIST_FILES[:2], MNIST_FILES[2:])):
        ds = split.dataset()
        keep = ds.y < 9
        small = Dataset(ds.X[keep].reshape(-1, 28, 28)[:, ::2, ::2].reshape(-1, 196),
                        ds.y[keep], 9, (14, 14))
        write_idx(small, tmp_path / images, tmp_path / labels)
    doc = json.loads(json.dumps(TINY))
    doc["dataset"] = {"kind": "idx", "name": "mnist", "root": str(tmp_path)}
    doc["heterogeneity"] = {"family": "E4b", "rules": ["parity", "antiparity"]}
    with pytest.raises(ConfigError, match="family E4b needs an even class count, got 9"):
        ExperimentConfig.from_dict(doc)
    doc["heterogeneity"] = {"family": "E2b", "K": 4}
    ExperimentConfig.from_dict(doc)
    doc["training"] = dict(doc["training"], architecture="mnist_cnn")
    with pytest.raises(ConfigError, match=r"mnist_cnn expects input_shape \(1, 28, 28\)"):
        ExperimentConfig.from_dict(doc)


def test_sparsity_level_overrides_clients_per_cluster():
    doc = json.loads(json.dumps(TINY))
    del doc["heterogeneity"]["clients_per_cluster"]
    doc["heterogeneity"]["sparsity"] = "Medium"
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.heterogeneity.effective_clients_per_cluster() == 10


# -------------------------------------------------------------------- reports

def test_report_files_and_row_counts(tiny_run):
    report, out = tiny_run
    assert (out / "report.json").exists()
    assert (out / "train_log.jsonl").exists()
    with open(out / "detail.csv") as f:
        rows = list(csv.DictReader(f))
    # 4 strategies x 4 clients
    assert len(rows) == 16
    assert list(rows[0]) == ["run_id", "family", "dataset", "K", "sparsity",
                             "strategy", "client_id", "cluster_id", "test_accuracy"]


def test_summary_means_match_detail_rows(tiny_run):
    report, out = tiny_run
    with open(out / "detail.csv") as f:
        detail = list(csv.DictReader(f))
    with open(out / "summary.csv") as f:
        summary = {r["strategy"]: float(r["mean_accuracy"])
                   for r in csv.DictReader(f)}
    for strategy, mean in summary.items():
        accs = [float(r["test_accuracy"]) for r in detail
                if r["strategy"] == strategy]
        assert abs(mean - sum(accs) / len(accs)) < 1e-12


def test_report_json_round_trip(tiny_run):
    report, out = tiny_run
    parsed = RunReport.from_file(out / "report.json")
    assert parsed == report


def test_train_log_is_json_lines(tiny_run):
    report, out = tiny_run
    with open(out / "train_log.jsonl") as f:
        records = [json.loads(line) for line in f]
    assert records, "no training records written"
    assert all({"round", "strategy", "mean_train_loss"} <= set(r) for r in records)
    assert records == [r for res in report.results for r in res.train_log]


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_emit_report_failure_leaves_none_of_the_four_files(tiny_run, tmp_path,
                                                           monkeypatch, exc):
    report, _ = tiny_run
    out = tmp_path / "out"
    logs = []

    def fail(self):  # report.json follows train_log.jsonl, the first file
        logs.append((out / "train_log.jsonl").read_text())
        raise exc("stop")

    monkeypatch.setattr(RunReport, "to_dict", fail)
    with pytest.raises(exc):
        emit_report(report, out)
    assert [log.count("\n") for log in logs] == [sum(len(r.train_log)
                                                    for r in report.results)]
    assert list(out.iterdir()) == []


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_build_identifier_ignores_the_working_directory(tmp_path, monkeypatch):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], check=True)
    other = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                           capture_output=True, text=True).stdout.strip()
    before = build_identifier()
    monkeypatch.chdir(tmp_path)
    assert build_identifier() == before != f"git:{other}"


def test_report_echoes_config_and_decisions(tiny_run):
    report, _ = tiny_run
    assert report.config["seed"] == 3
    assert "pixel_scaling" in report.provenance
    assert "pca_centering" in report.provenance
    assert report.provenance["eval_weighting"].startswith("unweighted")


def test_report_records_blas_thread_env(tiny_run, monkeypatch):
    _, out = tiny_run
    doc = json.loads((out / "report.json").read_text())
    assert doc["provenance"]["thread_env"] == {
        name: os.environ.get(name) for name in THREAD_ENV_VARS}
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert thread_env() == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None,
                            "MKL_NUM_THREADS": None}


def test_report_records_stage_timings(tiny_run):
    report, out = tiny_run
    doc = json.loads((out / "report.json").read_text())
    kinds = ["local", "fedavg", "oracle", "conditional"]
    expected = {"dataset", "partition", "fingerprint",
                *(f"train:{k}" for k in kinds), *(f"evaluate:{k}" for k in kinds)}
    assert set(doc["timings"]) == expected
    assert all(isinstance(v, float) and v >= 0.0 for v in doc["timings"].values())
    assert report.timings == doc["timings"]



def test_report_records_each_strategys_schedule(tmp_path):
    """`[rounds, passes]` per strategy as its own settings give it: IFCA
    spends `epochs: 10` as 5 rounds of 2 passes, an `epochs` override sets
    Conditional's rounds, and the schedule stays out of the CSVs."""
    doc = dict(json.loads(json.dumps(SYNTH_TINY)),
               strategies=["ifca", {"kind": "conditional", "epochs": 60}, "fedavg"])
    doc["training"]["epochs"] = 10
    run_experiment(ExperimentConfig.from_dict(doc), out_dir=tmp_path)
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert [(r["strategy"], r["schedule"]) for r in results] == [
        ("ifca", [5, 2]), ("conditional", [60, 1]), ("fedavg", [10, 1])]
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert header == "strategy,mean_accuracy,ari"
    assert RunReport.from_file(tmp_path / "report.json").results[0].schedule == [5, 2]

def test_source_pair_is_released_before_training(monkeypatch, tmp_path):
    import weakref

    from fedcond import experiment

    refs, alive_at_train = [], []
    load, run = experiment.load_dataset_pair, experiment.run_strategy

    def spy_load(*args, **kwargs):
        pair = load(*args, **kwargs)
        refs.append(weakref.ref(pair))
        return pair

    def spy_run(*args, **kwargs):
        if not alive_at_train:
            alive_at_train.append(refs[0]() is not None)
        return run(*args, **kwargs)

    monkeypatch.setattr(experiment, "load_dataset_pair", spy_load)
    monkeypatch.setattr(experiment, "run_strategy", spy_run)
    run_experiment(tiny_config(), out_dir=tmp_path)
    assert len(refs) == 1
    assert alive_at_train == [False]


def test_pooled_run_holds_the_client_rows_once(tmp_path):
    """A glyph E1 run of conditional and Oracle, traced from its first
    allocation, peaks under its shards' bytes plus an allowance for the rest:
    the largest client's fingerprint workspace (three copies of its rows
    with their one-hot labels) and 1 MiB of model state, batches and
    activations. Neither the source split nor a pooled copy lives beside the
    shards."""
    config = tiny_config(
        dataset={"kind": "glyphs", "train_per_class": 200, "test_per_class": 50,
                 "per_class_cap": None},
        heterogeneity={"family": "E1", "K": 2, "clients_per_cluster": 5},
        training={"architecture": "mlp", "hidden_dim": 16, "epochs": 1},
        strategies=["conditional", "oracle"])
    shards = build_partition(config, load_dataset_pair(config.dataset, config.seed))
    shard_bytes = sum(d.X.nbytes + d.y.nbytes for s in shards for d in (s.train, s.test))
    workspace = 3 * max(len(s.train) for s in shards) * (shards[0].train.X.shape[1] + 10) * 8
    del shards
    tracemalloc.start()
    try:
        run_experiment(config, out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= shard_bytes + workspace + 2**20, (peak / 2**20, shard_bytes / 2**20)


def test_a_cap_that_keeps_every_row_copies_nothing():
    """The default cap of 1000 per class keeps every row of a 300/100 glyph
    pair: the capped pair holds the same rows as the uncapped one, and
    loading it allocates no more."""
    pairs, peaks = {}, {}
    load_dataset_pair(DatasetSpec(kind="glyphs", train_per_class=1, test_per_class=1),
                      seed=4)  # first-call allocations
    for cap in (1000, None):
        spec = DatasetSpec(kind="glyphs", train_per_class=300, test_per_class=100,
                           per_class_cap=cap)
        tracemalloc.start()
        try:
            pairs[cap] = load_dataset_pair(spec, seed=4)
            peaks[cap] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1000] <= peaks[None] + 2**20, peaks
    for split in ("train", "test"):
        got, want = (getattr(pairs[cap], split).dataset() for cap in (1000, None))
        assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)


def test_idx_cap_converts_only_the_kept_rows(tmp_path):
    """An IDX pair capped per class equals the whole pair converted, then
    subsampled with the same seeds, and peaks near the bytes it keeps."""
    source = glyph_pair(400, 100, seed=5)
    for split, (images, labels) in zip((source.train, source.test),
                                       (MNIST_FILES[:2], MNIST_FILES[2:])):
        write_idx(split.dataset(), tmp_path / images, tmp_path / labels)
    spec = DatasetSpec(kind="idx", name="idx", root=str(tmp_path), per_class_cap=50)
    tracemalloc.start()
    try:
        got = load_dataset_pair(spec, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    full = load_mnist_like(tmp_path)
    for i, (split, ds) in enumerate(zip((full.train, full.test), (got.train, got.test))):
        want = subsample_per_class(split, 50, child_seed(3, 0xCA9, i))
        assert np.array_equal(ds.X, want.X)
        assert np.array_equal(np.signbit(ds.X), np.signbit(want.X))
        assert np.array_equal(ds.y, want.y)
        assert (ds.class_count, ds.input_shape) == (want.class_count, want.input_shape)
    kept = sum(ds.X.nbytes + ds.y.nbytes for ds in (got.train, got.test))
    assert len(got.train) == len(got.test) == 500
    assert peak <= 1.5 * kept


def test_fingerprints_serialized_per_client(tiny_run):
    report, _ = tiny_run
    assert len(report.fingerprints) == 4
    assert all(len(fp) == 8 for fp in report.fingerprints)


# ---------------------------------------------------------------- determinism

def test_rerun_same_config_seed_byte_identical_summary(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_experiment(tiny_config(), out_dir=a)
    run_experiment(tiny_config(), out_dir=b)
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "detail.csv").read_bytes() == (b / "detail.csv").read_bytes()


# Every baseline over six rounds with a cosine schedule, so Gossip, DAC and
# IFCA mix more than once (the benchmark workloads run a single round).
MULTI_ROUND = {
    "name": "multi-round",
    "seed": 0,
    "dataset": {"kind": "glyphs", "name": "glyphs", "train_per_class": 40,
                "test_per_class": 12, "per_class_cap": None},
    "heterogeneity": {"family": "E1", "K": 2, "clients_per_cluster": 3},
    "stats": {"l": 8},
    "training": {"architecture": "mlp", "hidden_dim": 32, "epochs": 6,
                 "learning_rate": 0.05, "batch_size": 16, "lr_schedule": "cosine"},
    "strategies": ["conditional", "local", "fedavg", "gossip", "oracle", "ifca",
                   "dac", "ditto",
                   {"kind": "gossip", "gossip_pairs_per_round": 1},
                   {"kind": "ifca", "k_hypotheses": 3, "ifca_refinement_rounds": 3},
                   {"kind": "ditto", "ditto_lambda": 0.0}],
}

# sha256 of the run's CSVs and train log (Oracle's records carry their
# cluster ids), recorded with numpy 2.4 and OpenBLAS 0.3.31 on
# x86-64; a BLAS with a different summation order can change the last bits of
# training and so these digests.
MULTI_ROUND_SHA256 = {
    "summary.csv": "d3e3ef73969ea9a3e58748ed1e61614405b735cd7edf96f0343df12fb4e6c9ea",
    "detail.csv": "413cf3d1e04a3170aa7197da80373cd45045f84a276193844c5af8f01978f6c1",
    "train_log.jsonl": "8591f152db37bac4bfa8b97699b2370d0641f5b05798d76abd7a50460d49e134",
}


def test_multi_round_run_matches_pinned_digests(tmp_path):
    run_experiment(ExperimentConfig.from_dict(MULTI_ROUND), out_dir=tmp_path)
    for name, digest in MULTI_ROUND_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# A CNN run small enough for tier-1. Batch size 7 over client shards of 15
# and a pooled set of 60 gives minibatches of 7, 4 and 1 samples; at size 1
# the conv GEMMs are small enough for OpenBLAS kernels whose rounding depends
# on operand memory order. The train log's losses carry full float64
# precision, so it moves on any last-bit change in a gradient.
CNN_RUN = {
    "name": "cnn-pin",
    "seed": 0,
    "dataset": {"kind": "glyphs", "name": "glyphs", "train_per_class": 6,
                "test_per_class": 4, "per_class_cap": None},
    "heterogeneity": {"family": "E2b", "K": 2, "clients_per_cluster": 2},
    "stats": {"l": 8},
    "training": {"architecture": "mnist_cnn", "hidden_dim": 16, "epochs": 2,
                 "batch_size": 7},
    "strategies": ["conditional", "fedavg", "ditto"],
}

# Recorded like MULTI_ROUND_SHA256, with one BLAS thread: OpenBLAS rounds
# some conv weight-gradient GEMMs differently at different thread counts,
# which moves the train log's last bits (the CSVs agree at 1 and 2 threads).
CNN_RUN_SHA256 = {
    "summary.csv": "9d61b2ac8c9fe5ca0c65290d4e6572976f0cd0be66d236414ee3c67f0d0d3433",
    "detail.csv": "0bba12d01f158a26957622529fd8e4dda5d949554ae44d8d1f13c48a10a54d6d",
    "train_log.jsonl": "2b564d98a21f8f07451a44cba767b97cb4b8662957cc340c05f6c4adbada120e",
}
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def test_cnn_run_matches_pinned_digests(tmp_path):
    cfg = ExperimentConfig.from_dict(CNN_RUN)
    shards = build_partition(cfg, load_dataset_pair(cfg.dataset, cfg.seed))
    batch = cfg.training.batch_size
    pools = [len(s.train) for s in shards] + [sum(len(s.train) for s in shards)]
    sizes = {min(batch, n - start) for n in pools for start in range(0, n, batch)}
    assert 1 in sizes and any(s % 2 and s > 1 for s in sizes), sizes
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CNN_RUN))
    r = subprocess.run([sys.executable, "-m", "fedcond.cli", "run", str(cfg_path),
                        "--out", str(tmp_path / "out")], capture_output=True,
                       text=True, env=dict(CLI_ENV, **ONE_BLAS_THREAD))
    assert r.returncode == 0, r.stderr
    for name, digest in CNN_RUN_SHA256.items():
        got = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        assert got == digest, name


def test_rerun_from_embedded_report_config_reproduces_accuracies(tiny_run, tmp_path):
    report, _ = tiny_run
    cfg = ExperimentConfig.from_dict(report.config)
    again = run_experiment(cfg, out_dir=tmp_path / "again")
    for r1, r2 in zip(report.results, again.results):
        assert r1.per_client_accuracy == r2.per_client_accuracy
        assert r1.mean_accuracy == r2.mean_accuracy


# --------------------------------------------------------------------- stages

def test_stage_error_names_failing_stage(tmp_path):
    doc = json.loads(json.dumps(TINY))
    # 100 clients per cluster, more than a cluster of TINY has test rows
    doc["heterogeneity"] = {"family": "E1", "K": 2, "sparsity": "SuperSparse"}
    cfg = ExperimentConfig.from_dict(doc)
    with pytest.raises(StageError, match=r"\[partition\] client \d+: empty shard"):
        run_experiment(cfg, out_dir=tmp_path)
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.json*"))


def test_fingerprint_only_writes_stats_bundle(tmp_path):
    path = fingerprint_only(tiny_config(), out_dir=tmp_path)
    doc = json.loads(path.read_text())
    assert len(doc["clients"]) == 4
    assert all(len(c["fingerprint"]) == 8 for c in doc["clients"])


# --------------------------------------------------------------------- suites

def suite_doc(grid):
    return {"name": "s", "seed": 5, "base": json.loads(json.dumps(TINY)),
            "grid": grid}


def failing_suite_doc(sparsity):
    """A suite over `heterogeneity.sparsity` on TINY. Its SuperSparse point
    loads, then fails at [partition]: 100 clients per cluster are more than a
    cluster has test rows, so a client's shard is empty."""
    doc = suite_doc({"heterogeneity.sparsity": sparsity})
    doc["base"]["heterogeneity"] = {"family": "E1", "K": 2}
    return doc


def test_child_seeds_pairwise_distinct():
    seeds = [child_seed(5, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert seeds == [child_seed(5, i) for i in range(1000)]


def test_suite_of_one_matches_run_experiment(tmp_path):
    doc = suite_doc({"heterogeneity.K": [2]})
    suite = SuiteConfig(name=doc["name"], seed=doc["seed"], base=doc["base"],
                        grid=doc["grid"])
    summary = run_suite(suite, out_root=tmp_path)
    assert summary["failed"] == 0
    (run_status,) = summary["runs"]
    cfg = ExperimentConfig.from_dict(
        dict(doc["base"], name=run_status["run_id"], seed=run_status["seed"]))
    direct = run_experiment(cfg, out_dir=tmp_path / "direct")
    assert run_status["mean_accuracy"] == {
        r.strategy: r.mean_accuracy for r in direct.results}


def test_suite_runs_the_configs_it_validated(tmp_path, monkeypatch):
    """`SuiteConfig` builds each grid point once, at its child seed, and
    `run_suite` runs those configs without parsing any document again."""
    doc = suite_doc({"heterogeneity.K": [2, 3]})
    suite = SuiteConfig(name=doc["name"], seed=doc["seed"], base=doc["base"],
                        grid=doc["grid"])
    assert [(c.name, c.seed, c.heterogeneity.K) for c in suite.runs] == [
        ("s_K=2", child_seed(5, 0), 2), ("s_K=3", child_seed(5, 1), 3)]
    ran = []

    def record(cfg, out_dir):
        ran.append(cfg)
        raise RuntimeError("not trained")

    monkeypatch.setattr(experiment, "run_experiment", record)
    monkeypatch.setattr(ExperimentConfig, "from_dict", None)
    summary = run_suite(suite, out_root=tmp_path)
    assert len(ran) == 2 and all(a is b for a, b in zip(ran, suite.runs))
    assert [(s["run_id"], s["seed"], s["error"]) for s in summary["runs"]] == [
        (c.name, c.seed, "not trained") for c in suite.runs]


def test_suite_runs_the_seed_its_grid_sets(tmp_path):
    doc = suite_doc({"seed": [7]})
    suite = SuiteConfig(name=doc["name"], seed=doc["seed"], base=doc["base"],
                        grid=doc["grid"])
    summary = run_suite(suite, out_root=tmp_path)
    assert summary["failed"] == 0
    (run_status,) = summary["runs"]
    assert (run_status["run_id"], run_status["seed"]) == ("s_seed=7", 7)
    cfg = ExperimentConfig.from_dict(
        dict(doc["base"], name=run_status["run_id"], seed=7))
    direct = run_experiment(cfg, out_dir=tmp_path / "direct")
    assert run_status["mean_accuracy"] == {
        r.strategy: r.mean_accuracy for r in direct.results}
    for name in ("summary.csv", "detail.csv", "train_log.jsonl"):
        assert (Path(run_status["dir"]) / name).read_bytes() == \
               (tmp_path / "direct" / name).read_bytes()


@pytest.fixture(scope="module")
def serial_suite(tmp_path_factory):
    """A three-point suite run serially; its SuperSparse point fails."""
    doc = failing_suite_doc(["Rich", "Medium", "SuperSparse"])
    suite = SuiteConfig(name=doc["name"], seed=doc["seed"], base=doc["base"],
                        grid=doc["grid"])
    out = tmp_path_factory.mktemp("serial_suite")
    return suite, run_suite(suite, out_root=out), out


def test_suite_on_two_threads_matches_serial(serial_suite, tmp_path):
    suite, serial, serial_out = serial_suite
    threaded = run_suite(suite, out_root=tmp_path, threads=2)
    assert [s["run_id"] for s in threaded["runs"]] == \
           [d["name"] for d in suite.expand()] == \
           [s["run_id"] for s in serial["runs"]]
    assert [s["status"] for s in threaded["runs"]] == ["ok", "ok", "error"]
    assert (tmp_path / "suite_summary.csv").read_bytes() == \
           (serial_out / "suite_summary.csv").read_bytes()
    for status in serial["runs"][:2]:
        run_dir = Path("runs") / status["run_id"]
        for name in ("summary.csv", "detail.csv", "train_log.jsonl"):
            assert (tmp_path / run_dir / name).read_bytes() == \
                   (serial_out / run_dir / name).read_bytes()


def test_cli_report_rebuilds_suite_summary_byte_for_byte(serial_suite, tmp_path):
    _, _, serial_out = serial_suite
    rebuilt = tmp_path / "rebuilt.csv"
    r = run_cli("report", str(serial_out), "--out", str(rebuilt))
    assert r.returncode == 0, r.stderr
    assert rebuilt.read_bytes() == (serial_out / "suite_summary.csv").read_bytes()


def test_suite_failure_isolation(tmp_path):
    suite_cfg = failing_suite_doc(["Rich", "SuperSparse"])
    suite = SuiteConfig(name="s", seed=5, base=suite_cfg["base"],
                        grid=suite_cfg["grid"])
    summary = run_suite(suite, out_root=tmp_path)
    statuses = {s["run_id"]: s["status"] for s in summary["runs"]}
    assert summary["failed"] == 1
    assert sorted(statuses.values()) == ["error", "ok"]
    assert "[partition]" in summary["runs"][1]["error"]
    assert (tmp_path / "suite_summary.csv").exists()


def test_suite_grid_expansion_is_cartesian_and_deterministic():
    suite = SuiteConfig(name="s", seed=0, base=json.loads(json.dumps(TINY)),
                        grid={"heterogeneity.K": [2, 5],
                              "training.epochs": [1, 2]})
    docs = suite.expand()
    pairs = [(d["heterogeneity"]["K"], d["training"]["epochs"]) for d in docs]
    assert sorted(pairs) == [(2, 1), (2, 2), (5, 1), (5, 2)]
    names = [d["name"] for d in docs]
    assert len(names) == 4 and len(set(names)) == 4
    assert suite.expand() == docs


def test_reaggregate_rebuilds_summary(tmp_path):
    run_experiment(tiny_config(), out_dir=tmp_path / "r1")
    out = reaggregate(tmp_path)
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4  # one per strategy


# ------------------------------------------------------------------------ cli

def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "fedcond.cli", *args],
                          capture_output=True, text=True, env=CLI_ENV)


def test_cli_run_and_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    r1 = run_cli("run", str(cfg_path), "--out", str(tmp_path / "o1"))
    assert r1.returncode == 0, r1.stderr
    assert "conditional" in r1.stdout
    r2 = run_cli("run", str(cfg_path), "--out", str(tmp_path / "o2"))
    assert (tmp_path / "o1" / "summary.csv").read_bytes() == \
           (tmp_path / "o2" / "summary.csv").read_bytes()


def test_cli_seed_override_changes_results(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    run_cli("run", str(cfg_path), "--out", str(tmp_path / "o1"))
    r = run_cli("run", str(cfg_path), "--out", str(tmp_path / "o3"), "--seed", "99")
    assert r.returncode == 0
    assert (tmp_path / "o1" / "summary.csv").read_text() != \
           (tmp_path / "o3" / "summary.csv").read_text()


def test_cli_rejects_bad_config(tmp_path):
    cfg_path = tmp_path / "bad.json"
    doc = json.loads(json.dumps(TINY))
    doc["strategies"] = []
    cfg_path.write_text(json.dumps(doc))
    r = run_cli("run", str(cfg_path))
    assert r.returncode == 2
    assert "strategy list is empty" in r.stderr


@pytest.mark.parametrize("override, message", [
    ({"strategies": [{"kind": "local", "epochs": 0}]}, "epochs must be"),
    ({"strategies": [{"kind": "ifca", "ifca_refinement_rounds": 0}]},
     "ifca_refinement_rounds must be"),
    ({"strategies": [{"kind": "fedavg", "bogus": 1}]},
     "unknown fedavg strategy keys: ['bogus']"),
    ({"strategies": [{"kind": "ditto", "local_epochs_per_round": 0}]},
     "local_epochs_per_round must be"),
    ({"strategies": [{"kind": "fedavg", "epochs": 50}]},
     "fedavg strategy does not read keys: ['epochs']"),
    ({"strategies": [{"kind": "local", "rounds": 50}]},
     "local strategy does not read keys: ['rounds']"),
    ({"strategies": [{"kind": "ifca", "rounds": 9}]},
     "ifca strategy does not read keys: ['rounds']"),
    ({"strategies": [{"kind": "fedavg", "k_hypotheses": 3}]},
     "fedavg strategy does not read keys: ['k_hypotheses']"),
    ({"strategies": [{"kind": "fedavg", "lr_schedule": "cosine"}]},
     "fedavg strategy does not read keys: ['lr_schedule']"),
    ({"stats": {"method": "dense"}}, "unknown StatsSpec keys: ['method']"),
    ({"stats": {"extractor": "identity"}}, "unknown StatsSpec keys: ['extractor']"),
    ({"training": {"epochs": "3"}}, "training.epochs must be an integer, got '3'"),
    ({"stats": {"l": "8"}}, "stats.l must be an integer, got '8'"),
    ({"heterogeneity": {"K": "2"}}, "heterogeneity.K must be an integer, got '2'"),
    ({"dataset": {"per_class_cap": "x"}},
     "dataset.per_class_cap must be an integer or null, got 'x'"),
    ({"strategies": [5]}, "strategies must be a list of kind names or objects"),
    ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"training": {"batch_size": 2.5}}, "training.batch_size must be an integer"),
    ({"training": {"momentum": "0.9"}}, "training.momentum must be a finite number"),
    ({"training": {"learning_rate": -1}}, "training.learning_rate must be > 0"),
    ({"training": {"momentum": 1.0}}, "training.momentum must be in [0, 1)"),
    ({"strategies": [{"kind": "ditto", "ditto_lambda": "1"}]},
     "ditto_lambda must be a finite number"),
    ({"heterogeneity": {"K": 0}}, "heterogeneity.K must be >= 1, got 0"),
    ({"heterogeneity": {"family": "E3a", "rules": ["parity", "bogus"]}},
     "heterogeneity: unknown label rule 'bogus'"),
    ({"heterogeneity": {"family": "E2a", "superclass": "bogus"}},
     "heterogeneity: unknown label rule 'bogus'"),
    ({"heterogeneity": {"family": "E4b", "covariate_clusters": 1}},
     "family E4b needs covariate_clusters >= 2, got 1"),
    ({"heterogeneity": {"family": "E2a", "subclass_sets": [[0, 1], [12]]}},
     "unknown HeterogeneitySpec keys: ['subclass_sets']"),
    ({"heterogeneity": {"family": "E4b", "covariate_sets": [[0, 9], [0, 8]]}},
     "unknown HeterogeneitySpec keys: ['covariate_sets']"),
    ({"dataset": {"train_per_class": 0}}, "train_per_class must be >= 1, got 0"),
    ({"dataset": {"train_per_class": -3}}, "train_per_class must be >= 1, got -3"),
    ({"dataset": {"kind": "synthetic", "test_per_class": 0}},
     "test_per_class must be >= 1, got 0"),
    ({"heterogeneity": {"family": "E4a", "dataset_b": {"test_per_class": 0}}},
     "test_per_class must be >= 1, got 0"),
    ({"heterogeneity": {"family": "E3a", "K": 7}}, "family 'E3a' does not read keys: ['K']"),
    ({"heterogeneity": {"family": "E4b", "K": 7}}, "family 'E4b' does not read keys: ['K']"),
    ({"heterogeneity": {"family": "E1", "rules": ["parity", "antiparity"]}},
     "family 'E1' does not read keys: ['rules']"),
    ({"heterogeneity": {"family": "E1", "superclass": "threshold5"}},
     "family 'E1' does not read keys: ['superclass']"),
    ({"heterogeneity": {"family": "E1", "covariate_clusters": 3}},
     "family 'E1' does not read keys: ['covariate_clusters']"),
    ({"heterogeneity": {"family": "E1", "dataset_b": TINY["dataset"]}},
     "family 'E1' does not read keys: ['dataset_b']"),
    ({"dataset": dict(TINY["dataset"], root="mnist")},
     "dataset kind 'glyphs' does not read keys: ['root']"),
    ({"dataset": {"kind": "synthetic", "invert": True}},
     "dataset kind 'synthetic' does not read keys: ['invert']"),
    ({"heterogeneity": {"family": "E3a", "rules": "parity"}},
     "heterogeneity.rules must be a list of rule names, got 'parity'"),
    ({"heterogeneity": {"family": "E1", "clients_per_cluster": 3, "sparsity": "Rich"}},
     "family 'E1' with sparsity 'Rich' does not read keys: ['clients_per_cluster']"),
    ({"heterogeneity": {"family": "E4a", "dataset_b": {"kind": "glyphs", "root": "x"}}},
     "heterogeneity.dataset_b: dataset kind 'glyphs' does not read keys: ['root']"),
    ({"heterogeneity": {"family": "E1", "K": 1, "clients_per_cluster": 1},
      "strategies": ["local", "gossip"]}, "gossip needs at least 2 clients, got 1"),
    ({"heterogeneity": {"family": "E3a", "rules": ["parity"], "clients_per_cluster": 1},
      "strategies": ["dac"]}, "dac needs at least 2 clients, got 1"),
    ({"heterogeneity": {"family": "E3a", "rules": ["identity", "parity"]}},
     "label rules disagree on output arity: [2, 10]"),
    ({"heterogeneity": {"family": "E4b", "rules": ["identity", "parity"]}},
     "label rules disagree on output arity: [2, 10]"),
    ({"dataset": {"kind": "synthetic", "per_class_cap": None},
      "heterogeneity": {"family": "E3a", "rules": ["parity", "identity"]}},
     "label rules disagree on output arity: [2, 4]"),
    ({"heterogeneity": {"family": "E2b", "K": 5}},
     "family E2b needs K <= 4, one rotation per cluster, got 5"),
    ({"heterogeneity": {"family": "E1", "K": 11}},
     "family E1 needs K <= the class count 10, got 11"),
    ({"dataset": {"kind": "synthetic", "per_class_cap": None},
      "heterogeneity": {"family": "E2a", "K": 5}},
     "family E2a needs K <= the class count 4, got 5"),
    ({"heterogeneity": {"family": "E4b", "covariate_clusters": 20}},
     "family E4b needs covariate_clusters <= 5, half the class count, got 20"),
    ({"dataset": {"kind": "synthetic"}, "heterogeneity": {"family": "E2b", "K": 2}},
     "family E2b needs 2-D images to rotate, got input_shape (16,)"),
    ({"heterogeneity": {"family": "E4a", "dataset_b": {"kind": "synthetic"}}},
     "family E4a needs domain-shift datasets that share class_count and input_shape, "
     "got (10, (28, 28)) and (4, (16,))"),
    ({"dataset": {"kind": "synthetic"}, "heterogeneity": {"family": "E3b", "K": 30}},
     "family E3b needs K - 1 in [0, 9], the number of derangements of 4 classes, got 29"),
    ({"dataset": {"kind": "synthetic"},
      "heterogeneity": {"family": "E3a", "rules": ["threshold5"]}},
     "family E3a label rules ['threshold5'] map all 4 classes to one label"),
    ({"dataset": {"kind": "synthetic"}, "training": {"architecture": "mnist_cnn"}},
     "training: mnist_cnn expects input_shape (1, 28, 28)"),
    ({"heterogeneity": {"family": "E3a", "rules": []}},
     "family E3a needs at least one label rule"),
    ({"training": {"architecture": "resnet"}},
     "training.architecture must be one of ['mlp', 'mnist_cnn'], got 'resnet'"),
    ({"training": {"lr_schedule": "step"}},
     "training.lr_schedule must be one of ['constant', 'cosine'], got 'step'"),
    ({"dataset": {"kind": "png"}},
     "dataset.kind must be one of ['idx', 'glyphs', 'synthetic'], got 'png'"),
    ({"heterogeneity": {"family": "E4a", "dataset_b": {"kind": "png"}}},
     "heterogeneity.dataset_b.kind must be one of ['idx', 'glyphs', 'synthetic'], "
     "got 'png'"),
    ({"heterogeneity": {"family": "E5"}},
     "heterogeneity.family must be one of ['E1', 'E2a', 'E2b', 'E3a', 'E3b', 'E4a', "
     "'E4b'], got 'E5'"),
    ({"heterogeneity": {"family": "E1", "sparsity": "Dense"}},
     "heterogeneity.sparsity must be one of ['Rich', 'Medium', 'Sparse', 'VerySparse', "
     "'SuperSparse'] or null, got 'Dense'"),
], ids=["local-epochs-0", "ifca-refinement-0", "unknown-strategy-key",
        "ditto-local-epochs-0", "fedavg-epochs-ignored", "local-rounds-ignored",
        "ifca-rounds-ignored", "fedavg-k-ignored", "fedavg-lr-schedule",
        "stats-method", "stats-extractor", "epochs-str", "l-str", "K-str",
        "cap-str", "strategy-int", "seed-str", "seed-bool", "seed-negative",
        "batch-size-float",
        "momentum-str", "lr-negative", "momentum-1", "ditto-lambda-str", "K-0", "rule-unknown",
        "superclass-unknown", "covariate-clusters-1", "subclass-sets",
        "covariate-sets", "train-per-class-0", "train-per-class-negative",
        "synthetic-test-per-class-0", "dataset-b-test-per-class-0", "E3a-K",
        "E4b-K", "E1-rules", "E1-superclass", "E1-covariate-clusters",
        "E1-dataset-b", "glyphs-root", "synthetic-invert", "rules-str",
        "sparsity-with-clients-per-cluster", "dataset-b-glyphs-root", "gossip-one-client",
        "dac-one-client", "E3a-arity", "E4b-arity", "synthetic-E3a-arity", "E2b-K-5",
        "E1-K-11", "synthetic-E2a-K-5", "E4b-covariate-clusters-20", "synthetic-E2b",
        "E4a-synthetic-dataset-b", "synthetic-E3b-K-30", "synthetic-E3a-threshold5",
        "synthetic-mnist-cnn", "E3a-no-rules", "architecture-unknown",
        "lr-schedule-unknown", "dataset-kind-unknown", "dataset-b-kind-unknown",
        "family-unknown", "sparsity-unknown"])
def test_cli_rejects_bad_override_before_training(tmp_path, override, message):
    doc = json.loads(json.dumps(TINY))
    doc.update(override)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    r = run_cli("run", str(cfg_path), "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert message in r.stderr
    assert "Traceback" not in r.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


SYNTH_TINY = {
    "name": "synth-tiny",
    "dataset": {"kind": "synthetic", "name": "blobs", "train_per_class": 12,
                "test_per_class": 4, "per_class_cap": None},
    "heterogeneity": {"family": "E1", "K": 2, "clients_per_cluster": 2},
    "stats": {"l": 4},
    "training": {"architecture": "mlp", "hidden_dim": 8, "epochs": 2,
                 "batch_size": 8},
}

# valid, boundary and wrong-typed values, kept small so every run is cheap
OVERRIDE_VALUES = st.sampled_from([
    0, 1, 2, -1, 0.0, 1e-3, 0.5, 2.5, 1e6, True, None, "2", "constant",
    "cosine", float("nan"), float("inf"), [1]])
OVERRIDE_KEYS = st.sampled_from(
    sorted(set(StrategyConfig.__dataclass_fields__) - {"kind"}) + ["bogus"])


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(STRATEGY_KINDS),
       overrides=st.dictionaries(OVERRIDE_KEYS, OVERRIDE_VALUES, max_size=4))
def test_strategy_overrides_are_rejected_or_run_with_finite_losses(kind, overrides):
    doc = dict(json.loads(json.dumps(SYNTH_TINY)),
               strategies=[dict(overrides, kind=kind)])
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except ConfigError:
        event("rejected")
        return
    event("ran")
    with tempfile.TemporaryDirectory() as out:
        report = run_experiment(cfg, out_dir=out)
        with open(Path(out) / "train_log.jsonl") as f:
            losses = [json.loads(line)["mean_train_loss"] for line in f]
    assert losses and all(math.isfinite(x) for x in losses)
    assert math.isfinite(report.results[0].mean_accuracy)


@pytest.mark.parametrize("command", ["run", "suite", "fingerprint"])
@pytest.mark.parametrize("text", ["", "{"], ids=["empty", "truncated"])
def test_cli_rejects_a_config_file_that_is_not_json(tmp_path, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    r = run_cli(command, str(path), "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert f"config {str(path)!r} is not JSON" in r.stderr
    assert "Traceback" not in r.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


@pytest.mark.parametrize("what, message", [
    ("class count", "disagree on the class count: train 9, test 10"),
    ("image shape", "disagree on the image shape: train (28, 28), test (14, 14)"),
])
def test_cli_rejects_idx_splits_that_disagree(tmp_path, what, message):
    """Train labels of classes 0-8 beside test labels of 0-9, or 28x28 train
    images beside 14x14 test images, are rejected at load: both files are read
    for the facts the checks use, and the message names both values."""
    root = tmp_path / "idx"
    root.mkdir()
    source = glyph_pair(3, 2, seed=1)
    for split, (images, labels) in zip((source.train, source.test),
                                       (MNIST_FILES[:2], MNIST_FILES[2:])):
        ds = split.dataset()
        if split is source.train and what == "class count":
            keep = ds.y < 9
            ds = Dataset(ds.X[keep], ds.y[keep], 9, ds.input_shape)
        if split is source.test and what == "image shape":
            ds = Dataset(ds.X.reshape(-1, 28, 28)[:, ::2, ::2].reshape(-1, 196), ds.y,
                         ds.class_count, (14, 14))
        write_idx(ds, root / images, root / labels)
    doc = dict(json.loads(json.dumps(TINY)),
               dataset={"kind": "idx", "name": "mnist", "root": str(root)})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    r = run_cli("run", str(cfg_path), "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert f"idx files under {str(root)!r} {message}" in r.stderr
    assert "Traceback" not in r.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "idx"]


def test_cli_suite_exit_code_reflects_failures(tmp_path):
    doc = failing_suite_doc(["Rich", "SuperSparse"])
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    r = run_cli("suite", str(path), "--out", str(tmp_path / "suite_out"))
    assert r.returncode == 1
    assert "1 failed" in r.stdout


@pytest.mark.parametrize("override, message", [
    ({"grid": {"heterogeneity.K": 5}},
     "suite grid must map config paths to lists of values, got {'heterogeneity.K': 5}"),
    ({"grid": [1]}, "suite grid must map config paths to lists of values, got [1]"),
    ({"grid": {"heterogeneity.sparsity": "Rich"}},
     "suite grid must map config paths to lists of values, "
     "got {'heterogeneity.sparsity': 'Rich'}"),
    ({"seed": "3"}, "seed must be an integer, got '3'"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": -3}, "suite seed must be >= 0, got -3"),
    ({"grid": {"seed": [-1]}}, "suite run 's_seed=-1': seed must be >= 0, got -1"),
    ({"base": dict(TINY, seed=-1)}, "suite base seed must be >= 0, got -1"),
    ({"base": [1]}, "suite base must be an object, got [1]"),
    (5, "a suite config must be a JSON object"),
    ({"grid": {"heterogeneity.K": [], "training.epochs": [1]}},
     "suite grid lists no values for heterogeneity.K; the suite would run nothing"),
    ({"grid": {"heterogeneity.K": [2, 2]}}, "suite grid repeats run 's_K=2'"),
    ({"grid": {"heterogeneity.K": [3, "3"], "training.epochs": [1]}},
     "suite grid repeats run 's_K=3_epochs=1'"),
    ({"base": {"heterogeneity": 3}},
     "suite grid path 'heterogeneity.K' runs through 'heterogeneity', which is 3, "
     "not an object"),
    ({"base": {"heterogeneity": {"K": 2}}, "grid": {"heterogeneity.K.x": [2]}},
     "suite grid path 'heterogeneity.K.x' runs through 'heterogeneity.K', which is 2, "
     "not an object"),
    ({"grid": {"training.epoch": [1, 2]}},
     "suite run 's_epoch=1': unknown TrainingSpec keys: ['epoch']"),
    ({"base": dict(TINY, heterogeneity={"family": "E3a"}),
      "grid": {"heterogeneity.K": [2, 3]}},
     "suite run 's_K=3': family 'E3a' does not read keys: ['K']"),
], ids=["grid-scalar", "grid-list", "grid-string", "seed-str", "seed-bool",
        "seed-negative", "grid-seed-negative", "base-seed-negative", "base-list", "document-number", "grid-empty-list", "grid-repeated-value",
        "grid-same-label", "grid-path-through-number",
        "grid-path-through-nested-number", "grid-key-names-no-field",
        "grid-key-family-does-not-read"])
def test_cli_suite_rejects_malformed_document(tmp_path, override, message):
    # a dict is merged into a valid suite document; anything else replaces it
    doc = (dict(suite_doc({"heterogeneity.K": [2]}), **override)
           if isinstance(override, dict) else override)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    r = run_cli("suite", str(path), "--out", str(tmp_path / "suite_out"))
    assert r.returncode == 2, r.stderr
    assert message in r.stderr
    assert "Traceback" not in r.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["suite.json"]


def test_cli_suite_rejects_seed_override_of_a_grid_that_lists_seeds(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite_doc({"seed": [7]})))
    r = run_cli("suite", str(path), "--seed", "3", "--out", str(tmp_path / "suite_out"))
    assert r.returncode == 2, r.stderr
    assert "a grid that lists seeds does not use" in r.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["suite.json"]


@pytest.mark.parametrize("command", ["run", "suite", "fingerprint"])
def test_cli_rejects_a_negative_seed_flag(tmp_path, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(suite_doc({"heterogeneity.K": [2]}) if command == "suite"
                               else TINY))
    r = run_cli(command, str(path), "--seed", "-1", "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert "seed must be >= 0, got -1" in r.stderr
    assert "Traceback" not in r.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_runs_one_client_and_reports_no_ari(tmp_path):
    """Every kind that takes one client runs on one; IFCA keeps its
    assignment and reports no ARI, which needs a pair of clients."""
    doc = dict(json.loads(json.dumps(TINY)),
               heterogeneity={"family": "E1", "K": 1, "clients_per_cluster": 1},
               strategies=["conditional", "local", "fedavg", "oracle", "ifca", "ditto"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    r = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert r.returncode == 0, r.stderr
    report = RunReport.from_file(tmp_path / "out" / "report.json")
    ifca = next(res for res in report.results if res.strategy == "ifca")
    assert ifca.ari is None and len(ifca.assignments) == 1
    with open(tmp_path / "out" / "summary.csv") as f:
        assert [row["ari"] for row in csv.DictReader(f)] == [""] * 6


def test_cli_fingerprint_subcommand(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    r = run_cli("fingerprint", str(cfg_path), "--out", str(tmp_path / "fp"))
    assert r.returncode == 0
    assert (tmp_path / "fp" / "fingerprints.json").exists()


def test_cli_report_subcommand(tmp_path):
    run_experiment(tiny_config(), out_dir=tmp_path / "r1")
    r = run_cli("report", str(tmp_path))
    assert r.returncode == 0
    assert (tmp_path / "suite_summary.csv").exists()


@pytest.mark.parametrize("text, message", [
    ("{", "is not JSON"),
    (json.dumps({"run_id": "r"}), "is not a run report: KeyError('results')"),
    (json.dumps([1, 2]), "is not a run report: TypeError"),
], ids=["not-json", "no-results", "list"])
def test_cli_report_rejects_a_file_that_is_not_a_report(tmp_path, text, message):
    path = tmp_path / "r1" / "report.json"
    path.parent.mkdir()
    path.write_text(text)
    r = run_cli("report", str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert f"report {str(path)!r} {message}" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "suite_summary.csv").exists()


@pytest.mark.parametrize("command, flag", [("run", "--threads"), ("fingerprint", "--threads"),
                                           ("fingerprint", "--format"), ("run", "--format"),
                                           ("suite", "--format")])
def test_cli_rejects_options_the_command_ignores(tmp_path, command, flag):
    """`--threads` parallelizes the runs of a suite only, and every run writes
    the same four files, so no command takes `--format`: the flag is a usage
    error."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    r = run_cli(command, str(cfg_path), flag, "csv" if flag == "--format" else "2")
    assert r.returncode == 2
    assert "unrecognized arguments" in r.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

