"""The benchmark's traced run wraps fedcond functions by module and attribute
path (`perfbench/layers.py`), and its stage timer wraps the stage functions
bound in `fedcond.experiment` (`STAGES` in `perfbench/rep.py`). Each must
keep resolving, and a run must keep calling the stages through those
bindings, or the benchmark fails or times nothing. A traced run also checks
the samples through `nn.loss_and_grad` against the pin of its workload
(`perfbench/workloads.py`), which the strategies' schedules must keep
giving."""

import ast
import importlib
import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest

from fedcond import experiment, nn
from fedcond.config import STRATEGY_KINDS, ExperimentConfig, strategy_config
from fedcond.federation import StrategyConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REP = PERFBENCH / "rep.py"

TINY = {
    "name": "stages",
    "seed": 1,
    "dataset": {"kind": "synthetic", "name": "blobs", "train_per_class": 12,
                "test_per_class": 4, "per_class_cap": None},
    "heterogeneity": {"family": "E1", "K": 2, "clients_per_cluster": 2},
    "stats": {"l": 4},
    "training": {"architecture": "mlp", "hidden_dim": 8, "epochs": 1,
                 "batch_size": 8},
    "strategies": ["conditional", "fedavg"],
}


def perfbench_module(name: str):
    """`perfbench/<name>.py`, loaded by path without the runner's imports."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(f"fedcond.{module}")
    for attr in path.split("."):
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return callable(owner)


def timed_stages() -> dict:
    """`STAGES` from `perfbench/rep.py`, read without importing the runner."""
    for node in ast.parse(REP.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["STAGES"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no STAGES assignment in {REP}")


def test_every_traced_name_resolves_in_fedcond():
    layers = perfbench_module("layers")
    assert len(layers.TRACED) > 0
    missing = [f"fedcond.{module}.{path}" for _, module, path, _ in layers.TRACED
               if not resolves(module, path)]
    assert missing == []


def test_every_timed_stage_resolves_in_experiment():
    stages = timed_stages()
    assert len(stages) > 0
    missing = [f"fedcond.experiment.{name}" for name in stages
               if not resolves("experiment", name)]
    assert missing == []


def test_runs_call_every_timed_stage_through_its_binding(monkeypatch, tmp_path):
    calls = {name: 0 for name in timed_stages()}
    for name in calls:
        def counted(*args, _fn=getattr(experiment, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "run_strategy":  # the stage timer reads the config here
                assert isinstance(args[3], StrategyConfig)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(experiment, name, counted)
    experiment.run_experiment(ExperimentConfig.from_dict(TINY), out_dir=tmp_path / "run")
    assert all(calls.values()), calls
    assert calls["run_strategy"] == calls["evaluate"] == 2

    prelude = ("load_dataset_pair", "build_partition", "fingerprint_all")
    before = dict(calls)
    experiment.fingerprint_only(ExperimentConfig.from_dict(TINY), out_dir=tmp_path / "fp")
    assert {n: calls[n] - before[n] for n in prelude} == dict.fromkeys(prelude, 1)


def train_samples(schedules: list[tuple[str, list[int]]], n_train: int) -> int:
    """Samples a run passes through `nn.loss_and_grad`, from each strategy's
    kind and `[rounds, passes]`: every pass covers the training set once,
    and Ditto makes each pass twice (global and personal model)."""
    return sum((2 if kind == "ditto" else 1) * rounds * passes * n_train
               for kind, (rounds, passes) in schedules)


def training_set_size(config: ExperimentConfig) -> int:
    pair = experiment.load_dataset_pair(config.dataset, config.seed)
    return sum(len(s.train) for s in experiment.build_partition(config, pair))


def test_loss_and_grad_sees_every_pass_of_every_schedule(monkeypatch, tmp_path):
    samples = 0

    def counted(params, arch, x, *args, _fn=nn.loss_and_grad, **kwargs):
        nonlocal samples
        samples += len(x)
        return _fn(params, arch, x, *args, **kwargs)

    monkeypatch.setattr(nn, "loss_and_grad", counted)
    config = ExperimentConfig.from_dict(dict(
        TINY, training=dict(TINY["training"], epochs=2),
        strategies=[*STRATEGY_KINDS, {"kind": "ditto", "local_epochs_per_round": 2}]))
    experiment.run_experiment(config, out_dir=tmp_path)
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert samples == train_samples([(r["strategy"], r["schedule"]) for r in results],
                                    training_set_size(config))


@pytest.fixture(scope="module")
def workload_setups() -> dict:
    """Each bench workload's config, the training-set size and the shard
    bytes of its partition, and the traced peak of the set-up sequence that
    `perfbench/rep.py` runs (dataset pair, partition, architectures)."""
    workloads = perfbench_module("workloads")
    setups = {}
    for name in workloads.WORKLOADS:
        config = ExperimentConfig.from_dict(
            workloads.experiment_doc(name, workloads.DEFAULT_SEED))
        tracemalloc.start()
        try:
            pair = experiment.load_dataset_pair(config.dataset, config.seed)
            shards = experiment.build_partition(config, pair)
            experiment.build_architectures(config, shards)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        shard_bytes = sum(d.X.nbytes + d.y.nbytes for s in shards for d in (s.train, s.test))
        setups[name] = (config, sum(len(s.train) for s in shards), shard_bytes, peak)
        del pair, shards
    return setups


def test_workload_sample_pins_follow_the_strategy_schedules(workload_setups):
    workloads = perfbench_module("workloads")
    counted = {}
    for name, (config, n_train, _, _) in workload_setups.items():
        schedules = [(cfg.kind, cfg.schedule) for cfg in
                     (strategy_config(e, config.training) for e in config.strategies)]
        counted[name] = train_samples(schedules, n_train)
    assert counted == {name: w["train_samples"] for name, w in workloads.WORKLOADS.items()}
    assert sorted(counted.values()) == [2000, 30000, 130000]


def test_workload_setup_holds_the_client_rows_about_once(workload_setups):
    """The set-up stages write each split once, into the arrays the shards
    are views of: no source split or gathered copy lives beside them."""
    ratios = {name: round(peak / shard_bytes, 3)
              for name, (_, _, shard_bytes, peak) in workload_setups.items()}
    assert len(ratios) == 3
    assert all(r <= 1.3 for r in ratios.values()), ratios
