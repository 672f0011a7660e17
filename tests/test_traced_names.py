"""The benchmark's traced run wraps fedcond functions by module and attribute
path (`perfbench/layers.py`), and its stage timer wraps the stage functions
bound in `fedcond.experiment` (`STAGES` in `perfbench/rep.py`). Each must
keep resolving, and a run must keep calling the stages through those
bindings, or the benchmark fails or times nothing."""

import ast
import importlib
import importlib.util
from pathlib import Path

from fedcond import experiment
from fedcond.config import ExperimentConfig
from fedcond.federation import StrategyConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"
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
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
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
