"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench/tests

The smoke tests run each workload once through the harness, so this module
takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
from tracer import Patches, Tracer, summarize  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, experiment_doc  # noqa: E402


# ------------------------------------------------------------- self times

def test_self_times_of_nested_spans():
    # a [0,10] holds b [1,4] (which holds c [2,3]) and b [5,9]; d [11,12]
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 9.0, 0], ["d", 11.0, 12.0, -1]]
    s = summarize(spans)
    assert s.calls == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert s.self_s == {"a": 3.0, "b": 6.0, "c": 1.0, "d": 1.0}
    assert s.root_s == 11.0
    assert sum(s.self_s.values()) == s.root_s


def test_tracer_records_parents_and_work():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(n):
        return n

    traced_inner = tracer.wrap(inner, "inner", work=lambda n: n)

    def outer():
        return traced_inner(3) + traced_inner(4)

    traced_outer = tracer.wrap(outer, "outer")
    assert traced_outer() == 7
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.work == {"inner": 7}
    s = summarize(tracer.spans)
    assert s.calls == {"outer": 1, "inner": 2}
    # clock: outer 0..5, inner 1..2 and 3..4
    assert s.self_s == {"outer": 3.0, "inner": 2.0}


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    (name, start, end, parent), = tracer.spans
    assert name == "boom" and end >= start and parent == -1
    assert tracer._stack == []


# ------------------------------------------------------------------ gate

def _write_outputs(directory: Path):
    (directory / "summary.csv").write_text(
        "strategy,mean_accuracy,ari\r\nconditional,0.75,\r\nfedavg,0.5,\r\n")
    (directory / "detail.csv").write_text(
        "run_id,strategy,client_id,test_accuracy\r\nr,conditional,0,0.75\r\n")


def test_gate_accepts_matching_outputs(tmp_path):
    _write_outputs(tmp_path)
    pinned = {name: run.sha256(tmp_path / name) for name in run.OUTPUTS}
    digests, problems = run.check_outputs(tmp_path, ["conditional", "fedavg"], pinned)
    assert problems == [] and digests == pinned


@pytest.mark.parametrize("name", run.OUTPUTS)
def test_gate_rejects_one_changed_byte(tmp_path, name):
    _write_outputs(tmp_path)
    pinned = {n: run.sha256(tmp_path / n) for n in run.OUTPUTS}
    data = bytearray((tmp_path / name).read_bytes())
    last_digit = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[last_digit] ^= 0x01  # '5' -> '4': still a valid accuracy
    (tmp_path / name).write_bytes(bytes(data))
    _, problems = run.check_outputs(tmp_path, ["conditional", "fedavg"], pinned)
    assert len(problems) == 1 and name in problems[0]


def test_gate_rejects_missing_strategy_and_bad_accuracy(tmp_path):
    _write_outputs(tmp_path)
    (tmp_path / "summary.csv").write_text(
        "strategy,mean_accuracy,ari\r\nconditional,nan,\r\n")
    _, problems = run.check_outputs(tmp_path, ["conditional", "fedavg"], None)
    assert len(problems) == 2


# ------------------------------------------------------- configs, patches

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_config_validates(workload):
    from fedcond.config import ExperimentConfig
    cfg = ExperimentConfig.from_dict(experiment_doc(workload, 12345))
    assert cfg.seed == 12345
    assert cfg.to_dict()["strategies"] == [
        {"kind": s} for s in WORKLOADS[workload]["config"]["strategies"]]


def test_tracer_patches_importing_modules_and_restores():
    experiment = rep.load_fedcond()
    from fedcond import federation, nn
    originals = (nn.loss_and_grad, federation.loss_and_grad, experiment.run_strategy,
                 nn.Dense.forward)
    patches = Patches()
    try:
        rep.install_tracer(Tracer(), patches)
        assert federation.loss_and_grad is nn.loss_and_grad
        assert federation.loss_and_grad is not originals[0]
        assert set(patches.sites["nn.loss_and_grad"]) == {
            "fedcond.nn.loss_and_grad", "fedcond.federation.loss_and_grad"}
        for name in ("federation.evaluate", "federation.run_strategy",
                     "metrics.compute_ari", "report.emit_report"):
            assert f"fedcond.experiment.{name.split('.')[1]}" in patches.sites[name]
        for fn in ("sgd_step", "average_params", "forward", "train_sgd"):
            assert f"fedcond.federation.{fn}" in patches.sites[f"nn.{fn}"]
        assert set(patches.sites) == {name for name, *_ in layers.TRACED}
    finally:
        patches.restore()
    assert (nn.loss_and_grad, federation.loss_and_grad, experiment.run_strategy,
            nn.Dense.forward) == originals


def test_benchmark_json_names_the_harness_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.per_layer_metrics()


# ----------------------------------------------------------------- smoke

def _run(*args) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_through_harness(workload):
    code, result, err = _run("--workload", workload, "--seed", str(DEFAULT_SEED),
                             "--seconds", "1", "--trace", "0")
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0, err
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
