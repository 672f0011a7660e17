"""One repetition of a benchmark workload, run in a fresh process.

    python3 perfbench/rep.py --workload e1-rich --seed 0 --out DIR [--trace 1]

Runs fedcond's `run_experiment` on the workload's config, writing the run's
report files into DIR, and writes DIR/result.json with the stage times, the
process's peak RSS and, with --trace 1, per-function call counts and self
times. `--setup-only` stops after the set-up stages. fedcond is imported from
the `src/` directory next to this benchmark, never from site-packages.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from layers import TRACED  # noqa: E402
from tracer import Patches, Tracer, summarize  # noqa: E402
from workloads import experiment_doc  # noqa: E402

# One BLAS thread: on two cores a second thread buys ~13% wall time for ~64%
# more CPU time, and a thread count that varies with the machine's load makes
# timings incomparable.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Every time the repetition reports is CPU time of this process. With one
# BLAS thread the run is single-threaded, so CPU time is its wall time less
# the time the process was not running: on a shared VM, mostly time the
# hypervisor gave the vCPU to another guest, which can add more than half
# to a stage's wall time and is no property of the program.
CLOCK = time.process_time

# experiment-module binding -> stage it times; run_strategy is per strategy
STAGES = {"load_dataset_pair": "dataset", "build_partition": "partition",
          "build_architectures": "architectures", "fingerprint_all": "fingerprint",
          "run_strategy": "train", "evaluate": "evaluate", "emit_report": "report"}


def load_fedcond():
    """Import fedcond from this checkout's src/ directory."""
    if not (SRC / "fedcond" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fedcond package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    experiment = importlib.import_module("fedcond.experiment")
    if Path(experiment.__file__).resolve().parent != SRC / "fedcond":
        raise ImportError(f"fedcond was imported from {experiment.__file__}, "
                          f"not from {SRC}")
    return experiment


def time_stages(experiment, patches: Patches, clock=CLOCK) -> dict:
    """Wrap the experiment module's stage functions; returns the dict that
    accumulates seconds per stage (`train:<kind>` per strategy)."""
    totals: dict[str, float] = {}
    for attr, stage in STAGES.items():
        def timed(*args, _fn=getattr(experiment, attr), _stage=stage, **kwargs):
            key = f"train:{args[3].kind}" if _stage == "train" else _stage
            start = clock()
            try:
                return _fn(*args, **kwargs)
            finally:
                totals[key] = totals.get(key, 0.0) + clock() - start
        patches.set(experiment, attr, timed)
    return totals


def install_tracer(tracer: Tracer, patches: Patches):
    """Wrap every function in `layers.TRACED` at each of its bindings."""
    for name, module, path, work in TRACED:
        owner = importlib.import_module(f"fedcond.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, name, work)
        if classes:
            patches.set(owner, attr, wrapped)
            patches.sites[name] = [f"fedcond.{module}.{path}"]
        else:
            patches.rebind(original, wrapped, name)


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def run_once(workload: str, seed: int, out_dir: Path, trace: bool = False,
             setup_only: bool = False) -> dict:
    experiment = load_fedcond()
    from fedcond.config import ExperimentConfig

    doc = experiment_doc(workload, seed)
    patches = Patches()
    tracer = Tracer(clock=CLOCK)
    try:
        if trace:
            install_tracer(tracer, patches)
        stages = time_stages(experiment, patches)
        start, wall_start = CLOCK(), time.perf_counter()
        config = ExperimentConfig.from_dict(doc)
        if setup_only:
            pair = experiment.load_dataset_pair(config.dataset, config.seed)
            shards = experiment.build_partition(config, pair)
            experiment.build_architectures(config, shards)
        else:
            experiment.run_experiment(config, out_dir=out_dir)
        run_s = CLOCK() - start
        wall_s = time.perf_counter() - wall_start
    finally:
        patches.restore()
    result = {"run_s": run_s, "wall_s": wall_s, "stages": stages,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "env": environment()}
    if trace:
        summary = summarize(tracer.spans)
        result["trace"] = {"calls": summary.calls, "self_s": summary.self_s,
                           "root_s": summary.root_s, "work": tracer.work,
                           "sites": patches.sites}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    result = run_once(args.workload, args.seed, args.out, trace=bool(args.trace),
                      setup_only=args.setup_only)
    with open(args.out / "result.json", "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    os.environ.update(THREAD_ENV)  # before anything imports numpy
    sys.exit(main())
