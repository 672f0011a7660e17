"""fedcond benchmark: end-to-end stage times, or per-layer self times.

    python3 perfbench/run.py --workload e1-rich --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds `src/fedcond`. With --trace 0
it repeats the workload, each repetition in a fresh process, until the next
repetition would overrun --seconds, and reports the median of each
end-to-end metric. With --trace 1 it makes two untraced and two traced
repetitions and reports per-function call counts and self times. Every
repetition's summary.csv and detail.csv must match the pinned digests at the
default seed, and each other at any seed. Metrics are printed one per line
with their unit; the last line of standard output is a JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import GFLOP_SPANS, SAMPLES, STRATEGIES, TRACED, per_layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, experiment_doc  # noqa: E402

OUTPUTS = ("summary.csv", "detail.csv")
RUN_LIMIT_S = 170.0      # a whole run, set-up repetitions included
MIN_SETUP_SAMPLES = 5    # set-up is short; repeat it for a steady median
SETUP_STAGES = ("dataset", "partition", "architectures")

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("fingerprint_s", "s"),
              ("train_s", "s"), ("train_samples_per_s", "samples/s"),
              ("peak_rss_mb", "MB"))


@dataclass
class Rep:
    """One repetition: its result.json, output digests, and any problems."""

    trace: bool
    setup_only: bool
    result: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out_dir: Path, strategies: list[str],
                  pinned: dict | None) -> tuple[dict, list[str]]:
    """Digest the run's CSVs and check them: against `pinned` digests when
    given, and for a summary row per strategy with a finite accuracy in
    [0, 1]. Returns (digests, problems)."""
    digests, problems = {}, []
    for name in OUTPUTS:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} was not written")
            continue
        digests[name] = sha256(path)
        if pinned is not None and digests[name] != pinned[name]:
            problems.append(f"{name} sha256 {digests[name][:12]} differs from "
                            f"the pinned {pinned[name][:12]}")
    if "summary.csv" in digests:
        with open(out_dir / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        if [r.get("strategy") for r in rows] != strategies:
            problems.append(f"summary.csv strategies {[r.get('strategy') for r in rows]}"
                            f" != {strategies}")
        for r in rows:
            try:
                acc = float(r["mean_accuracy"])
            except (KeyError, TypeError, ValueError):
                acc = math.nan
            if not 0.0 <= acc <= 1.0:
                problems.append(f"summary.csv {r.get('strategy')}: "
                                f"mean_accuracy {r.get('mean_accuracy')!r}")
    return digests, problems


def git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest() -> str:
    """sha256 over src/ file names and contents: the revision when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Bench:
    """The repetitions of one run of one workload at one seed."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.strategies = [s if isinstance(s, str) else s["kind"]
                           for s in experiment_doc(workload, seed)["strategies"]]
        self.pinned = self.spec["sha256"] if seed == DEFAULT_SEED else None
        self.work_dir = work_dir
        self.reps: list[Rep] = []
        self.samples: dict[str, list[float]] = {}  # per-repetition values
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, trace: bool = False, setup_only: bool = False) -> Rep:
        rep = Rep(trace, setup_only)
        self.reps.append(rep)
        out = self.work_dir / f"rep{len(self.reps)}"
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), "--trace", str(int(trace))]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            rep.problems.append("timed out")
            return rep
        finally:
            rep.wall_s = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            rep.problems.append(f"exit code {proc.returncode}: {tail[0]}")
            return rep
        try:
            rep.result = json.loads((out / "result.json").read_text())
        except (OSError, ValueError) as exc:
            rep.problems.append(f"no readable result.json: {exc}")
            return rep
        if not setup_only:
            rep.digests, problems = check_outputs(out, self.strategies, self.pinned)
            rep.problems += problems
            first = next((r for r in self.reps if r.digests and r is not rep), None)
            if first is not None and rep.digests != first.digests:
                rep.problems.append("outputs differ from the first repetition's")
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def good(self, trace: bool | None = None, full: bool = True) -> list[Rep]:
        return [r for r in self.reps if r.ok and (trace is None or r.trace == trace)
                and (not full or not r.setup_only)]

    # ---------------------------------------------------------------- timed

    def run_timed(self, seconds: float) -> dict:
        """Full repetitions while the next one, and the set-up-only
        repetitions still needed after it, fit in `seconds`; at least one.
        Then set-up-only repetitions up to MIN_SETUP_SAMPLES set-up times."""
        budget = min(seconds, RUN_LIMIT_S)
        while True:
            rep = self.spawn()
            if not rep.ok:
                if self.elapsed() + rep.wall_s > budget:
                    break
                continue
            full_s = statistics.median(r.wall_s for r in self.good())
            # a set-up-only repetition: the set-up stages plus process start
            setup_rep_s = setup_seconds(rep.result) + rep.wall_s - rep.result["wall_s"]
            setup_left = MIN_SETUP_SAMPLES - len(self.good(full=False)) - 1
            if self.elapsed() + full_s + max(0, setup_left) * setup_rep_s > budget:
                break
        for _ in range(2 * MIN_SETUP_SAMPLES):
            if (len(self.good(full=False)) >= MIN_SETUP_SAMPLES
                    or self.elapsed() > RUN_LIMIT_S - 10.0):
                break
            self.spawn(setup_only=True)
        full = self.good()
        if not full:
            return {}
        samples = self.spec["train_samples"]
        self.samples = {
            "run_s": [r.result["run_s"] for r in full],
            "setup_s": [setup_seconds(r.result) for r in self.good(full=False)],
            "fingerprint_s": [r.result["stages"]["fingerprint"] for r in full],
            "train_s": [train_seconds(r.result) for r in full],
            "train_samples_per_s": [samples / train_seconds(r.result) for r in full],
            "peak_rss_mb": [r.result["peak_rss_mb"] for r in full],
            "run_wall_s": [r.result["wall_s"] for r in full],  # shown, not a metric
        }
        return {name: median(values) for name, values in self.samples.items()}

    # --------------------------------------------------------------- traced

    def run_traced(self) -> dict:
        """Two untraced and two traced repetitions, alternating so that a
        drift in machine speed falls on both sides; per-layer metrics."""
        for trace in (False, True, False, True):
            self.spawn(trace=trace)
        untraced, traced = self.good(trace=False), self.good(trace=True)
        if not traced or not untraced:
            return {}
        calls = traced[0].result["trace"]["calls"]
        work = traced[0].result["trace"]["work"]
        self_s = {name: median(r.result["trace"]["self_s"].get(name, 0.0)
                               for r in traced) for name, *_ in TRACED}
        metrics = {}
        for name, *_ in TRACED:
            metrics[f"{name}.calls"] = calls.get(name, 0)
            metrics[f"{name}.self_s"] = self_s[name]
        metrics[SAMPLES] = work.get("nn.loss_and_grad", 0)
        for name in GFLOP_SPANS:
            gflop = work.get(name, 0) / 1e9
            metrics[f"{name}.gflop"] = gflop
            metrics[f"{name}.gflop_per_s"] = gflop / self_s[name] if self_s[name] else 0.0
        for kind in STRATEGIES:
            metrics[f"federation.train.{kind}_s"] = median(
                r.result["stages"].get(f"train:{kind}", 0.0) for r in traced)
        traced_run_s = median(r.result["run_s"] for r in traced)
        metrics["trace.unattributed_frac"] = median(
            1.0 - r.result["trace"]["root_s"] / r.result["run_s"] for r in traced)
        metrics["trace.overhead_frac"] = (
            traced_run_s / median(r.result["run_s"] for r in untraced) - 1.0)
        # a count that does not repeat fails the repetition that broke it
        traced[-1].problems += trace_problems([r.result for r in traced],
                                              self.spec["train_samples"])
        return metrics


def median(values) -> float:
    return statistics.median(list(values))


def setup_seconds(result: dict) -> float:
    return sum(result["stages"][s] for s in SETUP_STAGES)


def train_seconds(result: dict) -> float:
    return sum(v for k, v in result["stages"].items() if k.startswith("train:"))


def trace_problems(results: list[dict], pinned_samples: int) -> list[str]:
    """Checks on the traced repetitions: call and sample counts repeat
    exactly, and self times plus the unattributed remainder make up run_s."""
    problems = []
    first = results[0]["trace"]
    for res in results[1:]:
        if res["trace"]["calls"] != first["calls"]:
            diff = sorted(k for k in set(first["calls"]) | set(res["trace"]["calls"])
                          if first["calls"].get(k) != res["trace"]["calls"].get(k))
            problems.append(f"call counts differ between traced runs: {diff}")
    for res in results:
        t = res["trace"]
        samples = t["work"].get("nn.loss_and_grad", 0)
        if samples != pinned_samples:
            problems.append(f"{SAMPLES} = {samples}, pinned {pinned_samples}")
        attributed = sum(t["self_s"].values())
        if abs(attributed - t["root_s"]) > 1e-6 * max(1.0, t["root_s"]):
            problems.append(f"self times sum to {attributed}, root spans to {t['root_s']}")
        if not 0.0 <= t["root_s"] <= res["run_s"]:
            problems.append(f"traced time {t['root_s']} outside run_s {res['run_s']}")
    return problems


def print_report(bench: Bench, metrics: dict, units: dict, env: dict):
    print(f"perfbench {bench.workload} seed={bench.seed}: {len(bench.reps)} "
          f"repetitions, {sum(not r.ok for r in bench.reps)} failed")
    for name, value in metrics.items():
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6f}"
        print(f"  {name:<40} {shown:>16} {units[name]}")
    if bench.samples:
        print("samples: " + json.dumps(bench.samples))
    print("env: " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fedcond" / "__init__.py").is_file():
        print(f"perfbench: no fedcond sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".perfbench_runs" / str(os.getpid())
    bench = Bench(args.workload, args.seed, work_dir)
    try:
        metrics = bench.run_traced() if args.trace else bench.run_timed(args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    for rep in bench.reps:
        for problem in rep.problems:
            print(f"perfbench: repetition failed: {problem}", file=sys.stderr)

    units = dict(per_layer_metrics() if args.trace else END_TO_END)
    failed = sum(not r.ok for r in bench.reps)
    if not metrics:
        print("perfbench: too few repetitions succeeded to report metrics",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(bench.reps),
                          "failed": failed, "metrics": {}}))
        return 1
    metrics = {name: metrics[name] for name in units}
    full, good = bench.good(), bench.good(full=False)
    env = dict(good[0].result["env"], git_rev=git_rev(), src_sha256=src_digest(),
               workload=args.workload, seed=args.seed, trace=args.trace,
               repetitions={"full": len(full), "setup_only": len(good) - len(full)})
    print_report(bench, metrics, units, env)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
