"""Run reports and their JSON/CSV serialization.

The JSON report embeds the full config echo (including every numeric design
decision that affects results) so a run can be reproduced from the report
alone. CSV outputs carry only accuracy fields and are byte-stable across
reruns of the same config+seed.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
from dataclasses import asdict, dataclass, field
from pathlib import Path

PROVENANCE = {
    "pixel_scaling": "x/255 into [0,1], no standardization",
    "pca_centering": "column mean",
    "pca_covariance_divisor": "n-1",
    "pca_solver": "eigvalsh of the n×n Gram matrix when n<d, else of the d×d covariance",
    "eigenvalue_normalization": "per-coordinate z-score across the run's clients "
                                "(population std; zero-spread coordinates -> 0)",
    "momentum_form": "classic heavy-ball",
    "weight_init": "he-uniform fan-in, zero biases",
    "fedavg_weighting": "train-sample-count",
    "eval_weighting": "unweighted mean over clients",
}


THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_env() -> dict[str, str | None]:
    """The BLAS thread settings in the environment (None when unset). A run
    is byte-reproducible only at a fixed BLAS thread count: the last bits of
    some GEMMs depend on how the work is split."""
    return {name: os.environ.get(name) for name in THREAD_ENV_VARS}


def build_identifier() -> str:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5)
        if rev.returncode == 0:
            return f"git:{rev.stdout.strip()}"
    except OSError:
        pass
    return "artifact-0.1.0"


@dataclass
class StrategyResult:
    strategy: str
    per_client_accuracy: list[float]          # ordered by client id
    mean_accuracy: float
    ari: float | None = None
    assignments: list[int] | None = None
    schedule: list[int] | None = None         # [rounds, passes per round]
    train_log: list[dict] = field(default_factory=list)


@dataclass
class RunReport:
    run_id: str
    config: dict                              # full echo, seed included
    provenance: dict
    dataset: str
    family: str
    cluster_count: int
    sparsity: str | None
    client_ids: list[int]
    true_clusters: list[int]
    fingerprints: list[list[float]]
    results: list[StrategyResult]
    wall_clock_sec: float
    build: str
    # wall seconds per stage: dataset, partition, fingerprint, train:<kind>
    # and evaluate:<kind> (summed when a kind runs twice)
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunReport":
        results = [StrategyResult(**r) for r in doc.pop("results")]
        return cls(results=results, **doc)

    @classmethod
    def from_file(cls, path) -> "RunReport":
        with open(path) as f:
            return cls.from_dict(json.load(f))


DETAIL_COLUMNS = ("run_id", "family", "dataset", "K", "sparsity", "strategy",
                  "client_id", "cluster_id", "test_accuracy")
SUMMARY_COLUMNS = ("strategy", "mean_accuracy", "ari")


def emit_report(report: RunReport, out_dir, formats=("json", "csv")) -> list[Path]:
    """Write report files; returns the created paths.

    json -> report.json (full report)
    csv  -> detail.csv (one row per strategy x client) and summary.csv
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    created: list[Path] = []
    try:
        if "json" in formats:
            path = out / "report.json"
            with open(path, "w") as f:
                json.dump(report.to_dict(), f, indent=2)
                f.write("\n")
            created.append(path)
        if "csv" in formats:
            detail = out / "detail.csv"
            with open(detail, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(DETAIL_COLUMNS)
                for res in report.results:
                    for cid, cluster, acc in zip(report.client_ids,
                                                 report.true_clusters,
                                                 res.per_client_accuracy):
                        w.writerow([report.run_id, report.family, report.dataset,
                                    report.cluster_count, report.sparsity or "",
                                    res.strategy, cid, cluster, repr(acc)])
            created.append(detail)
            summary = out / "summary.csv"
            with open(summary, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(SUMMARY_COLUMNS)
                for res in report.results:
                    w.writerow([res.strategy, repr(res.mean_accuracy),
                                "" if res.ari is None else repr(res.ari)])
            created.append(summary)
    except Exception:
        for p in created:
            p.unlink(missing_ok=True)
        raise
    return created


def aggregate_reports(report_paths: list[Path], out_path: Path) -> Path:
    """Re-aggregate per-run reports into one long-form suite summary CSV."""
    rows = []
    for path in sorted(report_paths):
        rep = RunReport.from_file(path)
        for res in rep.results:
            rows.append([rep.run_id, rep.family, rep.dataset, rep.cluster_count,
                         rep.sparsity or "", res.strategy,
                         repr(res.mean_accuracy),
                         "" if res.ari is None else repr(res.ari)])
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["run_id", "family", "dataset", "K", "sparsity", "strategy",
                    "mean_accuracy", "ari"])
        w.writerows(rows)
    return out_path
