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

from .config import ConfigError, read_json

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
    """The git revision of the checkout this package runs from, whatever
    the working directory, else the package version."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5,
                             cwd=Path(__file__).parent)
        if rev.returncode == 0:
            return f"git:{rev.stdout.strip()}"
    except OSError:
        pass
    return "artifact-0.1.0"


@dataclass
class StrategyResult:
    strategy: str
    per_client_accuracy: list[float]          # in shard order, as `client_ids`
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
        """The report in the file at `path`, else ConfigError naming it."""
        doc = read_json(path, "report")
        try:
            return cls.from_dict(doc)
        except (AttributeError, KeyError, TypeError) as exc:
            raise ConfigError(f"report {str(path)!r} is not a run report: {exc!r}") from None


RUN_COLUMNS = ("run_id", "family", "dataset", "K", "sparsity")
DETAIL_COLUMNS = RUN_COLUMNS + ("strategy", "client_id", "cluster_id", "test_accuracy")
SUMMARY_COLUMNS = ("strategy", "mean_accuracy", "ari")


def _run_cells(report: RunReport) -> list:
    """The `RUN_COLUMNS` cells that begin each of a run's detail and suite rows."""
    return [report.run_id, report.family, report.dataset, report.cluster_count,
            report.sparsity or ""]


def summary_rows(report: RunReport) -> list[list]:
    """The `SUMMARY_COLUMNS` rows of a run, one per strategy."""
    return [[res.strategy, repr(res.mean_accuracy),
             "" if res.ari is None else repr(res.ari)] for res in report.results]


def _write_csv(path: Path, header: tuple, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def emit_report(report: RunReport, out_dir) -> None:
    """Write the run's four files to `out_dir`: train_log.jsonl
    (every strategy's round records in run order, one JSON object a line),
    report.json (the full report), detail.csv (one row per strategy x
    client) and summary.csv (one row per strategy). On any failure, an
    interrupt included, none of the four is left behind."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in
             ("train_log.jsonl", "report.json", "detail.csv", "summary.csv")]
    run = _run_cells(report)
    try:
        with open(paths[0], "w") as f:
            f.writelines(json.dumps(record) + "\n"
                         for res in report.results for record in res.train_log)
        with open(paths[1], "w") as f:
            json.dump(report.to_dict(), f, indent=2)
            f.write("\n")
        _write_csv(paths[2], DETAIL_COLUMNS,
                   (run + [res.strategy, cid, cluster, repr(acc)]
                    for res in report.results
                    for cid, cluster, acc in zip(report.client_ids,
                                                 report.true_clusters,
                                                 res.per_client_accuracy)))
        _write_csv(paths[3], SUMMARY_COLUMNS, summary_rows(report))
    except BaseException:
        for p in paths:
            p.unlink(missing_ok=True)
        raise


def aggregate_reports(report_paths: list[Path], out_path: Path) -> Path:
    """Re-aggregate per-run reports into one long-form suite summary CSV: each
    run's summary rows behind its `RUN_COLUMNS` cells. Every report is read
    before the output is opened."""
    rows = []
    for path in sorted(report_paths):
        rep = RunReport.from_file(path)
        run = _run_cells(rep)
        rows.extend(run + row for row in summary_rows(rep))
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out_path, RUN_COLUMNS + SUMMARY_COLUMNS, rows)
    return out_path
