"""Command-line entry points.

    fedcond run <config.json>        execute one experiment
    fedcond suite <grid.json>        execute a config grid
    fedcond fingerprint <config.json>  compute standardized client fingerprints only
    fedcond report <dir>             re-aggregate reports under a directory

Dataset root for IDX files comes from the config or $FEDCOND_DATA_ROOT.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, ExperimentConfig, SuiteConfig
from .experiment import StageError, fingerprint_only, reaggregate, run_experiment, run_suite


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedcond",
                                     description="heterogeneous-federation experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    _add_common(p_run)

    p_suite = sub.add_parser("suite", help="run a grid of experiments")
    p_suite.add_argument("config")
    _add_common(p_suite)
    p_suite.add_argument("--threads", type=int, default=1,
                         help="suite-level parallelism; 1 = fully serial (deterministic mode)")

    p_fp = sub.add_parser("fingerprint", help="compute client fingerprints only")
    p_fp.add_argument("config")
    _add_common(p_fp)

    p_rep = sub.add_parser("report", help="re-aggregate reports under a directory")
    p_rep.add_argument("directory")
    p_rep.add_argument("--out", default=None, help="summary CSV path")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = ExperimentConfig.from_file(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            report = run_experiment(cfg, out_dir=args.out)
            for res in report.results:
                ari = "" if res.ari is None else f"  ari={res.ari:.3f}"
                print(f"{res.strategy:12s} mean_accuracy={res.mean_accuracy:.4f}{ari}")
            return 0
        if args.command == "suite":
            suite = SuiteConfig.from_file(args.config)
            if args.seed is not None:
                if "seed" in suite.grid:
                    raise ConfigError("--seed sets the suite seed, which a grid "
                                      "that lists seeds does not use")
                suite = replace(suite, seed=args.seed)  # checked like the file's
            summary = run_suite(suite, out_root=args.out or f"runs/{suite.name}",
                                threads=args.threads)
            for s in summary["runs"]:
                print(f"{s['run_id']:40s} {s['status']}")
            print(f"{len(summary['runs'])} runs, {summary['failed']} failed")
            return 1 if summary["failed"] else 0
        if args.command == "fingerprint":
            cfg = ExperimentConfig.from_file(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            path = fingerprint_only(cfg, out_dir=args.out)
            print(path)
            return 0
        if args.command == "report":
            print(reaggregate(args.directory, out_path=args.out))
            return 0
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
