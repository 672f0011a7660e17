"""The layers the traced run measures, and the per-layer metric names.

Layers are fedcond's modules. Each traced function is named
`<layer>.<function>`; its module and attribute say where the function is
defined. `data.load_dataset_pair` and `heterogeneity.build_partition` are
defined in `fedcond.experiment` but belong to the data and partition layers.
This module imports neither numpy nor fedcond, so the runner can use the
names without loading the program.
"""

from __future__ import annotations

STRATEGIES = ("conditional", "local", "fedavg", "gossip", "oracle", "ifca",
              "dac", "ditto")

NN_LAYER_CLASSES = ("Dense", "ReLU", "Conv2d", "MaxPool2d", "Flatten",
                    "ConcatStats")


def _dense_flops(layer, x, *_args, **_kwargs) -> int:
    return 2 * x.shape[0] * layer.in_dim * layer.out_dim


def _conv_flops(layer, x, *_args, **_kwargs) -> int:
    n, _, h, w = x.shape
    return 2 * n * layer.out_ch * layer.in_ch * layer.KSIZE ** 2 * h * w


def _batch_samples(_params, _arch, x, *_args, **_kwargs) -> int:
    return len(x)


# (span name, fedcond module, attribute path, work counter or None)
TRACED = (
    *[(f"nn.{cls}.{method}", "nn", f"{cls}.{method}",
       {"Dense.forward": _dense_flops,
        "Conv2d.forward": _conv_flops}.get(f"{cls}.{method}"))
      for cls in NN_LAYER_CLASSES for method in ("forward", "backward")],
    ("nn.loss_and_grad", "nn", "loss_and_grad", _batch_samples),
    ("nn.sgd_step", "nn", "sgd_step", None),
    ("nn.average_params", "nn", "average_params", None),
    ("nn.forward", "nn", "forward", None),
    ("nn.train_sgd", "nn", "train_sgd", None),
    ("nn.ModelParams.flatten", "nn", "ModelParams.flatten", None),
    ("nn.ModelParams.from_flat", "nn", "ModelParams.from_flat", None),
    ("stats.build_augmented", "stats", "build_augmented", None),
    ("stats.pca_eigenvalues", "stats", "pca_eigenvalues", None),
    ("data.load_dataset_pair", "experiment", "load_dataset_pair", None),
    ("heterogeneity.build_partition", "experiment", "build_partition", None),
    ("federation.run_strategy", "federation", "run_strategy", None),
    ("federation.evaluate", "federation", "evaluate", None),
    ("federation.mean_shard_loss", "federation", "mean_shard_loss", None),
    ("metrics.compute_ari", "metrics", "compute_ari", None),
    ("report.emit_report", "report", "emit_report", None),
)

SAMPLES = "nn.loss_and_grad.samples"
GFLOP_SPANS = ("nn.Dense.forward", "nn.Conv2d.forward")


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric the traced run reports, in output order."""
    out = []
    for name, *_ in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out.append((SAMPLES, "count"))
    for name in GFLOP_SPANS:
        out += [(f"{name}.gflop", "GFLOP"), (f"{name}.gflop_per_s", "GFLOP/s")]
    out += [(f"federation.train.{kind}_s", "s") for kind in STRATEGIES]
    out += [("trace.unattributed_frac", "fraction"),
            ("trace.overhead_frac", "fraction")]
    return out
