"""Benchmark workloads: fixed experiment configs, seeded by the caller.

Only the seed varies between runs of a workload; it seeds the glyph dataset
and the partition, as an experiment's own `seed` does. The pins below were
recorded from this revision of fedcond at `DEFAULT_SEED`:

- `sha256`: `summary.csv` and `detail.csv`. A change that claims to keep
  results byte-identical must keep these.
- `train_samples`: samples passed through `nn.loss_and_grad` in one run. It
  depends on the config only, not on the seed; the traced run recounts it.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 0

_GLYPHS_RICH = {"kind": "glyphs", "name": "glyphs", "train_per_class": 1000,
                "test_per_class": 500, "per_class_cap": None}

WORKLOADS = {
    # MLP training at batch 64 over every strategy loop; fingerprints with
    # n=1000 > d=804.
    "e1-rich": {
        "config": {
            "name": "bench-e1-rich",
            "dataset": _GLYPHS_RICH,
            "heterogeneity": {"family": "E1", "K": 2, "clients_per_cluster": 5},
            "stats": {"l": 32},
            "training": {"architecture": "mlp", "hidden_dim": 128, "epochs": 1},
            "strategies": ["conditional", "local", "fedavg", "gossip", "oracle",
                           "ifca", "dac", "ditto"],
        },
        "sha256": {
            "summary.csv": "1ad05fc0759c7f835be1237221814ece2b68277493207f7e7af4275395d197ed",
            "detail.csv": "a0588c1f92d49cef4dfbc63a5827579dd9af3efad5e8f91033368a8c72e789fe",
        },
        "train_samples": 130000,
    },
    # 200 clients of 50 samples: 200 PCA calls with n=50 < d, per-client
    # overhead in the strategy loops, DAC's flatten/mix over 200 models.
    "e1-supersparse": {
        "config": {
            "name": "bench-e1-supersparse",
            "dataset": _GLYPHS_RICH,
            "heterogeneity": {"family": "E1", "K": 2, "sparsity": "SuperSparse"},
            "stats": {"l": 32},
            "training": {"architecture": "mlp", "hidden_dim": 128, "epochs": 1},
            "strategies": ["conditional", "fedavg", "dac"],
        },
        "sha256": {
            "summary.csv": "84b3873d9900abf3fec22012dc46a180279b219409dcceedd3b57a82a41bf7d1",
            "detail.csv": "f7dfe4a249744761d03840791e6439f5fcab72180d8e2ac057829629da0180bc",
        },
        "train_samples": 30000,
    },
    # The only workload with Conv2d and MaxPool2d; forward-only evaluation is
    # about a sixth of its run.
    "cnn-e2b": {
        "config": {
            "name": "bench-cnn-e2b",
            "dataset": {"kind": "glyphs", "name": "glyphs", "train_per_class": 100,
                        "test_per_class": 50, "per_class_cap": None},
            "heterogeneity": {"family": "E2b", "K": 2, "clients_per_cluster": 2},
            "stats": {"l": 32},
            "training": {"architecture": "mnist_cnn", "hidden_dim": 128,
                         "epochs": 1},
            "strategies": ["conditional", "fedavg"],
        },
        "sha256": {
            "summary.csv": "5c584bb422f57b1e6fb7055be5208965568db79c15d300dad0ea8800e35b19c1",
            "detail.csv": "1b523efb4f64935044da5d0a7963a5ac02d913944d9b67bd829dc9b0f72c46b0",
        },
        "train_samples": 2000,
    },
}


def experiment_doc(workload: str, seed: int) -> dict:
    """The experiment config document of `workload` at `seed`."""
    return dict(copy.deepcopy(WORKLOADS[workload]["config"]), seed=int(seed))
